"""Combination rules: involution and associativity residuals, and the
additive regraduation of associative rules.

The closed-form oracle for x + y + xy: with w(x) = ln(1 + x) the rule
becomes addition, so the normalized regraduation must agree with
ln(1 + x) / ln(1 + x1) at every grid point (x1 the anchor)."""

import json
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from qlprob import funceq
from qlprob.cli import main
from qlprob.funceq import (
    CHECK_TOLERANCE,
    DOMAIN_SLACK,
    GRID_SIZE,
    MEASURE_CACHE,
    RULER_END,
    STEP_SLACK,
    TOP_SLACK,
    CoxFunction,
    DomainEscape,
    NotRegraduable,
    TooManySkips,
    _linspace,
    additive_conjugate,
    builtin,
    check_associativity,
    check_involution,
    from_samples_binary,
    from_samples_unary,
    regraduate,
)


def test_builtin_registry():
    assert builtin("sum")(0.25, 0.5) == 0.75
    assert builtin("one-minus")(0.25) == 0.75
    with pytest.raises(ValueError):
        builtin("nosuch")


def test_involution_one_minus():
    report = check_involution(builtin("one-minus"))
    assert report.passed
    assert report.max_residual == 0.0
    assert not report.identity


def test_involution_identity_flagged():
    report = check_involution(builtin("identity"))
    assert report.passed
    assert report.identity


def test_involution_square_fails():
    report = check_involution(builtin("square"))
    assert not report.passed
    assert report.worst_x == pytest.approx(0.625, abs=1e-12)


def test_involution_requires_unary():
    with pytest.raises(TypeError):
        check_involution(builtin("sum"))


def test_involution_domain_escape():
    doubler = CoxFunction(arity=1, lo=0.0, hi=1.0, fn=lambda x: 2 * x,
                          total=True, label="double")
    with pytest.raises(DomainEscape):
        check_involution(doubler)


def test_associativity_of_closed_forms():
    for name in ("sum", "sumprod", "max"):
        report = check_associativity(builtin(name))
        assert report.passed
        assert report.max_residual == 0.0
        assert report.skipped == 0


def test_associativity_failure_located():
    broken = CoxFunction(arity=2, lo=0.0, hi=1.0, fn=lambda x, y: x + y * y,
                         total=True, label="skew")
    report = check_associativity(broken)
    assert not report.passed
    assert report.worst_triple == (0.0, 1.0, 1.0)
    assert report.max_residual == pytest.approx(2.0)


def test_too_many_skips_raised():
    shifted = CoxFunction(arity=2, lo=0.0, hi=1.0,
                          fn=lambda x, y: x + y + 0.5,
                          total=False, label="shifted")
    with pytest.raises(TooManySkips) as err:
        check_associativity(shifted)
    assert err.value.skipped > err.value.evaluated


def test_regraduate_sum_is_linear():
    result = regraduate(builtin("sum"))
    assert result.max_residual == 0.0
    assert result.anchor == pytest.approx(1 / 32)
    values = np.array(result.values)
    grid = np.array(result.grid)
    assert np.allclose(values, 32 * grid, atol=1e-9)


def test_regraduate_sumprod_matches_log_oracle():
    result = regraduate(builtin("sumprod"))
    assert result.max_residual < 1e-8
    scale = math.log1p(result.anchor)
    worst = max(
        abs(w - math.log1p(x) / scale)
        for x, w in zip(result.grid, result.values)
    )
    assert worst < 1e-6


def test_regraduate_rejects_max():
    with pytest.raises(NotRegraduable) as err:
        regraduate(builtin("max"))
    assert err.value.reason == "non-monotone"


def test_regraduate_needs_additive_zero():
    shifted = CoxFunction(arity=2, lo=0.0, hi=1.0,
                          fn=lambda x, y: (x + y + 1) / 3,
                          total=True, label="affine")
    with pytest.raises(NotRegraduable) as err:
        regraduate(shifted)
    assert err.value.reason == "no-additive-zero"


def test_regraduation_survives_grid_refinement():
    coarse = regraduate(builtin("sumprod"), grid_size=33)
    fine = regraduate(builtin("sumprod"), grid_size=65)
    assert fine.max_residual < 1e-8
    # anchors differ, so the two measures agree up to one positive factor
    scale = fine.w(coarse.anchor)
    for x, w in zip(coarse.grid, coarse.values):
        assert w * scale == pytest.approx(fine.w(x), abs=1e-8 * max(1.0, scale))


def test_additive_conjugate_is_associative():
    result = regraduate(builtin("sumprod"))
    conjugate = additive_conjugate(result)
    report = check_associativity(conjugate)
    assert report.passed
    assert report.skipped == 0
    assert report.max_residual < 1e-10


def test_measure_cache_is_bounded():
    """w keeps at most MEASURE_CACHE values however many points it is
    asked for, and a value recomputed after eviction is the same."""
    w = regraduate(builtin("sumprod")).w
    first = w(0.3)
    for k in range(5001):
        w(k / 5000)
    assert w.fn.cache_info().currsize <= MEASURE_CACHE < 5001
    assert w(0.3) == first


def test_ruler_replay_inverse():
    """w⁻¹ replays the dyadic ruler.  For x + y + xy the normalised
    regraduation is ln(1 + x) / ln(1 + x1), so w⁻¹(t) = (1 + x1)^t − 1."""
    result = regraduate(builtin("sumprod"))
    w, inverse = result.w, result.inverse
    top = w(w.hi)
    rng = np.random.default_rng(17)
    for t in np.concatenate([rng.uniform(0, top, 200), [0.0, result.values[1], top]]):
        x = inverse(float(t))
        assert w.lo <= x <= w.hi
        assert abs(x - ((1 + result.anchor) ** t - 1)) <= 1e-12
        assert abs(w(x) - t) <= 1e-11
    assert inverse(0.0) == w.lo
    assert inverse(top + 1e-9) <= w.hi


def test_ruler_replay_inverse_stays_in_sampled_domain():
    xs = np.linspace(0, 1, 65)
    result = regraduate(from_samples_binary([(x, y, x + y + x * y) for x in xs for y in xs]))
    w = result.w
    top = w(w.hi)
    for t in np.linspace(0, top, 101):
        x = result.inverse(float(t))
        assert w.lo <= x <= w.hi
        w(x)  # inside the sampled domain, so no DomainEscape
    assert result.inverse(top + 1e-9) <= w.hi
    conjugate = additive_conjugate(result)
    assert conjugate(conjugate.hi, conjugate.hi) <= w.hi


def test_samples_reproduce_unary_rule():
    xs = np.linspace(0, 1, 65)
    g = from_samples_unary([(x, 1 - x) for x in xs])
    report = check_involution(g)
    assert report.passed and report.max_residual == 0.0


def test_samples_reproduce_binary_rule():
    xs = np.linspace(0, 1, 65)
    f = from_samples_binary([(x, y, x + y + x * y) for x in xs for y in xs])
    result = regraduate(f)
    assert result.max_residual < 1e-8


def test_sampled_rule_guards_its_domain():
    g = from_samples_unary([(x, 1 - x) for x in np.linspace(0, 0.5, 9)])
    with pytest.raises(DomainEscape):
        g(0.9)


def test_binary_samples_need_full_grid():
    with pytest.raises(ValueError):
        from_samples_binary([(0, 0, 0), (1, 1, 1)])


@pytest.mark.parametrize("points, error", [
    ([], "two or more distinct x"),
    ([(0, 0, 0)], "two or more distinct x"),
    ([(0, 0, 0), (0, 1, 1)], "two or more distinct x"),
    ([(0, 0, 0), (1, 0, 1)], "two or more distinct y"),
    ([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (1, 1, 2)], "each point once"),
    ([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 0, 1)], "each point once")])
def test_binary_samples_need_two_values_a_side_and_each_point_once(points, error):
    with pytest.raises(ValueError, match=error):
        from_samples_binary(points)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 1])
def test_unary_samples_must_be_finite(bad, where):
    """A NaN or an infinity in x or in g(x) is refused, not interpolated."""
    points = [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]
    points[1][where] = bad
    with pytest.raises(ValueError, match="is not finite"):
        from_samples_unary(points)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_binary_samples_must_be_finite(bad, where):
    points = [[x, y, x + y] for x in (0.0, 1.0) for y in (0.0, 1.0)]
    points[3][where] = bad
    with pytest.raises(ValueError, match="is not finite"):
        from_samples_binary(points)


@pytest.mark.parametrize("text, check", [("0,1\n0.5,nan\n1,0\n", "involution"),
                                         ("0,0,0\n0,1,1\n1,0,1\n1,1,nan\n", "assoc")])
def test_cox_refuses_a_non_finite_sample_file(tmp_path, capsys, text, check):
    """Before sample rules had to be finite, the NaN rule passed `involution`
    and the NaN grid printed an `assoc` report with no worst triple."""
    path = tmp_path / "rule.csv"
    path.write_text(text)
    assert main(["cox", str(path), check]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "ValueError" and doc["error"].endswith(", nan) is not finite")


def bits(value):
    return struct.pack("<d", value)


def probes(knots, rng):
    """Every knot, a random point inside each cell, the cell midpoints,
    and the edges with the DOMAIN_SLACK band on both sides."""
    lo, hi = knots[0], knots[-1]
    inside = [a + (b - a) * t for a, b in zip(knots, knots[1:]) for t in (0.5, rng.uniform())]
    band = [lo - DOMAIN_SLACK, lo - DOMAIN_SLACK / 2, hi + DOMAIN_SLACK / 2, hi + DOMAIN_SLACK]
    return list(knots) + inside + band


@pytest.mark.parametrize("seed", range(5))
def test_unary_samples_match_numpy_interp(seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-1, 2, 12)).tolist()
    ys = rng.uniform(-3, 3, 12).tolist()
    g = from_samples_unary(list(zip(xs, ys)))
    for x in probes(xs, rng):
        assert bits(g(x)) == bits(float(np.interp(x, xs, ys))), x


@pytest.mark.parametrize("seed", range(5))
def test_binary_samples_match_the_searchsorted_formula(seed):
    """The bilinear rule against the numpy formula it replaced: the cell
    from np.searchsorted, clamped to the grid, then the same four terms."""
    rng = np.random.default_rng(seed)
    xa, ya = np.sort(rng.uniform(0, 1, 7)), np.sort(rng.uniform(0, 1, 9))
    grid = rng.uniform(-2, 2, (7, 9))
    f = from_samples_binary([(x, y, grid[i, j]) for i, x in enumerate(xa) for j, y in enumerate(ya)])

    def reference(x, y):
        i = min(max(int(np.searchsorted(xa, x) - 1), 0), len(xa) - 2)
        j = min(max(int(np.searchsorted(ya, y) - 1), 0), len(ya) - 2)
        tx = (x - xa[i]) / (xa[i + 1] - xa[i])
        ty = (y - ya[j]) / (ya[j + 1] - ya[j])
        return float(grid[i, j] * (1 - tx) * (1 - ty) + grid[i + 1, j] * tx * (1 - ty)
                     + grid[i, j + 1] * (1 - tx) * ty + grid[i + 1, j + 1] * tx * ty)

    lo, hi = f.lo, f.hi
    xs = [x for x in probes(xa.tolist(), rng) if lo - DOMAIN_SLACK <= x <= hi + DOMAIN_SLACK]
    ys = [y for y in probes(ya.tolist(), rng) if lo - DOMAIN_SLACK <= y <= hi + DOMAIN_SLACK]
    for x in xs:
        for y in ys:
            assert bits(f(x, y)) == bits(reference(x, y)), (x, y)


def test_plain_linspace_matches_numpy():
    """Every grid size the package, its tests and the benchmark use, on the
    unit interval, the sumprod conjugate's shrunk interval and random ones."""
    conjugate_hi = additive_conjugate(regraduate(builtin("sumprod"))).hi
    rng = np.random.default_rng(11)
    intervals = [(0.0, 1.0), (0.0, conjugate_hi)] + [tuple(rng.uniform(-5, 5, 2)) for _ in range(50)]
    for lo, hi in intervals:
        for n in (1, 2, 3, 9, 33, 65, 101):
            assert [bits(x) for x in _linspace(lo, hi, n)] == [bits(x) for x in np.linspace(lo, hi, n)]


SUMPROD_VALUES = (
    0.0, 1.0, 1.970144751473299, 2.9121653681445423, 3.827646631984635, 4.718043034883749,
    5.584692680616854, 6.428829380707157, 7.251593218642256, 8.05403980944152, 8.83714844326687,
    9.60182927068081, 10.348929661779948, 11.079239850627118, 11.79349795925873,
    12.492394481343126, 13.176576293764583, 13.846650254548877, 14.50318643728474,
    15.146721045237882, 15.777759042487105, 16.396776534425953, 17.004222925749218,
    17.600522880422204, 18.18607810504659, 18.761268974381437, 19.326456015490066,
    19.88198126502016, 20.428169512407067, 20.965329440320374, 21.493754672378145,
    22.013724737031453, 22.52550595554453,
)


def test_sumprod_figures_are_pinned():
    """Exact floats of the associativity check, the regraduation and its
    conjugate on x + y + xy, and of a sample rule's check with skips."""
    report = check_associativity(builtin("sumprod"))
    assert (report.max_residual, report.worst_triple, report.evaluated, report.skipped) == \
        (0.0, (0.0, 0.0, 0.0), 35937, 0)
    result = regraduate(builtin("sumprod"))
    assert result.values == SUMPROD_VALUES
    assert result.max_residual == 2.2737367544323206e-13
    rule = additive_conjugate(result)
    assert rule.hi == 0.2599210498948725
    assert [rule(x, y) for x, y in ((0.05, 0.1), (0.1, 0.2), (0.125, 0.03))] == \
        [0.154999999999995, 0.31999999999999124, 0.15874999999999362]
    grid = [k / 4 for k in range(9)]
    hypot = from_samples_binary([(x, y, (x * x + y * y) ** 0.5) for x in grid for y in grid])
    report = check_associativity(hypot, grid_size=9)
    assert (report.max_residual, report.worst_triple, report.evaluated, report.skipped) == \
        (0.0069222573100353735, (0.25, 0.25, 0.75), 424, 305)


def test_fraction_formula_reports_floats(monkeypatch):
    """A total rule whose formula returns a Fraction is read as a float, as
    CoxFunction.__call__ reads it: every field equals a run in which each
    evaluation goes through the call."""
    rule = CoxFunction(arity=2, lo=0.0, hi=1.0, label="exact sumprod",
                       fn=lambda x, y: Fraction(x) + Fraction(y) + Fraction(x) * Fraction(y))

    def run():
        report, result = check_associativity(rule, grid_size=9), regraduate(rule, grid_size=9)
        return (report.max_residual, report.worst_triple, report.evaluated, report.skipped,
                result.max_residual, result.values, result.inverse(2.5))

    direct = run()
    monkeypatch.setattr(funceq, "_formula", lambda f: f)
    assert run() == direct
    assert all(type(v) is float for v in (direct[0], direct[4], *direct[1], *direct[5], direct[6]))


# Pairs of thresholds that judge the same quantity (README, "Float
# tolerances"): each test fails if the two disagree about a value.

def test_regraduation_keeps_what_w_measures():
    """A value of f at most DOMAIN_SLACK past hi is kept by the residual
    loop and measured by w, which guards with the same slack; a value
    further out is skipped, not measured (or w would raise)."""
    grid = _linspace(0.0, 1.0, 33)
    for eps, kept in ((2 * DOMAIN_SLACK, True), (40 * DOMAIN_SLACK, False)):
        rule = CoxFunction(arity=2, lo=0.0, hi=1.0, fn=lambda x, y, e=eps: x + y + e * x * y)
        past = [rule(x, y) - 1.0 for x in grid for y in grid if rule(x, y) > 1.0]
        assert any(p <= DOMAIN_SLACK for p in past) is kept
        assert regraduate(rule).max_residual < 1e-12


def test_conjugate_top_maps_back_inside_the_domain():
    """A w-sum at most TOP_SLACK past w(hi) maps back to a point of
    [lo, hi] that w measures; one further out raises DomainEscape."""
    result = regraduate(builtin("sumprod"))
    conjugate, w = additive_conjugate(result), result.w
    tiny = TOP_SLACK / 128  # w has slope about 32 at 0, so w(tiny) is about TOP_SLACK / 4
    assert 0 < w(tiny) <= TOP_SLACK
    x = conjugate(w.hi, tiny)
    assert w.lo <= x <= w.hi
    assert w(x) == pytest.approx(w(w.hi))
    with pytest.raises(DomainEscape):
        conjugate(w.hi, 8 * tiny)


def test_ruler_counts_a_step_within_the_slack_and_not_a_finest_tick():
    """w counts a ruler step that lands at most STEP_SLACK past x, and
    not one RULER_END past: the slack is below the ruler's finest tick.
    For x + y, w(x) = 32x, and 3/4 is 24 steps of the anchor 1/32."""
    w = regraduate(builtin("sum")).w
    assert STEP_SLACK < RULER_END / 2
    assert w(0.75) == w(0.75 - STEP_SLACK / 2) == 24.0
    assert w(0.75 - RULER_END) < 24.0


def test_cox_default_tolerance_is_the_library_default(tmp_path, capsys):
    """`cox … involution` without --tolerance passes exactly when
    check_involution passes with its default; the rule g with g(0) = 1
    and g(1) = e has residual e at 0."""
    for e in (CHECK_TOLERANCE / 2, 2 * CHECK_TOLERANCE):
        path = tmp_path / "rule.csv"
        path.write_text(f"0,1\n1,{e!r}\n")
        report = check_involution(from_samples_unary([(0.0, 1.0), (1.0, e)]))
        assert report.max_residual == pytest.approx(e)
        assert main(["cox", str(path), "involution"]) == (0 if report.passed else 1)
        assert report.passed is (e < CHECK_TOLERANCE)
        capsys.readouterr()


# The ruler walk, its inverse, the diagonal bisection and the associativity
# check against plain references: the walk as documented, and the code the
# level-0 table, the one step a level, the early end and the table replaced.

CSV_GRID = (0.0, 0.0995, 0.1065, 0.4663, 0.5073, 0.6321, 0.7302, 0.947, 1.0)  # sumprod.csv, gen --seed 7


def _sampled(fn, xs):
    return from_samples_binary([(x, y, fn(x, y)) for x in xs for y in xs])


def _csv_sumprod():
    """The sample rule of the numeric workload's sumprod.csv (bench/gen.py --seed 7)."""
    return _sampled(lambda x, y: x + y + x * y, CSV_GRID)


WALK_RULES = {"sumprod": builtin("sumprod"), "sum": builtin("sum"), "sumprod.csv": _csv_sumprod()}


def _old_bisect_diagonal(f, target, lo, hi):
    """_bisect_diagonal before its early end: always 80 halvings."""
    a, b = lo, hi
    for _ in range(80):
        mid = 0.5 * (a + b)
        if f(mid, mid) < target:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _ruler(rule):
    """The ticks regraduate walks with: the anchor, then halvings towards lo."""
    ticks = [_linspace(rule.lo, rule.hi, GRID_SIZE)[1]]
    while ticks[-1] - rule.lo > RULER_END * max(1.0, rule.hi - rule.lo) and len(ticks) < 60:
        ticks.append(_old_bisect_diagonal(rule, ticks[-1], rule.lo, ticks[-1]))
    return ticks


def _ruler_walk(rule, ticks, x, finer_steps):
    """The greedy ruler walk of x in plain Python: up to 10,000 steps at
    level 0 and finer_steps at each level after it, each landing in
    (position, x + STEP_SLACK].  Returns what w(x) gives, a float or
    ("escape", value) for the DomainEscape it raises: at x outside the
    domain, or, for a sample rule, at the first position past it, where
    the rule's guard fires on the next step; then the end of the walk and
    whether a level after 0 took two steps.  finer_steps=1 is w's walk
    now; 10,000 is the walk w took before, which took steps while they fit."""
    edge = rule.hi + DOMAIN_SLACK
    if x < rule.lo - DOMAIN_SLACK or x > edge:
        return ("escape", x), None, False
    total, position, doubled, crossed = 0.0, rule.lo, False, None
    for level, tick in enumerate(ticks):
        for taken in range(10_000 if level == 0 else finer_steps):
            step = float(rule.fn(position, tick))
            if step > x + STEP_SLACK or step <= position:
                break
            position, total = step, total + 0.5 ** level
            doubled |= level > 0 and taken == 1
            if crossed is None and position > edge and not rule.total:
                crossed = position
    return (total if crossed is None else ("escape", crossed)), position, doubled


def _outcome(w, x):
    try:
        return w(x)
    except DomainEscape as err:
        return ("escape", err.x)


@pytest.mark.parametrize("name", WALK_RULES)
def test_inverse_replays_the_walk_of_w(name):
    """w⁻¹(w(x)) is the end of the walk that measured x, so it never lies
    past x + STEP_SLACK, where the walk stops.  The walk once took two
    steps at a level where the replay took one at the level above, and
    for sumprod ended past that at some x."""
    rule = WALK_RULES[name]
    result, ticks = regraduate(rule), _ruler(rule)
    for x in np.random.default_rng(1).uniform(rule.lo, rule.hi, 2000).tolist():
        expected, end, _ = _ruler_walk(rule, ticks, x, 1)
        back = result.inverse(result.w(x))
        assert back <= x + STEP_SLACK, x
        assert (result.w(x), back) == (expected, end), x


@pytest.mark.parametrize("name", WALK_RULES)
def test_w_is_the_old_walk_but_where_it_took_two_steps_at_a_level(name):
    """Against the walk w took before, w agrees bit for bit wherever that
    walk took at most one step at each level after level 0, and by 2.3e-13
    where it took two (one step a level then goes on at finer levels)."""
    rule = WALK_RULES[name]
    w, ticks = regraduate(rule).w, _ruler(rule)
    doubled_at = []
    for x in np.random.default_rng(2).uniform(rule.lo, rule.hi, 2000).tolist():
        old, _, doubled = _ruler_walk(rule, ticks, x, 10_000)
        if doubled:
            doubled_at.append(x)
            assert abs(w(x) - old) <= 2.3e-13, x
        else:
            assert w(x) == old, x
    assert (len(doubled_at) > 0) is (name != "sum")  # sum's ticks halve exactly


@pytest.mark.parametrize("name", WALK_RULES)
def test_bisect_diagonal_ends_early_on_the_same_float(name):
    rule = WALK_RULES[name]
    rng = np.random.default_rng(3)
    for hi in (rule.hi, _ruler(rule)[0], 1e-9):
        for target in rng.uniform(rule.lo, hi, 50).tolist() + [rule.lo, hi]:
            assert bits(funceq._bisect_diagonal(rule, target, rule.lo, hi)) == \
                bits(_old_bisect_diagonal(rule, target, rule.lo, hi))


# Sample rules on [0, h] whose walk reaches past hi + DOMAIN_SLACK at some x
# within STEP_SLACK below that edge; on [0, 1.0936] the old walk got there
# by taking two steps at one level.
EDGE_RULES = {"sumprod.csv": _csv_sumprod(),
              "sum on [0, 0.9452]": _sampled(lambda x, y: x + y, [0.9452 * k / 8 for k in range(9)]),
              "x + y + xy/2 on [0, 0.9081]": _sampled(lambda x, y: x + y + x * y / 2,
                                                      [0.9081 * k / 8 for k in range(9)]),
              "x + y + xy/2 on [0, 1.0936]": _sampled(lambda x, y: x + y + x * y / 2,
                                                      [1.0936 * k / 8 for k in range(9)])}


@pytest.mark.parametrize("name", EDGE_RULES)
def test_w_refuses_where_its_walk_passes_the_domain(name):
    """Near hi + DOMAIN_SLACK, w of a sample rule raises DomainEscape at
    the first position its walk puts past that edge, which is where the
    old walk raised too, unless the old walk took two steps at a level
    there; just past the edge w refuses x itself."""
    rule = EDGE_RULES[name]
    w, ticks = regraduate(rule).w, _ruler(rule)
    edge = rule.hi + DOMAIN_SLACK
    below = [edge]  # every float within STEP_SLACK below the edge, and one more
    while edge - below[-1] < STEP_SLACK:
        below.append(math.nextafter(below[-1], -math.inf))
    xs = [math.nextafter(edge, math.inf), *below, edge - 4 * STEP_SLACK]
    found = []
    for x in xs:
        expected, _, _ = _ruler_walk(rule, ticks, x, 1)
        old, _, doubled = _ruler_walk(rule, ticks, x, 10_000)
        found.append(_outcome(w, x))
        assert found[-1] == expected, x
        assert found[-1] == old or doubled, x
    assert found[0] == ("escape", xs[0]) and not isinstance(found[-1], tuple)
    assert any(isinstance(f, tuple) for f in found[1:]) is (name != "sumprod.csv")


def _old_unmeasure(rule, ticks, t):
    """w⁻¹ before the level-0 table: at each level, steps while the weight
    stays within t and the position within hi."""
    total, position = 0.0, rule.lo
    for level, tick in enumerate(ticks):
        weight = 0.5 ** level
        while total + weight <= t:
            step = rule(position, tick)
            if step > rule.hi or step <= position:
                break
            position, total = step, total + weight
    return position


@pytest.mark.parametrize("name", {**WALK_RULES, **EDGE_RULES})
def test_inverse_keeps_its_ends(name):
    """w⁻¹ at 0, below 0, at NaN, at +inf and just past w(hi) is what it
    was: lo for the first three, and the walk to hi for the others."""
    rule = {**WALK_RULES, **EDGE_RULES}[name]
    result, ticks = regraduate(rule), _ruler(rule)
    top = result.w(rule.hi)
    for t in (0.0, -0.5, -math.inf, math.nan, math.inf, top + TOP_SLACK):
        assert bits(result.inverse(t)) == bits(_old_unmeasure(rule, ticks, t)), t
    assert result.inverse(math.nan) == result.inverse(-1.0) == rule.lo


def test_level_zero_stops_after_10000_steps():
    """A rule additive under expm1(9x) needs about 24,900 anchor steps to
    reach hi.  The walk stops after 10,000 at level 0, so w levels off
    below 10,001 (one step a level after it adds less than 1), and two
    points past the bound leave a residual of about 10^4.  (The walk that
    stepped on up to 10,000 times at every level left 4.940e+03.)"""
    rule = CoxFunction(arity=2, lo=0.0, hi=1.0, label="log-sum-exp",
                       fn=lambda x, y: math.log1p(math.expm1(9 * x) + math.expm1(9 * y)) / 9)
    with pytest.raises(NotRegraduable) as err:
        regraduate(rule)
    assert str(err.value) == "residual-too-large: 1.000e+04"


def _old_associativity(f, grid_size=GRID_SIZE):
    """check_associativity before its table: f(x, y), then f(xy, z), f(y, z)
    and f(x, yz) for each z, every call guarded."""
    grid = _linspace(f.lo, f.hi, grid_size)
    worst, worst_triple, evaluated, skipped = -1.0, None, 0, 0
    for x in grid:
        for y in grid:
            try:
                xy = f(x, y)
            except DomainEscape:
                skipped += len(grid)
                continue
            for z in grid:
                try:
                    lhs = f(xy, z)
                    rhs = f(x, f(y, z))
                except DomainEscape:
                    skipped += 1
                    continue
                evaluated += 1
                if abs(lhs - rhs) > worst:
                    worst, worst_triple = abs(lhs - rhs), (x, y, z)
    if skipped > evaluated:
        raise TooManySkips(skipped, evaluated)
    return max(worst, 0.0), worst_triple, evaluated, skipped


def _hypot_samples():
    grid = [k / 4 for k in range(9)]
    return _sampled(lambda x, y: (x * x + y * y) ** 0.5, grid)


def _wide_conjugate():
    """The sumprod conjugate's formula on all of [0, 1], where it refuses
    w-sums past w(1) by itself, though it is total."""
    rule = additive_conjugate(regraduate(builtin("sumprod")))
    return CoxFunction(arity=2, lo=0.0, hi=1.0, fn=rule.fn, label="wide conjugate")


@pytest.mark.parametrize("make, grid_size", [
    (lambda: builtin("sum"), GRID_SIZE), (lambda: builtin("sumprod"), GRID_SIZE),
    (lambda: builtin("max"), GRID_SIZE), (_hypot_samples, 9), (_csv_sumprod, GRID_SIZE),
    (lambda: additive_conjugate(regraduate(builtin("sumprod"))), 9), (_wide_conjugate, 9),
    (lambda: CoxFunction(arity=2, lo=0.0, hi=1.0, fn=lambda x, y: x + y * y), 9),
    (lambda: _sampled(lambda x, y: x + y + x * y / 2, [k / 4 for k in range(9)]), 9),
])
def test_associativity_table_reports_what_the_triple_loop_did(make, grid_size):
    """Field by field, and TooManySkips with the same counts."""
    rule = make()
    try:
        expected = _old_associativity(rule, grid_size)
    except TooManySkips as err:
        with pytest.raises(TooManySkips) as found:
            check_associativity(rule, grid_size=grid_size)
        assert (found.value.skipped, found.value.evaluated) == (err.skipped, err.evaluated)
    else:
        report = check_associativity(rule, grid_size=grid_size)
        assert (report.max_residual, report.worst_triple, report.evaluated, report.skipped) == expected


# One domain test, CoxFunction.outside, under the guard, the involution's
# range test and w's guard: a NaN lies outside, as it fails every bound.

def test_outside_holds_nan_and_the_slack():
    rule = builtin("sumprod")
    assert rule.outside(math.nan) and rule.outside(1 + 2 * DOMAIN_SLACK)
    assert not rule.outside(1 + DOMAIN_SLACK / 2) and not rule.outside(-DOMAIN_SLACK / 2)
    assert not rule.escapes(math.nan)  # a total rule's guard refuses nothing


def test_w_of_nan_escapes():
    """w(nan) read 22.0, the whole level-0 table, before NaN lay outside."""
    with pytest.raises(DomainEscape):
        regraduate(builtin("sumprod")).w(math.nan)


def test_sample_rule_called_with_nan_escapes():
    with pytest.raises(DomainEscape):
        from_samples_unary([(0, 1), (1, 0)])(math.nan)
    with pytest.raises(DomainEscape):
        _csv_sumprod()(0.5, math.nan)


def test_involution_of_a_rule_that_returns_nan_escapes():
    """A total rule's NaN value is outside the interval, so the check
    refuses it instead of skipping the point in silence."""
    rule = CoxFunction(arity=1, lo=0.0, hi=1.0, fn=lambda x: math.nan if x == 0.5 else 1 - x)
    with pytest.raises(DomainEscape) as err:
        check_involution(rule)
    assert err.value.x == 0.5


def _counted(rule):
    """rule with a formula that records each call's arguments."""
    calls = []

    def fn(*args):
        calls.append(args)
        return rule.fn(*args)

    return CoxFunction(arity=rule.arity, lo=rule.lo, hi=rule.hi, fn=fn, total=rule.total,
                       label=rule.label), calls


@pytest.mark.parametrize("make, total", [(lambda: builtin("sumprod"), 11_695), (_csv_sumprod, 13_963)])
def test_regraduation_reads_the_grid_once(make, total):
    """One grid × grid table serves the monotonicity scan, the additive
    zero and the residual loop: each grid pair is called once, and only
    the level-0 walk's first two steps, f(lo, x1) and f(x1, x1), land on
    grid pairs again.  Three passes over the grid and a call of f(lo, lo)
    apart made 3,270 calls at grid pairs (16,142 in all for the sample
    rule, 13,874 for sumprod)."""
    rule, calls = _counted(make())
    result = regraduate(rule)
    assert len(calls) == total
    grid = result.grid
    on_grid = [args for args in calls if set(args) <= set(grid)]
    assert len(on_grid) == GRID_SIZE ** 2 + 2
    assert set(on_grid) == {(x, y) for x in grid for y in grid}
    assert on_grid.count(grid[:2]) == on_grid.count((grid[1], grid[1])) == 2


def test_a_nan_residual_is_the_worst_and_stays():
    """A NaN residual fails `residual > worst`; it read as a pass with the
    largest finite residual before, and now fails with max_residual NaN."""
    add = CoxFunction(arity=2, lo=0.0, hi=1.0, fn=lambda x, y: math.nan if x == y == 0.5 else x + y)
    report = check_associativity(add, grid_size=9)
    assert not report.passed and math.isnan(report.max_residual)
    assert report.evaluated == 729 and report.skipped == 0
    assert report.worst_triple == (0.0, 0.5, 0.5)   # the first, in grid order
    # g(0) = 0.995 lies between grid points, where g is NaN: g(g(0)) is NaN
    g = CoxFunction(arity=1, lo=0.0, hi=1.0,
                    fn=lambda x: 0.995 if x == 0 else math.nan if 0.99 < x < 1 else 1 - x)
    report = check_involution(g)
    assert not report.passed and math.isnan(report.max_residual) and report.worst_x == 0.0
