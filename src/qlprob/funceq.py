"""Functional-equation checks for combination rules, and regraduation.

The probability calculus rests on two equations: a negation rule g with
g(g(x)) = x, and an associative combination rule f(x,y) for joining
orthogonal events.  Associative strictly-monotone rules are additive in
disguise: there is a strictly increasing w with w(f(x,y)) = w(x)+w(y),
unique up to a positive factor.  regraduate constructs that w directly
with a dyadic ruler: it anchors w = 1 at the first interior grid point,
repeatedly solves f(t,t) = previous t to halve the unit, then measures
any x with the resulting graduations: greedily with the unit, read off
one table of its multiples, then at most one step of each finer one, so
w(x)'s binary digits name the walk and w⁻¹ replays them.  Each halving
is a bisection on the diagonal, so the construction is limited by float
precision rather than by any interpolation grid, and the residuals on
closed-form rules come out near 1e-11.

Functions built from closed forms are marked total and are evaluated
wherever composition asks; sample-defined functions raise DomainEscape
outside their data range, and associativity triples that escape are
skipped and counted instead.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Callable

from .core import Record, Refusal

# Float tolerances, each an absolute bound on one kind of difference (README).
DOMAIN_SLACK = 1e-12  # a point this far outside [lo, hi] is inside
CHECK_TOLERANCE = 1e-9  # default bound on an involution or associativity residual
ZERO_SLACK = 1e-9  # |f(lo, lo) − lo| up to this is an additive zero
TOP_SLACK = 1e-9  # a w-sum this far past w(hi) still maps back, to at most hi
STEP_SLACK = 1e-15  # a ruler step this far past x still counts toward w(x)
RULER_END = 1e-14  # halving stops at a tick this close to lo, times max(1, hi − lo)
RESIDUAL_LIMIT = 1e-6  # the largest additivity residual a regraduation may keep
MEASURE_CACHE = 1024  # w values kept; regraduate uses 198–252, its conjugate's 33³ check 789
GRID_SIZE = 33  # points per axis of the involution, associativity and regraduation grids


class DomainEscape(Refusal):
    def __init__(self, x):
        self.x = x
        super().__init__(f"value {x} escapes the declared domain")


class TooManySkips(Refusal):
    def __init__(self, skipped: int, evaluated: int):
        self.skipped = skipped
        self.evaluated = evaluated
        super().__init__(
            f"{skipped} of {skipped + evaluated} triples escaped the domain"
        )


class NotRegraduable(Exception):
    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class CoxFunction(Record):
    """A unary or binary rule on [lo, hi].

    total means the underlying formula evaluates anywhere, so
    compositions may leave the interval without harm; a sample-backed
    rule is not total and raises DomainEscape outside its data."""

    arity: int
    lo: float
    hi: float
    fn: Callable
    total: bool = True
    label: str = ""

    def __call__(self, *args: float) -> float:
        if len(args) != self.arity:
            raise TypeError(f"{self.label or 'rule'} takes {self.arity} arguments")
        for a in filter(self.escapes, args):
            raise DomainEscape(a)
        return float(self.fn(*args))

    def outside(self, a: float) -> bool:
        """Whether a lies outside [lo, hi] by more than DOMAIN_SLACK; a NaN does."""
        return not self.lo - DOMAIN_SLACK <= a <= self.hi + DOMAIN_SLACK

    def escapes(self, a: float) -> bool:
        """Whether the guard refuses a: never for a total rule."""
        return not self.total and self.outside(a)


_BUILTINS: dict[str, tuple[int, Callable]] = {
    "sum": (2, lambda x, y: x + y),
    "sumprod": (2, lambda x, y: x + y + x * y),
    "max": (2, max),
    "one-minus": (1, lambda x: 1 - x),
    "identity": (1, lambda x: x),
    "square": (1, lambda x: x * x),
}


def builtin(name: str) -> CoxFunction:
    """The named closed-form rule on [0, 1]."""
    if name not in _BUILTINS:
        known = ", ".join(sorted(_BUILTINS))
        raise ValueError(f"unknown rule {name!r}; built in: {known}")
    arity, fn = _BUILTINS[name]
    return CoxFunction(arity=arity, lo=0.0, hi=1.0, fn=fn, total=True, label=name)


def _formula(f: CoxFunction) -> Callable:
    """f as a binary call without the domain guard, read as a float as
    f(x, y) reads it; for the callers whose arguments the guard passes."""
    fn = f.fn
    return lambda x, y: float(fn(x, y))


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """np.linspace(lo, hi, n) in plain floats, bit for bit."""
    return [i * ((hi - lo) / (n - 1)) + lo for i in range(n - 1)] + [float(hi)] if n > 1 else [float(lo)] * n


def _interp(x: float, xs: list[float], ys: list[float]) -> float:
    """np.interp(x, xs, ys) at one point, bit for bit."""
    j = bisect_right(xs, x) - 1
    if x != x or j < 0 or j == len(xs) - 1 or xs[j] == x:  # NaN, past an end, or a knot
        return x if x != x else ys[max(j, 0)]
    return (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) * (x - xs[j]) + ys[j]


def _finite(points: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """The samples, unless one holds a NaN or an infinity (a ValueError)."""
    for point in points:
        if not all(map(math.isfinite, point)):
            raise ValueError(f"sample {point} is not finite")
    return points


def from_samples_unary(points) -> CoxFunction:
    """Piecewise-linear rule through finite (x, g(x)) samples, on their x range."""
    pts = sorted(_finite([(float(x), float(y)) for x, y in points]))
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    if len(xs) < 2 or any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("need at least two samples with distinct increasing x")
    return CoxFunction(arity=1, lo=xs[0], hi=xs[-1], fn=lambda x: _interp(x, xs, ys),
                       total=False, label="samples")


def from_samples_binary(points) -> CoxFunction:
    """Bilinear rule through finite (x, y, f(x,y)) samples on a full grid,
    on the range of both coordinates."""
    points = _finite([(float(x), float(y), float(v)) for x, y, v in points])
    xs = sorted({x for x, _, _ in points})
    ys = sorted({y for _, y, _ in points})
    table = {(x, y): v for x, y, v in points}
    if len(xs) < 2 or len(ys) < 2:
        raise ValueError("need samples at two or more distinct x and two or more distinct y")
    if len(points) != len(xs) * len(ys) or len(table) != len(points):
        raise ValueError("samples must cover a full rectangular grid, each point once")
    grid = [[table[(x, y)] for y in ys] for x in xs]

    def interp(x, y):
        i = min(max(bisect_left(xs, x) - 1, 0), len(xs) - 2)
        j = min(max(bisect_left(ys, y) - 1, 0), len(ys) - 2)
        tx = (x - xs[i]) / (xs[i + 1] - xs[i])
        ty = (y - ys[j]) / (ys[j + 1] - ys[j])
        return (
            grid[i][j] * (1 - tx) * (1 - ty)
            + grid[i + 1][j] * tx * (1 - ty)
            + grid[i][j + 1] * (1 - tx) * ty
            + grid[i + 1][j + 1] * tx * ty
        )

    return CoxFunction(arity=2, lo=min(xs[0], ys[0]), hi=max(xs[-1], ys[-1]), fn=interp,
                       total=False, label="samples")


class InvolutionReport(Record):
    passed: bool
    max_residual: float
    worst_x: float
    identity: bool


def check_involution(g: CoxFunction, tolerance: float = CHECK_TOLERANCE) -> InvolutionReport:
    """Measure g(g(x)) − x on a uniform grid.  g must map the interval
    into itself; a point sent outside raises DomainEscape."""
    if g.arity != 1:
        raise TypeError("involution check needs a unary rule")
    grid = _linspace(g.lo, g.hi, GRID_SIZE)
    worst = -1.0
    worst_x = g.lo
    identity_gap = 0.0
    for x in grid:
        gx = g(x)
        if g.outside(gx):
            raise DomainEscape(x)
        residual = abs(g(gx) - x)
        identity_gap = max(identity_gap, abs(gx - x))
        if worst == worst and not residual <= worst:   # the first NaN is the worst, and stays
            worst = residual
            worst_x = x
    return InvolutionReport(
        passed=bool(worst <= tolerance),
        max_residual=float(worst),
        worst_x=worst_x,
        identity=bool(identity_gap <= tolerance),
    )


class AssociativityReport(Record):
    passed: bool
    max_residual: float
    worst_triple: tuple[float, float, float] | None
    evaluated: int
    skipped: int


def check_associativity(f: CoxFunction, grid_size: int = GRID_SIZE,
                        tolerance: float = CHECK_TOLERANCE) -> AssociativityReport:
    """Measure f(f(x,y),z) − f(x,f(y,z)) over the grid cube.  Triples a
    sample-backed rule cannot complete are skipped; more than half
    skipped aborts with TooManySkips.  f(x,y) and f(y,z) are both read
    from one grid × grid table of f, None where the value escapes."""
    if f.arity != 2:
        raise TypeError("associativity check needs a binary rule")
    grid, call = _linspace(f.lo, f.hi, grid_size), _formula(f)

    def entry(x, y):
        try:
            return None if f.escapes(value := call(x, y)) else value
        except DomainEscape:  # a total rule may refuse by itself, as the conjugate does
            return None

    table = [[entry(x, y) for y in grid] for x in grid]
    worst, worst_triple = -1.0, None
    evaluated = skipped = 0
    for x, row in zip(grid, table):
        for y, xy, y_row in zip(grid, row, table):
            if xy is None:
                skipped += len(grid)
                continue
            for z, yz in zip(grid, y_row):
                if yz is None:
                    skipped += 1
                    continue
                try:
                    lhs = call(xy, z)
                    rhs = call(x, yz)
                except DomainEscape:
                    skipped += 1
                    continue
                evaluated += 1
                residual = abs(lhs - rhs)
                if worst == worst and not residual <= worst:   # as in check_involution
                    worst = residual
                    worst_triple = (x, y, z)
    if skipped > evaluated:
        raise TooManySkips(skipped, evaluated)
    return AssociativityReport(
        passed=bool(0 <= worst <= tolerance),
        max_residual=float(max(worst, 0.0)),
        worst_triple=worst_triple,
        evaluated=evaluated,
        skipped=skipped,
    )


class RegraduationResult(Record):
    w: CoxFunction
    max_residual: float
    anchor: float
    grid: tuple[float, ...]
    values: tuple[float, ...]
    inverse: Callable[[float], float]  # w⁻¹ on [0, w(hi)], by ruler replay


def _bisect_diagonal(f: Callable, target: float, lo: float, hi: float) -> float:
    """Solve f(t, t) = target for t; the diagonal is strictly increasing
    once monotonicity passed.  A midpoint equal to an end is final."""
    a, b = lo, hi
    for _ in range(80):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return mid
        if f(mid, mid) < target:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def regraduate(f: CoxFunction, grid_size: int = GRID_SIZE) -> RegraduationResult:
    """Additive rescaling of an associative rule.

    Anchored at w(lo) = 0 and w(x1) = 1 for the first interior grid
    point x1.  Verifies strict monotonicity in each argument on the
    grid first, then requires f(lo, lo) = lo (no additive zero means no
    additive form on this interval), builds the dyadic ruler, and
    finally measures the worst additivity residual over all grid pairs
    whose f value stays inside the interval.  w walks the ruler: level 0
    from a table of the positions lo, f(lo, x1), …, then at most one step
    a level, so w⁻¹(t) replays the walk t's binary digits name, never past hi."""
    if f.arity != 2:
        raise TypeError("regraduation needs a binary rule")
    grid, call = _linspace(f.lo, f.hi, grid_size), _formula(f)
    table = [[call(x, y) for y in grid] for x in grid]  # f at every grid pair, once
    for j, y in enumerate(grid):
        for series in ([row[j] for row in table], table[j]):  # f(·, y), then f(y, ·)
            k = min(range(len(grid) - 1), key=lambda k: series[k + 1] - series[k])  # first minimum
            if series[k + 1] - series[k] <= 0:
                raise NotRegraduable("non-monotone", f"flat or decreasing near ({grid[k]:g}, {y:g})")
    if abs(table[0][0] - f.lo) > ZERO_SLACK:  # f(lo, lo)
        raise NotRegraduable("no-additive-zero", f"f({f.lo:g}, {f.lo:g}) = {table[0][0]:g}")

    anchor = grid[1]
    rulers = [anchor]
    while rulers[-1] - f.lo > RULER_END * max(1.0, f.hi - f.lo) and len(rulers) < 60:
        rulers.append(_bisect_diagonal(call, rulers[-1], f.lo, rulers[-1]))
    finer = [(tick, 0.5 ** level) for level, tick in enumerate(rulers) if level]
    edge = f.hi + DOMAIN_SLACK  # the top of w's domain
    level0 = [f.lo]  # the unit's multiples: at most 10,000, up to the reach of the largest x
    while len(level0) <= 10_000 and level0[-1] < (step := call(level0[-1], anchor)) <= edge + STEP_SLACK:
        level0.append(step)
    below_hi = bisect_right(level0, f.hi, 1) - 1

    def walk(count, reach, budget):
        """From level-0 step count, one step a level in (position, reach] within budget."""
        total, position = float(count), level0[count]
        for tick, weight in finer:
            if total + weight <= budget:
                step = call(position, tick)
                if position < step <= reach:
                    total, position = total + weight, step
        return total, position

    @lru_cache(maxsize=MEASURE_CACHE)
    def measure(x: float) -> float:
        if f.outside(x):  # w's guard, on f's interval
            raise DomainEscape(x)
        reach = x + STEP_SLACK
        total, position = walk(bisect_right(level0, reach, 1) - 1, reach, math.inf)
        if f.escapes(position):  # the walk left a sample rule's domain: it had no next step
            raise DomainEscape(position)
        return total

    def unmeasure(t: float) -> float:
        count = below_hi if t >= below_hi else int(t) if t >= 0 else 0  # NaN counts 0
        return walk(count, f.hi, t)[1]

    w = CoxFunction(
        arity=1, lo=f.lo, hi=f.hi, fn=measure, total=False,
        label=f"regraduation of {f.label or 'rule'}",
    )
    residual = 0.0
    for x, row in zip(grid, table):
        for y, value in zip(grid, row):
            if value > edge:
                continue
            residual = max(residual, abs(measure(value) - measure(x) - measure(y)))
    if residual > RESIDUAL_LIMIT:
        raise NotRegraduable("residual-too-large", f"{residual:.3e}")
    return RegraduationResult(
        w=w,
        max_residual=float(residual),
        anchor=float(anchor),
        grid=tuple(float(x) for x in grid),
        values=tuple(measure(x) for x in grid),
        inverse=unmeasure,
    )


def additive_conjugate(result: RegraduationResult) -> CoxFunction:
    """The rule w⁻¹(w(x) + w(y)).

    The declared interval is shrunk to a third of the w-range so grid
    triples always compose; intermediates may exceed the declared hi
    and are legal, so the rule itself guards the one real limit: a
    w-sum past w(hi) has no preimage and raises DomainEscape."""
    w, inverse = result.w, result.inverse
    measure, top = w.fn, w(w.hi)  # measure guards the domain as w does
    hi = inverse(top / 3)

    def rule(x, y):
        total = measure(x) + measure(y)
        if total > top + TOP_SLACK:
            raise DomainEscape(total)
        return inverse(total)

    return CoxFunction(
        arity=2, lo=w.lo, hi=hi, fn=rule, total=True,
        label="additive conjugate",
    )
