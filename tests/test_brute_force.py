"""Meets and joins, NotALattice reports, the covers, the
join-irreducibles, the join-prime test and the distributive and modular
checks against plain reference scans, on random lattices and on random
bounded posets that are mostly not lattices, each declared both in
shuffled order and in a linear extension; and the order that
build_poset closes, its cycle and bound reports and the order-reversal
check of a negation, against the dense-matrix code they replaced; and
attach_ortho's one complement-law scan against the join and meet scans
it replaced, on self-dual sums with random order-reversing involutions;
and the state polytope's vertices against the basis enumeration; and
is_state against the full additivity system it used to build.

The references are the bound search and the triple scans as they were
before the decide-first tests: every pair's extremal bounds, and every
triple of the law, in index order; and the covers, join-irreducibles
and join-primes as extremal members of cones, as they were found before
the linear extension.  The order references are the
closure by n outer products and the all-pairs reversal test.  The
vertex reference solves the square subsystem of every choice of
rank-many atoms, as extreme_states did before double description.  The
state-check reference is build_state_system's deduplicated rows, each
residual summed by Row.residual, as is_state checked before it walked
the orthogonal pairs."""

import functools
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qlprob import builders, core, hilbert
from qlprob.classify import (
    _join_irreducibles,
    _join_primes,
    check_distributive,
    check_modular,
    classify,
)
from qlprob.cli import load_source
from qlprob.core import (
    ComplementLawFails,
    CycleDetected,
    NotALattice,
    NotBounded,
    NotOrderReversing,
    _build_negation,
    attach_ortho,
    build_poset,
    extremal,
    lattice_check,
)
from qlprob.io import lattice_from_document, parse_lattice
from qlprob.states import (
    FLOAT_TOLERANCE, Valuation, _atom_system, _rref, build_state_system, extreme_states, is_state,
)
from tests.conftest import DATA, greechie_text, petersen_blocks, two_plane_seeds


def reference_tables(poset):
    """The pairwise extremal-bound search: (meet table, join table), or
    NotALattice at the first pair in index order without a unique bound."""
    n, names = poset.n, poset.names
    meet_t = np.zeros((n, n), dtype=np.int32)
    join_t = np.zeros((n, n), dtype=np.int32)
    for a in range(n):
        for b in range(a, n):
            maximal = extremal(poset.down[a] & poset.down[b], poset.up)
            minimal = extremal(poset.up[a] & poset.up[b], poset.down)
            if len(maximal) != 1 or len(minimal) != 1:
                kind, found = ("meet", maximal) if len(maximal) != 1 else ("join", minimal)
                raise NotALattice((names[a], names[b]), [names[m] for m in found], kind)
            meet_t[a, b] = meet_t[b, a] = maximal[0]
            join_t[a, b] = join_t[b, a] = minimal[0]
    return meet_t.tolist(), join_t.tolist()


def reference_covers(poset):
    """Each element's upper covers, the minimal members of its strict up-set."""
    return tuple((a, b) for a in range(poset.n)
                 for b in extremal(poset.up[a] ^ 1 << a, poset.down))


def reference_join_irreducibles(poset):
    """The elements whose strict down-set has exactly one maximal member."""
    return [j for j in range(poset.n) if len(extremal(poset.down[j] ^ 1 << j, poset.up)) == 1]


def reference_join_primes(poset):
    """For every join-irreducible j, the elements not above j have
    exactly one maximal member."""
    everything = (1 << poset.n) - 1
    return all(len(extremal(everything ^ poset.up[j], poset.up)) == 1
               for j in reference_join_irreducibles(poset))


def reference_distributive(lattice):
    meet, join = lattice.meet, lattice.join
    for x, y, z in product(range(lattice.n), repeat=3):
        if meet(x, join(y, z)) != join(meet(x, y), meet(x, z)):
            return ("distributive", (x, y, z))
    return None


def reference_modular(lattice):
    meet, join, le = lattice.meet, lattice.join, lattice.le
    for x, a, b in product(range(lattice.n), repeat=3):
        if le(x, b) and join(x, meet(a, b)) != meet(join(x, a), b):
            return ("modular", (x, a, b))
    return None


def poset_from_order(elements, le, rng):
    """A Poset on the elements under the order le, with the elements
    in shuffled index order and named by their shuffled position."""
    elements = [elements[i] for i in rng.permutation(len(elements))]
    names = [f"e{i}" for i in range(len(elements))]
    pairs = [(names[i], names[j]) for i, x in enumerate(elements)
             for j, y in enumerate(elements) if x != y and le(x, y)]
    return build_poset(names, pairs)


@st.composite
def union_closed(draw):
    """The union closure of random subsets of a 5-set, with the empty set."""
    seeds = draw(st.lists(st.integers(1, 31), min_size=1, max_size=7))
    family = {0, *seeds}
    while True:
        grown = family | {s | t for s in family for t in family}
        if grown == family:
            break
        family = grown
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return poset_from_order(sorted(family), lambda s, t: s & t == s, rng)


@st.composite
def dedekind_macneille(draw):
    """The Dedekind-MacNeille completion of a random poset: intersections
    of its principal down-sets, with the whole set, ordered by inclusion."""
    m = draw(st.integers(2, 6))
    edges = draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
                         .filter(lambda e: e[0] < e[1])))
    below = np.eye(m, dtype=bool)
    for i, j in edges:
        below[i, j] = True
    for k in range(m):
        below |= np.outer(below[:, k], below[k, :])
    ideals = {frozenset(np.flatnonzero(below[:, p]).tolist()) for p in range(m)}
    family = {frozenset(range(m))} | ideals
    while True:
        grown = family | {s & t for s in family for t in family}
        if grown == family:
            break
        family = grown
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return poset_from_order(sorted(family, key=sorted), lambda s, t: s <= t, rng)


N5 = ("0", "a", "b", "c", "1"), {("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")}
M3 = ("0", "x", "y", "z", "1"), {("0", "x"), ("0", "y"), ("0", "z"),
                                 ("x", "1"), ("y", "1"), ("z", "1")}


def _small_le(small):
    elements, covers = small
    le = {(x, x) for x in elements} | covers
    le |= {(lo, "1") for lo in elements} | {("0", hi) for hi in elements}
    return lambda x, y: (x, y) in le


def _subset(s, t):
    return s & t == s


@st.composite
def glued(draw):
    """N5 or M3 with a Boolean lattice 2^k: their product, or the glued
    sum that stacks one on the other, the lower top being the upper
    bottom."""
    small = draw(st.sampled_from([N5, M3]))
    small_le = _small_le(small)
    cube = list(range(1 << draw(st.integers(0, 3))))
    mode = draw(st.sampled_from(["product", "small-on-top", "small-below"]))
    if mode == "product":
        elements = [(x, s) for x in small[0] for s in cube]
        le = lambda p, q: small_le(p[0], q[0]) and _subset(p[1], q[1])  # noqa: E731
    else:
        levels = [(cube, _subset), (list(small[0]), small_le)]
        if mode == "small-below":
            levels.reverse()
        (lower, _), (upper, _) = levels
        # elements are (level, member); upper[0] is the upper bottom, left out
        elements = [(0, x) for x in lower] + [(1, y) for y in upper[1:]]
        le = lambda p, q: p[0] < q[0] or (  # noqa: E731
            p[0] == q[0] and levels[p[0]][1](p[1], q[1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return poset_from_order(elements, le, rng)


@st.composite
def bounded_dag(draw):
    """A random DAG on 8 to 12 inner points between a bottom and a top;
    about two in three are not lattices."""
    m = draw(st.integers(8, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.35, 0.5]))
    edges = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < density]
    names = ["bot", *(f"p{i}" for i in range(m)), "top"]
    pairs = [("bot", f"p{i}") for i in range(m)] + [(f"p{i}", "top") for i in range(m)]
    pairs += [(f"p{i}", f"p{j}") for i, j in edges]
    return build_poset([names[i] for i in rng.permutation(m + 2)], pairs)


def in_extension(poset):
    """The same order re-declared with its elements in a linear
    extension, so that Poset.extension keeps index order."""
    order = sorted(range(poset.n), key=lambda e: poset.down[e].bit_count())
    names = poset.names
    redeclared = build_poset([names[e] for e in order],
                             [(names[a], names[b]) for a, b in reference_covers(poset)])
    assert redeclared.extension[0] == range(poset.n)
    return redeclared


def assert_agrees(poset):
    """The covers, join-irreducibles, lattice_check, the join-prime test
    and the two law checks equal the references."""
    assert poset.covers == reference_covers(poset)
    assert _join_irreducibles(poset) == reference_join_irreducibles(poset)
    try:
        want = reference_tables(poset)
    except NotALattice as exc:
        with pytest.raises(NotALattice) as got:
            lattice_check(poset)
        assert (got.value.pair, got.value.kind, got.value.witnesses) == \
            (exc.pair, exc.kind, exc.witnesses)
        assert str(got.value) == str(exc)
        return "not a lattice"
    lattice = lattice_check(poset)
    assert _join_primes(lattice) == reference_join_primes(poset)
    assert [[lattice.meet(a, b) for b in range(poset.n)] for a in range(poset.n)] == want[0]
    assert [[lattice.join(a, b) for b in range(poset.n)] for a in range(poset.n)] == want[1]
    dist, mod = check_distributive(lattice), check_modular(lattice)
    assert (dist and tuple(dist)) == reference_distributive(lattice)
    assert (mod and tuple(mod)) == reference_modular(lattice)
    return "distributive" if dist is None else "modular" if mod is None else "not modular"


@settings(max_examples=150, deadline=None)
@given(poset=st.one_of(union_closed(), dedekind_macneille(), glued()))
def test_lattices_agree_with_the_reference_scans(poset):
    assert assert_agrees(poset) == assert_agrees(in_extension(poset))


@settings(max_examples=150, deadline=None)
@given(poset=bounded_dag())
def test_bounded_posets_agree_with_the_reference_scans(poset):
    assert assert_agrees(poset) == assert_agrees(in_extension(poset))


def test_index_order_extensions_are_never_transposed(monkeypatch):
    """Builders, and a .lat declared bottom-up, keep index order as their
    linear extension: classifying them never relabels the cones.  A chain
    declared top-down does relabel them."""
    def refuse(rows, n):
        raise AssertionError("cones transposed")

    monkeypatch.setattr(core, "_transpose", refuse)
    for lattice in (builders.powerset(6), builders.mo(8),
                    lattice_from_document(parse_lattice((DATA / "petersen.lat").read_text()))):
        classify(lattice)
        assert lattice.extension[0] == range(lattice.n)
    with pytest.raises(AssertionError, match="cones transposed"):
        lattice_check(build_poset(["c2", "c1", "c0"], [("c0", "c1"), ("c1", "c2")]))


def test_every_outcome_is_reached():
    """Fixed members of the families above reach each of the four
    outcomes, so the random tests cannot pass on one kind alone."""
    rng = np.random.default_rng(0)
    bowtie = build_poset(["0", "p", "q", "x", "y", "1"],
                         [("0", "p"), ("0", "q"), ("p", "x"), ("p", "y"),
                          ("q", "x"), ("q", "y"), ("x", "1"), ("y", "1")])
    chain = poset_from_order([0, 1, 2], lambda s, t: s <= t, rng)
    m3 = poset_from_order(list(M3[0]), _small_le(M3), rng)
    n5 = poset_from_order(list(N5[0]), _small_le(N5), rng)
    outcomes = [assert_agrees(p) for p in (bowtie, chain, m3, n5)]
    assert outcomes == ["not a lattice", "distributive", "modular", "not modular"]


def _not_a_lattice(names, covers):
    """The poset and the NotALattice lattice_check raises on it, once
    assert_agrees has matched the error with reference_tables."""
    poset = build_poset(names, covers)
    assert assert_agrees(poset) == "not a lattice"
    with pytest.raises(NotALattice) as info:
        lattice_check(poset)
    return poset, info.value


def _cover_a_common_element(poset, pair):
    a, b = (poset.index[name] for name in pair)
    return any((lo, a) in poset.covers and (lo, b) in poset.covers for lo in range(poset.n))


def _has_join(poset, pair):
    a, b = (poset.index[name] for name in pair)
    return len(extremal(poset.up[a] & poset.up[b], poset.down)) == 1


def test_the_first_failing_pair_need_not_cover_a_common_element():
    """Only the cover pair (p, q) fails the join test, but the first pair
    in index order without a bound is (x1, y): x1 covers x alone."""
    poset, error = _not_a_lattice(
        ["x1", "y", "0", "p", "q", "x", "1"],
        [("0", "p"), ("0", "q"), ("p", "x"), ("q", "x"), ("p", "y"), ("q", "y"),
         ("x", "x1"), ("x1", "1"), ("y", "1")])
    assert (error.pair, error.kind, error.witnesses) == (("x1", "y"), "meet", ("p", "q"))
    assert not _cover_a_common_element(poset, error.pair)
    assert _cover_a_common_element(poset, ("p", "q")) and not _has_join(poset, ("p", "q"))


def test_the_first_failing_pair_may_fail_its_meet_alone():
    """The bowtie declared top first: the cover test finds the join of p
    and q missing, and the report names the meet of x and y, which have
    a join."""
    poset, error = _not_a_lattice(
        ["x", "y", "0", "p", "q", "1"],
        [("0", "p"), ("0", "q"), ("p", "x"), ("p", "y"), ("q", "x"), ("q", "y"),
         ("x", "1"), ("y", "1")])
    assert (error.pair, error.kind, error.witnesses) == (("x", "y"), "meet", ("p", "q"))
    assert _has_join(poset, error.pair)


def test_one_cover_pair_without_a_join_among_many():
    """The bottom has eight upper covers; of their 28 pairs only a5 and
    a7, both below u and v, lack a join."""
    atoms = [f"a{i}" for i in range(1, 9)]
    covers = [("0", a) for a in atoms] + [("u", "1"), ("v", "1")]
    covers += [(a, top) for a in atoms for top in (("u", "v") if a in ("a5", "a7") else ("1",))]
    poset, error = _not_a_lattice(["0", *atoms, "u", "v", "1"], covers)
    assert (error.pair, error.kind, error.witnesses) == (("a5", "a7"), "join", ("u", "v"))
    assert sum(_has_join(poset, pair) for pair in combinations(atoms, 2)) == 27


def reference_order(names, pairs):
    """The closure as build_poset computed it before: the dense matrix,
    closed with one outer product per element."""
    index = {name: i for i, name in enumerate(names)}
    leq = np.eye(len(names), dtype=bool)
    for lo, hi in pairs:
        leq[index[lo], index[hi]] = True
    for k in range(len(names)):
        leq |= np.outer(leq[:, k], leq[k, :])
    return leq


def _masks(rows):
    return tuple(sum(1 << int(c) for c in np.flatnonzero(row)) for row in rows)


def reference_poset(names, pairs):
    """What the dense closure gave: (up masks, down masks, bottom, top),
    or the class and the pair or message of the error it raised."""
    leq = reference_order(names, pairs)
    cycles = leq & leq.T & ~np.eye(len(names), dtype=bool)
    if cycles.any():
        a, b = map(int, np.argwhere(cycles)[0])
        return CycleDetected, (names[a], names[b])
    bottoms, tops = np.flatnonzero(leq.all(axis=1)), np.flatnonzero(leq.all(axis=0))
    if len(bottoms) != 1:
        return NotBounded, "poset has no global lower bound"
    if len(tops) != 1:
        return NotBounded, "poset has no global upper bound"
    return _masks(leq), _masks(leq.T), int(bottoms[0]), int(tops[0])


def built_poset(names, pairs):
    """build_poset's result in the form of reference_poset."""
    try:
        poset = build_poset(names, pairs)
    except CycleDetected as exc:
        return CycleDetected, exc.pair
    except NotBounded as exc:
        return NotBounded, str(exc)
    return poset.up, poset.down, poset.bottom, poset.top


def reference_reversal(poset, neg):
    """The pairs a <= b with neg(b) not below neg(a), in row-major order,
    as the dense all-pairs test listed them."""
    leq = np.array([[poset.le(a, b) for b in range(poset.n)] for a in range(poset.n)])
    narr = np.array(neg)
    viol = leq & ~leq[np.ix_(narr, narr)].T
    return [(poset.names[a], poset.names[b]) for a, b in np.argwhere(viol).tolist()]


@st.composite
def cover_lines(draw, bounds=("both",)):
    """Cover lines of a random DAG on 2 to 12 points, with a random share
    of the pairs its edges imply added as redundant lines; names and
    lines in shuffled order.  With bounds "both" a bottom and a top are
    added; "no-bottom" adds two extra minimal points and a top, and
    "no-top" two extra maximal points and a bottom."""
    m = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.2, 0.4]))
    edges = {(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < density}
    reach = {i: {i} for i in range(m)}
    for i in reversed(range(m)):
        for a, j in edges:
            if a == i:
                reach[i] |= reach[j]
    implied = sorted((i, j) for i in range(m) for j in reach[i] if j != i)
    edges |= {pair for pair in implied if rng.random() < 0.5}
    names = [f"p{i}" for i in range(m)]
    pairs = [(names[i], names[j]) for i, j in sorted(edges)]
    kind = draw(st.sampled_from(bounds))
    low = ["u", "v"] if kind == "no-bottom" else ["bot"]
    high = ["s", "t"] if kind == "no-top" else ["top"]
    for lo in low:
        pairs += [(lo, p) for p in names if kind != "no-bottom" or rng.random() < 0.5]
    for hi in high:
        pairs += [(p, hi) for p in names if kind != "no-top" or rng.random() < 0.5]
    names += low + high
    pairs += [(lo, hi) for lo in low for hi in high]
    return ([names[i] for i in rng.permutation(len(names))],
            [pairs[i] for i in rng.permutation(len(pairs))])


@st.composite
def cyclic_lines(draw):
    """Cover lines of a random digraph on 3 to 10 points with a planted
    cycle through 2 to 5 of them, and random edges both ways."""
    m = draw(st.integers(3, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cycle = rng.permutation(m)[:draw(st.integers(2, min(5, m)))].tolist()
    edges = {(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])}
    edges |= {(i, j) for i in range(m) for j in range(m) if i != j and rng.random() < 0.15}
    names = [f"p{i}" for i in rng.permutation(m)]
    pairs = [(names[i], names[j]) for i, j in edges]
    return names, [pairs[i] for i in rng.permutation(len(pairs))]


@settings(max_examples=150, deadline=None)
@given(lines=cover_lines())
def test_closure_with_redundant_lines_agrees_with_the_dense_closure(lines):
    got = built_poset(*lines)
    assert got == reference_poset(*lines)
    assert got[0] is not CycleDetected and got[0] is not NotBounded


@settings(max_examples=150, deadline=None)
@given(lines=cyclic_lines())
def test_cycles_report_the_dense_closure_pair(lines):
    got = built_poset(*lines)
    assert got == reference_poset(*lines)
    assert got[0] is CycleDetected


@settings(max_examples=150, deadline=None)
@given(lines=cover_lines(bounds=("no-bottom", "no-top")))
def test_two_minima_or_maxima_report_the_dense_closure_message(lines):
    got = built_poset(*lines)
    assert got == reference_poset(*lines)
    assert got[0] is NotBounded


@st.composite
def involutions(draw):
    """A poset with an even number of elements and pairs naming a
    fixed-point-free involution on it: a Boolean lattice 2^k in shuffled
    order with its complement, which reverses the order, or with a
    random pairing; or a random bounded DAG with a random pairing."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        elements = rng.permutation(1 << draw(st.integers(1, 3))).tolist()
        names = [f"e{i}" for i in range(len(elements))]
        poset = build_poset(names, [(names[i], names[j]) for i, x in enumerate(elements)
                                    for j, y in enumerate(elements) if x != y and _subset(x, y)])
        if draw(st.booleans()):
            full = len(elements) - 1
            return poset, [(i, elements.index(x ^ full)) for i, x in enumerate(elements)]
    else:
        poset = build_poset(*draw(cover_lines()))
        assume(poset.n % 2 == 0)
    order = rng.permutation(poset.n).tolist()
    return poset, list(zip(order[::2], order[1::2]))


@settings(max_examples=150, deadline=None)
@given(case=involutions())
def test_negation_reversal_agrees_with_the_all_pairs_check(case):
    poset, pairs = case
    neg = [0] * poset.n
    for a, b in pairs:
        neg[a], neg[b] = b, a
    want = reference_reversal(poset, neg)
    if want:
        with pytest.raises(NotOrderReversing) as got:
            _build_negation(poset, pairs)
        assert list(got.value.witnesses) == want
    else:
        assert _build_negation(poset, pairs) == tuple(neg)


@st.composite
def self_dual_sums(draw):
    """A horizontal sum of one to three self-dual lattices, with the
    order-reversing involution that acts on each: a lattice of the
    strategies above stacked under its dual, the involution swapping the
    two copies, or a Boolean lattice 2^k with the set complement.  Returns
    (poset, pairs), the elements shuffled.  The complement laws fail in a
    stack everywhere but its bounds and hold in a Boolean block, so the
    sums fail them nowhere, everywhere or in part."""
    parts = []  # (members, le, neg, bottom, top) of each summand
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            base = draw(st.one_of(union_closed(), dedekind_macneille(), glued()))
            members = [(h, x) for h in (0, 1) for x in range(base.n)]

            def le(p, q, base=base):  # the copy (0, x) below the dual copy (1, x)
                if p[0] != q[0]:
                    return p[0] < q[0]
                return base.le(p[1], q[1]) if p[0] == 0 else base.le(q[1], p[1])

            parts.append((members, le, lambda p: (1 - p[0], p[1]), (0, base.bottom), (1, base.bottom)))
        else:
            full = (1 << draw(st.integers(1, 3))) - 1
            parts.append((list(range(full + 1)), _subset, lambda s, full=full: s ^ full, 0, full))
    elements = ["bottom", "top"] + [(i, m) for i, (members, _, _, bottom, top) in enumerate(parts)
                                    for m in members if m not in (bottom, top)]

    def le(p, q):
        return p == "bottom" or q == "top" or (
            p != "top" and q != "bottom" and p[0] == q[0] and parts[p[0]][1](p[1], q[1]))

    def neg(p):
        return {"bottom": "top", "top": "bottom"}.get(p) or (p[0], parts[p[0]][2](p[1]))

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    elements = [elements[i] for i in rng.permutation(len(elements))]
    names = {e: f"e{i}" for i, e in enumerate(elements)}
    poset = build_poset(list(names.values()), [(names[p], names[q]) for p in elements
                                               for q in elements if p != q and le(p, q)])
    return poset, [(names[e], names[neg(e)]) for e in elements]


def reference_complement_laws(lattice, pairs):
    """attach_ortho's negation, or its ComplementLawFails witnesses, from
    the separate join and meet scans it ran before one scan sufficed."""
    neg = _build_negation(lattice, pairs)
    bad_join = [a for a in range(lattice.n) if lattice.join(a, neg[a]) != lattice.top]
    bad_meet = [a for a in range(lattice.n) if lattice.meet(a, neg[a]) != lattice.bottom]
    if bad_join or bad_meet:
        witnesses = [(lattice.names[a], "a v neg(a) != top") for a in bad_join]
        return witnesses + [(lattice.names[a], "a ^ neg(a) != bottom") for a in bad_meet]
    return neg


@settings(max_examples=100, deadline=None)
@given(case=self_dual_sums())
def test_one_complement_law_scan_agrees_with_both(case):
    poset, pairs = case
    lattice = lattice_check(poset)
    try:
        got = attach_ortho(lattice, pairs).neg
    except ComplementLawFails as err:
        got = list(err.witnesses)
    assert got == reference_complement_laws(lattice, pairs)


def reference_vertices(ortho):
    """The basic feasible solutions of {x >= 0, atom rows}: every choice
    of rank-many atom columns whose square subsystem is nonsingular and
    solves with x >= 0, as sorted element-value tuples."""
    rows, _, below = _atom_system(ortho)
    found = set()
    for basis in combinations(range(1, len(ortho.atoms) + 1), len(rows)):
        reduced, pivots = _rref([[r[j] for j in basis] + [-r[0]] for r in rows], len(basis))
        if len(pivots) < len(basis) or any(row[-1] < 0 for row in reduced):
            continue
        x = {basis[col]: row[-1] for row, col in zip(reduced, pivots)}
        found.add(tuple(sum((x.get(j, 0) for j in below[e]), Fraction(0))
                        for e in range(ortho.n)))
    return sorted(found)


def assert_same_vertices(ortho):
    assert [v.values for v in extreme_states(ortho)] == reference_vertices(ortho)


@settings(max_examples=25, deadline=None)
@given(vertices=st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=7))
def test_vertices_on_petersen_subdiagrams_agree_with_the_basis_enumeration(vertices):
    """Up to 7 of the 10 blocks, where the reference takes about 1 s; the
    whole diagram is a case of the next test."""
    text = greechie_text(petersen_blocks(sorted(vertices)))
    assert_same_vertices(lattice_from_document(parse_lattice(text)))


@pytest.mark.parametrize("spec", [
    *(f"mo:{n}" for n in range(1, 9)),
    *(f"powerset:{n}" for n in range(1, 9)),
    "l12",
    pytest.param(str(DATA / "petersen.lat"), id="petersen.lat"),
])
def test_vertices_agree_with_the_basis_enumeration(spec):
    assert_same_vertices(load_source(spec)[1])


def reference_state_check(ortho, valuation, tolerance):
    """(kind, names, residual) of every violation, from the full system."""
    if tolerance is None:
        tolerance = 0 if valuation.is_exact() else FLOAT_TOLERANCE
    out = [("range", (ortho.names[i],), -v if v < 0 else v - 1)
           for i, v in enumerate(valuation.values) if v < -tolerance or v > 1 + tolerance]
    names = {"bottom": (ortho.names[ortho.bottom],), "top": (ortho.names[ortho.top],)}
    for row in build_state_system(ortho).rows:
        residual = row.residual(valuation.values)
        if abs(residual) > tolerance:
            label = row.label.split()
            out.append(("additivity" if label[0] == "add" else label[0],
                        names.get(label[0], tuple(label[1:])), residual))
    return out


def assert_same_state_check(ortho, valuation, tolerance):
    """is_state and the reference agree on every violation's kind,
    names, residual value and residual type; returns the kinds seen."""
    report = is_state(ortho, valuation, tolerance)
    expected = reference_state_check(ortho, valuation, tolerance)
    assert [(v.kind, v.elements, repr(v.residual), type(v.residual)) for v in report.violations] \
        == [(kind, names, repr(r), type(r)) for kind, names, r in expected]
    assert report.passed == (not expected)
    return {kind for kind, _, _ in expected}


STATE_SOURCES = [*(f"powerset:{n}" for n in range(4, 7)), *(f"mo:{n}" for n in range(3, 7)), "l12"]


@functools.cache
def state_lattice(source):
    """The lattice of a source name, with the exact vertices of its
    state polytope, or a Born valuation for the Hilbert closure."""
    if source == "hilbert":
        ortho, embedding = hilbert.generate_sublattice(two_plane_seeds(2, np.random.default_rng(5)))
        rho = hilbert.random_density(4, np.random.default_rng(3))
        return ortho, [hilbert.born_valuation(rho, ortho, embedding).values]
    if source.startswith("petersen"):
        text = greechie_text(petersen_blocks([int(v) for v in source.split(":")[1]]))
        ortho = lattice_from_document(parse_lattice(text))
    else:
        ortho = load_source(source)[1]
    return ortho, [v.values for v in extreme_states(ortho)]


@st.composite
def state_checks(draw):
    """A lattice and a valuation on it: a vertex or the midpoint of two
    (the Born valuation on the Hilbert closure) as exact Fractions, plain
    floats or numpy floats, with a few entries, the bottom and top among
    them, moved by exact or float steps; and a tolerance, 0 or the
    default."""
    source = draw(st.sampled_from([*STATE_SOURCES, "hilbert", "petersen"]))
    if source == "petersen":
        blocks = draw(st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=4))
        source += ":" + "".join(map(str, sorted(blocks)))
    ortho, points = state_lattice(source)
    first, second = draw(st.sampled_from(points)), draw(st.sampled_from(points))
    values = [(x + y) / 2 for x, y in zip(first, second)]
    form = "float" if source == "hilbert" else draw(st.sampled_from(["exact", "float", "numpy"]))
    if form != "exact":
        values = [(np.float64 if form == "numpy" else float)(v) for v in values]
    elements = st.sampled_from([ortho.bottom, ortho.top, *range(ortho.n)])
    steps = ([Fraction(k, 8) for k in range(-8, 9)] if form == "exact"
             else [-0.5, -1e-3, 1e-12, 1e-3, 0.5])
    for e, step in draw(st.lists(st.tuples(elements, st.sampled_from(steps)), max_size=4)):
        values[e] += step
    return ortho, Valuation(ortho, tuple(values)), draw(st.sampled_from([None, 0]))


@settings(max_examples=150, deadline=None)
@given(case=state_checks())
def test_state_checks_agree_with_the_full_system(case):
    assert_same_state_check(*case)


def test_state_checks_reach_every_violation_kind():
    """Exact, float and numpy valuations of each source, moved at the
    bottom, the top and one atom, between them violate every kind."""
    seen = set()
    for source in [*STATE_SOURCES, "hilbert", "petersen:0123"]:
        ortho, points = state_lattice(source)
        for form in (Fraction, float, np.float64):
            values = [form(v) for v in points[0]]
            assert_same_state_check(ortho, Valuation(ortho, tuple(values)), 0)
            for e, step in ((ortho.bottom, form(1) / 4), (ortho.top, -form(1) / 4),
                            (ortho.atoms[0], form(5) / 4)):
                values[e] += step
            seen |= assert_same_state_check(ortho, Valuation(ortho, tuple(values)), 0)
    assert seen == {"range", "bottom", "top", "additivity"}
