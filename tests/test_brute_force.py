"""Meet and join tables, NotALattice reports and the distributive and
modular checks against plain reference scans, on random lattices and on
random bounded posets that are mostly not lattices.

The references are the bound search and the triple scans as they were
before the decide-first tests: every pair's extremal bounds, and every
triple of the law, in index order."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlprob.classify import check_distributive, check_modular
from qlprob.core import NotALattice, build_poset, extremal, lattice_check


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
    return meet_t, join_t


def reference_distributive(lattice):
    M, J = lattice.meet_table, lattice.join_table
    for x, y, z in product(range(lattice.n), repeat=3):
        if M[x, J[y, z]] != J[M[x, y], M[x, z]]:
            return ("distributive", (x, y, z))
    return None


def reference_modular(lattice):
    M, J, leq = lattice.meet_table, lattice.join_table, lattice.poset.leq
    for x, a, b in product(range(lattice.n), repeat=3):
        if leq[x, b] and J[x, M[a, b]] != M[J[x, a], b]:
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


def assert_agrees(poset):
    """lattice_check and the two law checks equal the references."""
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
    assert np.array_equal(lattice.meet_table, want[0])
    assert np.array_equal(lattice.join_table, want[1])
    dist, mod = check_distributive(lattice), check_modular(lattice)
    assert (dist and tuple(dist)) == reference_distributive(lattice)
    assert (mod and tuple(mod)) == reference_modular(lattice)
    return "distributive" if dist is None else "modular" if mod is None else "not modular"


@settings(max_examples=150, deadline=None)
@given(poset=st.one_of(union_closed(), dedekind_macneille(), glued()))
def test_lattices_agree_with_the_reference_scans(poset):
    assert_agrees(poset)


@settings(max_examples=150, deadline=None)
@given(poset=bounded_dag())
def test_bounded_posets_agree_with_the_reference_scans(poset):
    assert_agrees(poset)


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
