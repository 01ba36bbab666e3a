from itertools import combinations

import pytest

from qlprob import builders
from qlprob.core import CapExceeded, OrthoLattice


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_powerset_shape(n):
    ps = builders.powerset(n)
    assert ps.n == 2 ** n
    assert len(ps.atoms) == n


def test_powerset_is_set_algebra():
    ps = builders.powerset(3)
    idx = ps.index
    a, b = idx["{1}"], idx["{2,3}"]
    assert ps.neg[a] == b
    assert ps.join(a, idx["{2}"]) == idx["{1,2}"]
    assert ps.meet(idx["{1,2}"], idx["{2,3}"]) == idx["{2}"]


def _assert_set_algebra_rows(ps, rows):
    """Meet and join are AND and OR of the masks, the order is inclusion
    and the negation is the set complement, row by row."""
    size = ps.n
    for a in rows:
        assert [ps.meet(a, b) for b in range(size)] == [a & b for b in range(size)]
        assert [ps.join(a, b) for b in range(size)] == [a | b for b in range(size)]
        assert ps.up[a] == sum(1 << c for c in range(size) if c & a == a)
        assert ps.down[a] == sum(1 << c for c in range(size) if c | a == a)
        assert ps.neg[a] == a ^ (size - 1)


@pytest.mark.parametrize("n", range(1, 10))
def test_powerset_tables_are_set_operations(n):
    ps = builders.powerset(n)
    _assert_set_algebra_rows(ps, range(ps.n))


def test_powerset_11_rows_are_set_operations():
    _assert_set_algebra_rows(builders.powerset(11), (0, 1, 1234, 2047))


def test_powerset_rejects_out_of_range():
    with pytest.raises(CapExceeded):
        builders.powerset(0)
    with pytest.raises(CapExceeded):
        builders.powerset(13)


def test_firefly_shape(l12):
    assert isinstance(l12, OrthoLattice)
    assert l12.n == 12
    idx = l12.index
    atoms = {l12.names[a] for a in l12.atoms}
    assert atoms == {"l", "r", "f", "b", "n"}
    # the two observation contexts overlap exactly in {0, n, ~n, 1}
    assert l12.join(idx["l"], idx["r"]) == idx["~n"]
    assert l12.join(idx["f"], idx["b"]) == idx["~n"]
    assert l12.meet(idx["~n"], idx["n"]) == idx["0"]
    # cross-context joins land on the shared coatom, not the top
    assert l12.join(idx["l"], idx["f"]) == idx["~n"]
    assert l12.meet(idx["l"], idx["~f"]) == idx["0"]


def test_firefly_complement_involution(l12):
    for e in range(l12.n):
        assert l12.neg[l12.neg[e]] == e
        assert l12.meet(e, l12.neg[e]) == l12.bottom
        assert l12.join(e, l12.neg[e]) == l12.top


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_mo_shape(n):
    lattice = builders.mo(n)
    assert lattice.n == 2 * n + 2
    atoms = lattice.atoms
    assert len(atoms) == 2 * n
    for a, b in combinations(atoms, 2):
        assert lattice.meet(a, b) == lattice.bottom
        assert lattice.join(a, b) == lattice.top


def test_n5_is_pentagon():
    n5 = builders.n5()
    assert n5.n == 5
    idx = n5.index
    assert n5.le(idx["a"], idx["c"])
    assert not n5.le(idx["a"], idx["b"]) and not n5.le(idx["b"], idx["a"])
    assert not n5.le(idx["b"], idx["c"]) and not n5.le(idx["c"], idx["b"])


def test_o6_shape(o6):
    assert o6.n == 6
    idx = o6.index
    assert o6.le(idx["a"], idx["b"])
    assert o6.le(idx["c"], idx["d"])
    assert o6.neg[idx["a"]] == idx["d"]
    assert o6.neg[idx["b"]] == idx["c"]
    assert o6.join(idx["a"], idx["c"]) == o6.top
