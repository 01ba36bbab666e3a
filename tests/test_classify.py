"""The axiom ladder on the standard menagerie, with every flag frozen
from an independent hand check of the structure in question."""

from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from qlprob import builders, hilbert
from qlprob.classify import (
    MAX_BLOCKS,
    check_distributive,
    check_modular,
    classify,
    compatibility_matrix,
    maximal_blocks,
)
from qlprob.core import CapExceeded
from qlprob.io import lattice_from_document, parse_lattice
from tests.conftest import DATA, d3_seed_subspaces, greechie_text, petersen_blocks


def ladder(report):
    return (
        report.is_ortholattice,
        report.is_distributive,
        report.is_modular,
        report.is_orthomodular,
        report.is_boolean,
    )


def test_powerset_is_boolean(p3):
    assert ladder(classify(p3)) == (True, True, True, True, True)


def test_firefly_ladder(l12):
    report = classify(l12)
    assert ladder(report) == (True, False, True, True, False)
    # first distributivity witness in scan order
    law, witness = next(iter(report.witnesses.items()))
    assert law == "distributive"
    assert len(witness.elements) == 3


def test_firefly_blocks(l12):
    report = classify(l12)
    left = ("0", "l", "r", "n", "~l", "~r", "~n", "1")
    right = ("0", "f", "b", "n", "~f", "~b", "~n", "1")
    blocks = tuple(tuple(l12.names[e] for e in block) for block in report.blocks)
    assert blocks == (left, right)


def test_mo2_ladder(mo2):
    report = classify(mo2)
    assert ladder(report) == (True, False, True, True, False)
    assert len(report.blocks) == 2


def test_n5_ladder():
    report = classify(builders.n5())
    assert ladder(report) == (False, False, False, None, False)
    witness = report.witnesses["modular"]
    names = tuple(report.names[e] for e in witness.elements)
    assert names == ("a", "b", "c")


def test_o6_ladder(o6):
    report = classify(o6)
    assert ladder(report) == (True, False, False, False, False)
    assert "orthomodular" in report.witnesses
    a, b = (report.names[e] for e in report.witnesses["orthomodular"].elements)
    # a <= b but b is not recoverable from a and its complement
    idx = o6.index
    assert o6.le(idx[a], idx[b])


def test_modular_but_not_distributive_exists(l12):
    assert check_modular(l12) is None
    assert check_distributive(l12) is not None


def test_distributive_implies_modular_on_menagerie():
    for obj in (builders.powerset(2), builders.powerset(4), builders.mo(3),
                builders.firefly_l12(), builders.o6(), builders.n5()):
        lattice = getattr(obj, "lattice", obj)
        if check_distributive(lattice) is None:
            assert check_modular(lattice) is None


def test_witness_really_violates_modularity():
    n5 = builders.n5()
    witness = check_modular(n5)
    x, y, bound = witness.elements
    lattice = n5
    assert lattice.le(x, bound)
    lhs = lattice.join(x, lattice.meet(y, bound))
    rhs = lattice.meet(lattice.join(x, y), bound)
    assert lhs != rhs


def test_compatibility_matrix_symmetry_on_omls(l12, mo2):
    for ortho in (l12, mo2):
        C = compatibility_matrix(ortho)
        assert all(C[a][b] == C[b][a] for a in range(ortho.n) for b in range(ortho.n))
        assert all(C[a][a] for a in range(ortho.n))


def test_compatibility_cross_block(l12):
    C = compatibility_matrix(l12)
    idx = l12.index
    assert C[idx["l"]][idx["r"]]
    assert C[idx["l"]][idx["n"]]
    assert not C[idx["l"]][idx["f"]]


def _greechie(blocks):
    return lattice_from_document(parse_lattice(greechie_text(blocks)))


BLOCK_CASES = {
    **{f"mo{n}": partial(builders.mo, n) for n in range(2, 7)},
    **{f"powerset{n}": partial(builders.powerset, n) for n in range(1, 6)},
    "l12": builders.firefly_l12,
    "d3": lambda: hilbert.generate_sublattice(d3_seed_subspaces())[0],
    "petersen": lambda: _greechie(petersen_blocks()),
}


@pytest.mark.parametrize("build", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
def test_blocks_are_boolean(build):
    ortho = build()
    C = compatibility_matrix(ortho)
    blocks = maximal_blocks(ortho)
    assert set().union(*blocks) == set(range(ortho.n))
    for block in blocks:
        sub = set(block)
        # closed under the operations, and of power-of-two size
        for a in block:
            assert ortho.neg[a] in sub
            for b in block:
                assert ortho.meet(a, b) in sub and ortho.join(a, b) in sub
        assert len(block) & (len(block) - 1) == 0
        # maximal: no element outside is compatible with every member
        outside = [e for e in range(ortho.n) if e not in sub]
        assert not any(all(C[e][b] for b in block) for e in outside)


OML_CASES = {
    **{f"mo{n}": partial(builders.mo, n) for n in range(1, 6)},
    **{f"powerset{n}": partial(builders.powerset, n) for n in range(1, 6)},
    "l12": builders.firefly_l12,
    "petersen.lat": lambda: lattice_from_document(parse_lattice((DATA / "petersen.lat").read_text())),
    **{f"petersen{''.join(map(str, v))}": partial(_greechie, petersen_blocks(v))
       for v in ((0,), (0, 1), (0, 1, 2), (0, 5), (0, 1, 2, 3, 4), range(10))},
}


@pytest.mark.parametrize("build", OML_CASES.values(), ids=OML_CASES.keys())
def test_an_oml_is_distributive_iff_it_is_one_block_iff_all_pairs_commute(build):
    """Foulis-Holland (Kalmbach 1983): an OML is distributive iff it is
    one block iff every two elements are compatible.  A finite OML is
    atomistic, and a distributive lattice is modular, so the law checks
    answer from theorems here, not from earlier code."""
    ortho = build()
    report = classify(ortho)
    assert report.is_orthomodular and report.is_atomistic
    one_block = len(report.blocks) == 1
    commuting = all(all(row) for row in compatibility_matrix(ortho))
    assert report.is_distributive == one_block == commuting == report.is_boolean
    assert report.is_distributive <= (check_modular(ortho) is None)


def test_the_oml_oracle_sees_both_answers():
    answers = {classify(build()).is_distributive for build in OML_CASES.values()}
    assert answers == {True, False}


@settings(max_examples=60, deadline=None)
@given(vertices=st.sets(st.integers(min_value=0, max_value=9), min_size=1))
@example(vertices=set(range(10)))
def test_blocks_of_petersen_subdiagrams(vertices):
    """A sub-diagram of the girth-5 Petersen diagram has no loop of order
    3 or 4, so it is an OML whose blocks are exactly the chosen ones."""
    diagram = petersen_blocks(sorted(vertices))
    ortho = _greechie(diagram)
    atoms = set(ortho.atoms)
    got = {frozenset(ortho.names[e] for e in block if e in atoms)
           for block in maximal_blocks(ortho)}
    assert got == {frozenset(block) for block in diagram}


def test_block_cap_carries_the_first_blocks():
    with pytest.raises(CapExceeded) as info:
        maximal_blocks(builders.mo(MAX_BLOCKS + 1))
    found = info.value.partial
    assert len(found) == MAX_BLOCKS and list(found) == sorted(found)
    assert all(len(block) == 4 for block in found)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=5))
def test_powerset_always_fully_classical(n):
    report = classify(builders.powerset(n))
    assert report.is_boolean and report.is_distributive


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=6))
def test_mo_n_orthomodular_never_distributive(n):
    report = classify(builders.mo(n))
    assert report.is_orthomodular
    assert not report.is_distributive
    assert len(report.blocks) == n


def test_orthomodular_cache_releases_lattices():
    """The orthomodular-law cache keeps at most the latest lattice, so a
    lattice a state check asked about earlier can be freed."""
    import gc
    import weakref
    from fractions import Fraction

    from qlprob.states import Valuation, is_state

    def check(ortho):
        return is_state(ortho, Valuation(ortho, (Fraction(1, 2),) * ortho.n))

    first = builders.powerset(4)
    ref = weakref.ref(first)
    check(first)
    check(builders.mo(2))
    del first
    gc.collect()
    assert ref() is None
