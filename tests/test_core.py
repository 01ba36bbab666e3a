import copy
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from qlprob import builders, classify, funceq, hilbert, io, states
from qlprob.core import (
    CapExceeded,
    ComplementLawFails,
    CycleDetected,
    DuplicateElement,
    Lattice,
    MAX_ELEMENTS,
    NotALattice,
    NotBounded,
    NotInvolutive,
    NotOrderReversing,
    Poset,
    Record,
    attach_ortho,
    build_poset,
    lattice_check,
)

CHAIN3 = (("0", "m"), ("m", "1"))

# two incomparable middles over two incomparable "atoms": p and q have
# two minimal upper bounds, so joins fail while the poset stays bounded
BOWTIE_NAMES = ("0", "p", "q", "x", "y", "1")
BOWTIE_COVERS = (
    ("0", "p"), ("0", "q"),
    ("p", "x"), ("p", "y"), ("q", "x"), ("q", "y"),
    ("x", "1"), ("y", "1"),
)


def test_chain_poset_basics():
    poset = build_poset(("0", "m", "1"), CHAIN3)
    assert poset.n == 3
    assert poset.bottom == 0 and poset.top == 2
    assert poset.le(0, 2) and not poset.le(2, 0)
    assert poset.covers == ((0, 1), (1, 2))
    assert poset.index == {"0": 0, "m": 1, "1": 2}


def test_cover_closure_is_transitive_not_reflexive_input():
    poset = build_poset(("0", "a", "b", "1"), (("0", "a"), ("a", "b"), ("b", "1")))
    assert poset.le(0, 3)
    # covers recover exactly the input edges, closure edges are dropped
    assert poset.covers == ((0, 1), (1, 2), (2, 3))


def test_duplicate_element_rejected():
    with pytest.raises(DuplicateElement):
        build_poset(("a", "a"), ())


def test_cycle_detected_with_pair():
    with pytest.raises(CycleDetected) as err:
        build_poset(("0", "a", "b", "1"),
                    (("0", "a"), ("a", "b"), ("b", "a"), ("b", "1")))
    assert set(err.value.pair) == {"a", "b"}


def test_unbounded_poset_rejected():
    with pytest.raises(NotBounded):
        build_poset(("a", "b"), ())


def test_single_element_rejected():
    with pytest.raises(NotBounded):
        build_poset(("x",), ())


def test_declared_bounds_verified():
    poset = build_poset(("0", "m", "1"), CHAIN3, bottom="0", top="1")
    assert poset.names[poset.bottom] == "0"
    with pytest.raises(NotBounded):
        build_poset(("0", "m", "1"), CHAIN3, bottom="m")


@pytest.mark.parametrize("names, covers, bounds, kind, message", [
    ((), (), {}, NotBounded, "empty element list"),
    (("0", "m", "1"), CHAIN3 + (("m", "m"),), {}, ValueError, "self-cover on element 'm'"),
    (("0", "m", "1"), CHAIN3, {"bottom": "z"}, ValueError, "declared bottom 'z' is not an element"),
    (("0", "m", "1"), CHAIN3, {"bottom": "m"}, NotBounded,
     "declared bottom 'm' is not below every element"),
    (("0", "m", "1"), CHAIN3, {"top": "z"}, ValueError, "declared top 'z' is not an element"),
    (("0", "m", "1"), CHAIN3, {"top": "m"}, NotBounded, "declared top 'm' is not above every element"),
    (("0", "m", "1"), CHAIN3, {"bottom": "m", "top": "z"}, NotBounded,
     "declared bottom 'm' is not below every element"),
    (("0", "a", "b"), (("0", "a"), ("0", "b")), {}, NotBounded, "poset has no global upper bound"),
    (("a", "b", "1"), (("a", "1"), ("b", "1")), {"top": "z"}, NotBounded,
     "poset has no global lower bound"),
    (("a", "b", "a"), (), {}, DuplicateElement, "element 'a' declared twice"),
])
def test_build_poset_errors(names, covers, bounds, kind, message):
    """Each refusal of build_poset, the bottom checked before the top."""
    with pytest.raises(kind) as err:
        build_poset(names, covers, **bounds)
    assert type(err.value) is kind and str(err.value) == message


def test_undeclared_cover_reference():
    with pytest.raises(ValueError):
        build_poset(("0", "1"), (("0", "ghost"),))


def test_element_cap():
    names = tuple(str(i) for i in range(MAX_ELEMENTS + 1))
    with pytest.raises(CapExceeded):
        build_poset(names, ())


def test_lattice_check_on_chain():
    lattice = lattice_check(build_poset(("0", "m", "1"), CHAIN3))
    assert lattice.meet(1, 2) == 1
    assert lattice.join(0, 1) == 1
    assert lattice.atoms == (1,)


def test_bowtie_is_not_a_lattice():
    poset = build_poset(BOWTIE_NAMES, BOWTIE_COVERS)
    with pytest.raises(NotALattice) as err:
        lattice_check(poset)
    exc = err.value
    if exc.kind == "join":
        assert set(exc.pair) == {"p", "q"} and set(exc.witnesses) == {"x", "y"}
    else:
        assert set(exc.pair) == {"x", "y"} and set(exc.witnesses) == {"p", "q"}


def test_meet_join_tables_agree_with_order(p3):
    lattice = p3
    n = lattice.n
    le = lattice.le
    for a in range(n):
        for b in range(n):
            m = lattice.meet(a, b)
            assert le(m, a) and le(m, b)
            j = lattice.join(a, b)
            assert le(a, j) and le(b, j)


def test_atomic_and_atomistic_flags(p3, l12):
    assert p3.is_atomic() and p3.is_atomistic()
    assert l12.is_atomic() and l12.is_atomistic()
    # the pentagon 0 < a < b < 1, 0 < c < 1: b dominates the atom a but
    # is not the join of the atoms below it
    n5 = builders.n5()
    assert n5.is_atomic() and not n5.is_atomistic()


def test_ortho_delegation_and_orthogonality(l12):
    assert isinstance(l12, Lattice)
    idx = l12.index
    assert l12.n == 12
    assert l12.neg[idx["l"]] == idx["~l"]
    assert l12.orthogonal(idx["l"], idx["r"])
    assert l12.orthogonal(idx["l"], idx["n"])  # l, r, n are one block's atoms
    assert not l12.orthogonal(idx["l"], idx["f"])
    assert l12.meet(idx["l"], idx["~l"]) == l12.bottom
    assert l12.join(idx["l"], idx["~l"]) == l12.top


def test_negation_must_be_stated_for_all():
    lattice = lattice_check(build_poset(("0", "m", "1"), CHAIN3))
    with pytest.raises(ValueError):
        attach_ortho(lattice, [("0", "1")])


def test_negation_involution_enforced():
    # conflicting pairings for b make the stated negation non-involutive
    poset = build_poset(("0", "a", "b", "1"),
                        (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")))
    lattice = lattice_check(poset)
    with pytest.raises(NotInvolutive) as err:
        attach_ortho(lattice, [("0", "1"), ("a", "b"), ("b", "1")])
    assert str(err.value) == "negation is not an involution; witnesses ['1', 'b']"


def test_negation_fixed_point_rejected():
    poset = build_poset(("0", "a", "b", "1"),
                        (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")))
    lattice = lattice_check(poset)
    with pytest.raises(ComplementLawFails):
        attach_ortho(lattice, [("0", "1"), ("a", "a"), ("b", "b")])


def test_complement_law_enforced():
    # chain of length 3: pairing m with itself fails meet/join laws
    lattice = lattice_check(build_poset(("0", "m", "1"), CHAIN3))
    with pytest.raises(ComplementLawFails):
        attach_ortho(lattice, [("0", "1"), ("m", "m")])


def test_complement_law_witnesses():
    """On the chain 0 < a < b < 1 with neg(a) = b the negation reverses the
    order, but a v b = b and a ^ b = a: four violating instances."""
    chain = lattice_check(build_poset(("0", "a", "b", "1"), (("0", "a"), ("a", "b"), ("b", "1"))))
    with pytest.raises(ComplementLawFails) as err:
        attach_ortho(chain, [("0", "1"), ("a", "b")])
    assert err.value.witnesses == (("a", "a v neg(a) != top"), ("b", "a v neg(a) != top"),
                                   ("a", "a ^ neg(a) != bottom"), ("b", "a ^ neg(a) != bottom"))
    assert str(err.value) == (
        "complement laws fail; violating instances [('a', 'a v neg(a) != top'), "
        "('b', 'a v neg(a) != top'), ('a', 'a ^ neg(a) != bottom'), ('b', 'a ^ neg(a) != bottom')]")


def test_order_reversal_enforced():
    # 2x2 grid: swapping the two atoms is a valid orthocomplement
    poset = build_poset(
        ("0", "a", "b", "1"),
        (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")),
    )
    lattice = lattice_check(poset)
    ortho = attach_ortho(lattice, [("0", "1"), ("a", "b")])
    assert ortho.neg[ortho.index["a"]] == ortho.index["b"]


def test_order_reversal_violation_raises():
    # 2x2 grid paired 0 <-> a and b <-> 1: an involution without fixed
    # points that does not reverse the order
    poset = build_poset(
        ("0", "a", "b", "1"),
        (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")),
    )
    with pytest.raises(NotOrderReversing) as err:
        attach_ortho(lattice_check(poset), [("0", "a"), ("b", "1")])
    assert list(err.value.witnesses) == [("0", "b"), ("0", "1"), ("a", "1")]
    assert str(err.value) == ("negation does not reverse the order; violating pairs "
                              "[('0', 'b'), ('0', '1'), ('a', '1')]")


# ten elements: a and b have two minimal upper bounds, u and v, so the
# poset is not a lattice; scripts/cli_jobs/nojoin.lat is the same poset
# with a negation that makes a and b orthogonal
NOJOIN_NAMES = ("0", "a", "b", "u", "v", "~u", "~v", "~a", "~b", "1")
NOJOIN_COVERS = (
    ("0", "a"), ("0", "b"), ("0", "~u"), ("0", "~v"),
    ("a", "u"), ("a", "v"), ("a", "~b"),
    ("b", "u"), ("b", "v"), ("b", "~a"),
    ("~u", "~a"), ("~u", "~b"), ("~v", "~a"), ("~v", "~b"),
    ("u", "1"), ("v", "1"), ("~a", "1"), ("~b", "1"),
)


def test_poset_without_a_join_is_not_a_lattice():
    poset = build_poset(NOJOIN_NAMES, NOJOIN_COVERS)
    with pytest.raises(NotALattice):
        lattice_check(poset)


def test_poset_leq_matrix_immutable(p3):
    with pytest.raises(TypeError):
        p3.up[0] = 1
    with pytest.raises(TypeError):
        p3.down[0] = 1
    with pytest.raises(FrozenInstanceError):
        p3.up = ()


def test_a_lattice_is_its_poset(l12):
    poset = build_poset(("0", "p", "q", "1"), (("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")))
    views = poset.index, poset.extension, poset.covers
    lattice = lattice_check(poset)
    assert isinstance(lattice, Poset) and isinstance(l12, Poset) and isinstance(l12, Lattice)
    assert [getattr(lattice, f) for f in Poset._fields] == [getattr(poset, f) for f in Poset._fields]
    assert lattice.index is views[0] and lattice.extension is views[1] and lattice.covers is views[2]
    atoms = lattice.atoms
    ortho = attach_ortho(lattice, [("0", "1"), ("p", "q")])
    assert ortho.atoms is atoms and ortho.covers is views[2] and Lattice._fields == Poset._fields
    for record in (lattice, ortho):
        assert not hasattr(record, "poset")
        assert not any(isinstance(v, property) for v in vars(type(record)).values())


def test_rows_are_built_when_first_read(monkeypatch):
    """classify builds no meet or join row on a Boolean lattice, from the
    builder or from a .lat file with or without its negation; a row of
    classify._rows is built from meet or join on its first read, once."""
    lattice = lattice_check(build_poset(("0", "p", "q", "1"),
                                        (("0", "p"), ("0", "q"), ("p", "1"), ("q", "1"))))
    M, J = classify._rows(lattice)
    assert M(2) == [0, 0, 2, 2] and M(2) is M(2) and J(1)[2] == lattice.join(1, 2) == 3
    assert (M.cache_info().misses, J.cache_info().misses) == (1, 1)

    def refuse(lattice):
        raise AssertionError("rows built")

    monkeypatch.setattr(classify, "_rows", refuse)
    document = io.document_from_lattice(builders.powerset(5), "b5")
    plain = io.LatticeDocument(document.name, document.elements, document.covers, ())
    for lattice in (builders.powerset(8), io.lattice_from_document(document),
                    io.lattice_from_document(plain)):
        classify.classify(lattice)


def test_witness_scans_build_a_handful_of_rows(monkeypatch):
    """The law scans skip the elements where the law holds by the order
    alone: on MO(64) the distributive scan builds 3 of the 260 rows, and
    on the pentagon each scan builds fewer than 8 of the 10."""
    real, scans = classify._rows, []
    monkeypatch.setattr(classify, "_rows", lambda lattice: scans.append(real(lattice)) or scans[-1])
    for lattice, most in ((builders.mo(64), 3), (builders.n5(), 7)):
        scans.clear()
        classify.classify(lattice)
        assert scans
        assert all(M.cache_info().misses + J.cache_info().misses <= most for M, J in scans)


# -- records -----------------------------------------------------------------

def _record_classes(base=Record):
    for cls in base.__subclasses__():
        yield cls
        yield from _record_classes(cls)


def _record_samples() -> dict:
    """One instance of every record class in the package, by class name."""
    mo2, l12 = builders.mo(2), builders.firefly_l12()
    chain = build_poset(("0", "m", "1"), CHAIN3)
    state = states.find_state(mo2)
    samples = [
        chain, lattice_check(chain), mo2,
        io.LatticeDocument("chain", ("0", "1"), (("0", "1"),), ()),
        io.ValuationDocument("chain", (("0", 0), ("1", 1))),
        classify.classify(mo2),
        state, states.Row((1, -1), Fraction(0), "agree"), states.build_state_system(mo2),
        states.Violation("range", ("a",), Fraction(1, 2)), states.is_state(mo2, state),
        states.implied_affine_relations(l12)[0], states.PairDefect(("a", "b"), 0.5),
        hilbert.subspace_from_vectors(2, [[1, 0]]), hilbert.max_mixed(1),
        funceq.builtin("sum"), funceq.check_involution(funceq.builtin("one-minus")),
        funceq.check_associativity(funceq.builtin("sum"), grid_size=3),
        funceq.regraduate(funceq.builtin("sum")),
    ]
    return {type(record).__name__: record for record in samples}


SAMPLES = _record_samples()
IDENTITY_RECORDS = ("Poset", "Lattice", "OrthoLattice", "Subspace")


def test_every_record_class_has_a_sample():
    assert sorted(cls.__name__ for cls in _record_classes()) == sorted(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_assignment_and_deletion_raise(name):
    record = SAMPLES[name]
    field = next(iter(vars(record)))
    before = getattr(record, field)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field"):
        setattr(record, field, None)
    with pytest.raises(FrozenInstanceError, match="cannot delete field"):
        delattr(record, field)
    with pytest.raises(FrozenInstanceError):
        record.extra = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("record, defaults", [
    (io.LatticeDocument("chain", ("0", "1"), (("0", "1"),), ()), {"bottom": None, "top": None}),
    (states.PairDefect(("a", "b"), 0.5), {"strict_decomposition": None}),
    (funceq.CoxFunction(1, 0.0, 1.0, abs), {"total": True, "label": ""}),
    (classify.ClassificationReport(*[None] * 10), {"blocks_truncated": False}),
])
def test_record_defaults_apply(record, defaults):
    assert {field: getattr(record, field) for field in defaults} == defaults


def test_record_positional_and_keyword_construction():
    row = states.Row((1, -1), Fraction(0), "agree")
    assert row == states.Row(coeffs=(1, -1), rhs=Fraction(0), label="agree")
    assert row == states.Row((1, -1), label="agree", rhs=Fraction(0))
    for args, kwargs in ((((1,), 0), {}), (((1,), 0, "r", 4), {}),
                         (((1,), 0, "r"), {"rhs": 1}), (((1,), 0), {"label": "r", "sign": 1})):
        with pytest.raises(TypeError):
            states.Row(*args, **kwargs)


def test_record_post_init_runs():
    mo2 = builders.mo(2)
    with pytest.raises(states.DomainMismatch):
        states.Valuation(mo2, (0,) * (mo2.n - 1))
    with pytest.raises(states.DomainMismatch):
        states.Valuation(lattice=mo2, values=())
    with pytest.raises(ValueError, match="not orthonormal"):
        hilbert.Subspace(2, hilbert.np.array([[1, 1], [0, 1]], dtype=complex))


@pytest.mark.parametrize("name", sorted(set(SAMPLES) - set(IDENTITY_RECORDS)))
def test_value_records_compare_and_hash_by_field(name):
    record = SAMPLES[name]
    twin = type(record)(**vars(record))
    assert twin == record and not twin != record and twin is not record
    try:
        assert hash(twin) == hash(record)
    except TypeError:   # a field that cannot be hashed, as a dict of witnesses
        pass
    for field in vars(record):
        changed = copy.copy(record)
        vars(changed)[field] = object()
        assert changed != record


@pytest.mark.parametrize("name", IDENTITY_RECORDS)
def test_structures_compare_by_identity(name):
    record = SAMPLES[name]
    twin = copy.copy(record)
    assert vars(twin) == vars(record)
    assert twin != record and record == record
    assert hash(record) == object.__hash__(record)
