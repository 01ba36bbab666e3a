"""Subspace arithmetic against independent rank oracles, Born-rule
valuations, and closure of seed projectors into verified lattices."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlprob import hilbert
from qlprob.classify import classify
from qlprob.cli import main
from qlprob.hilbert import (
    DensityMatrix,
    DimensionMismatch,
    Subspace,
    born,
    born_valuation,
    full_subspace,
    generate_sublattice,
    join_s,
    max_mixed,
    meet_s,
    null_subspace,
    ortho_s,
    pure,
    random_density,
    subspace_from_vectors,
)
from qlprob.states import is_state
from tests.conftest import d2_seed_subspaces, d3_seed_subspaces, two_plane_seeds

RNG = np.random.default_rng


def random_subspace(d, dim, rng):
    g = rng.standard_normal((d, dim)) + 1j * rng.standard_normal((d, dim))
    return subspace_from_vectors(d, [g[:, i] for i in range(dim)])


def test_span_collapses_dependent_vectors():
    s = subspace_from_vectors(3, [[1, 0, 0], [2, 0, 0], [1, 1, 0]])
    assert s.dim == 2


def test_projector_is_idempotent_hermitian():
    rng = RNG(5)
    s = random_subspace(4, 2, rng)
    p = s.projector()
    assert np.allclose(p @ p, p, atol=1e-10)
    assert np.allclose(p, p.conj().T, atol=1e-12)
    assert abs(np.trace(p).real - 2) < 1e-10


def test_dimension_guard():
    with pytest.raises(DimensionMismatch):
        subspace_from_vectors(9, [[0] * 9])
    with pytest.raises(DimensionMismatch):
        join_s(full_subspace(2), full_subspace(3))


def test_complement_involution_and_rank():
    rng = RNG(0)
    for d, k in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        s = random_subspace(d, k, rng)
        c = ortho_s(s)
        assert c.dim == d - k
        assert ortho_s(c).same(s)
        # P + P_perp = I
        assert np.allclose(s.projector() + c.projector(), np.eye(d), atol=1e-9)


def test_join_meet_rank_oracle():
    """dim(A v B) equals the rank of the stacked bases; the meet then
    follows from the complement identity, computed independently here."""
    rng = RNG(1)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        a = random_subspace(d, int(rng.integers(1, d)), rng)
        b = random_subspace(d, int(rng.integers(1, d)), rng)
        stacked = np.hstack([a.basis, b.basis])
        expected_join = np.linalg.matrix_rank(stacked, tol=1e-9)
        j = join_s(a, b)
        assert j.dim == expected_join
        m = meet_s(a, b)
        assert m.dim == a.dim + b.dim - expected_join
        # the meet sits inside both operands
        assert j.contains(a) and j.contains(b)
        assert a.contains(m) and b.contains(m)


def test_generic_lines_meet_trivially():
    a = subspace_from_vectors(3, [[1, 0.3, -0.2]])
    b = subspace_from_vectors(3, [[0.1, 1, 0.7]])
    assert meet_s(a, b).dim == 0
    assert join_s(a, b).dim == 2


def test_density_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.7, 0.4], [0.1, 0.3]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]).astype(complex))  # trace 1.4
    with pytest.raises(ValueError):
        pure([0, 0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.inf)])
def test_non_finite_density_is_refused(bad):
    """A NaN passes every bound test that DensityMatrix writes as a
    refusal beyond DENSITY_TOL, and born clamped the NaN trace to 0, so
    non-finite entries are refused first, in a vector or a matrix."""
    with pytest.raises(ValueError, match="NaN or infinite entry"):
        pure([bad, 1])
    with pytest.raises(ValueError, match="NaN or infinite entry"):
        DensityMatrix(np.array([[0.5, 0], [0, bad]], dtype=complex))


@pytest.mark.parametrize("rho", ["pure:(nan,1)", "pure:(inf,1)", "matrix"])
def test_cli_refuses_a_non_finite_density(rho, tmp_path, capsys):
    seeds, matrix = tmp_path / "d2.json", tmp_path / "rho.json"
    seeds.write_text("[[1, 0], [0.6, 0.8]]")
    matrix.write_text("[[0.5, 0], [0, NaN]]")
    code = main(["hilbert", str(seeds), "--rho", str(matrix) if rho == "matrix" else rho])
    assert (code, json.loads(capsys.readouterr().out)["kind"]) == (2, "ValueError")


def test_born_basic_values():
    zero = subspace_from_vectors(2, [[1, 0]])
    plus = subspace_from_vectors(2, [[1, 1]])
    assert born(pure([1, 0]), zero) == pytest.approx(1.0, abs=1e-12)
    assert born(pure([0, 1]), zero) == pytest.approx(0.0, abs=1e-12)
    assert born(max_mixed(2), zero) == pytest.approx(0.5, abs=1e-12)
    assert born(pure([0, 1]), plus) == pytest.approx(0.5, abs=1e-12)
    assert born(max_mixed(3), full_subspace(3)) == pytest.approx(1.0, abs=1e-12)
    assert born(max_mixed(3), null_subspace(3)) == 0.0


def test_born_is_affine_in_the_state():
    rng = RNG(9)
    r1, r2 = random_density(3, rng), random_density(3, rng)
    s = random_subspace(3, 2, rng)
    for alpha in (0.0, 0.25, 0.7, 1.0):
        blend = DensityMatrix(alpha * r1.matrix + (1 - alpha) * r2.matrix)
        assert born(blend, s) == pytest.approx(
            alpha * born(r1, s) + (1 - alpha) * born(r2, s), abs=1e-12)


def test_d2_closure_is_mo2_shaped(d2_lattice):
    ortho, embedding = d2_lattice
    assert ortho.n == 6
    report = classify(ortho)
    assert report.is_orthomodular and not report.is_distributive
    assert len(report.blocks) == 2
    dims = [s.dim for s in embedding]
    assert dims[0] == 0 and dims[-1] == 2
    assert dims[1:-1] == [1, 1, 1, 1]


def test_d3_axes_close_to_boolean_cube():
    axes = d3_seed_subspaces()[:3]
    ortho, embedding = generate_sublattice(axes)
    assert ortho.n == 8
    report = classify(ortho)
    assert report.is_boolean


def test_d3_with_tilted_line_is_modular_not_distributive(d3_lattice):
    ortho, _ = d3_lattice
    assert ortho.n == 12
    report = classify(ortho)
    assert report.is_orthomodular
    assert report.is_modular
    assert not report.is_distributive


def test_embedding_respects_structure(d3_lattice):
    ortho, embedding = d3_lattice
    for a in range(ortho.n):
        for b in range(ortho.n):
            if ortho.le(a, b):
                assert embedding[b].contains(embedding[a])
        assert embedding[ortho.neg[a]].same(ortho_s(embedding[a]))


def test_closure_is_deterministic():
    first = generate_sublattice(d3_seed_subspaces())
    second = generate_sublattice(d3_seed_subspaces())
    assert first[0].names == second[0].names
    for s, t in zip(first[1], second[1]):
        assert s.same(t)


def test_closure_cap():
    from qlprob.core import CapExceeded

    with pytest.raises(CapExceeded, match=r"^hilbert closure reached 10 subspaces, cap 9$"):
        generate_sublattice(d3_seed_subspaces(), cap=9)


def test_basis_norm_tolerance():
    """Orthonormality is absolute and element-wise: a column of norm
    1 + 1e-7 is off by 2e-7 on the Gram diagonal, past 1e-10."""
    basis = np.zeros((3, 2), dtype=np.complex128)
    basis[0, 0] = 1
    basis[1, 1] = 1 + 1e-7
    with pytest.raises(ValueError):
        Subspace(3, basis)
    basis = basis.copy()
    basis[1, 1] = 1 + 1e-12
    assert Subspace(3, basis).dim == 2


def _reference_key(s):
    rounded = np.round(s.projector(), 9) + 0.0
    return (s.dim, tuple(rounded.real.ravel()), tuple(rounded.imag.ravel()))


def _ordered(elements):
    """The embedding in canonical order, its inclusion matrix and the
    complement of each element by index."""
    ordered = sorted(elements, key=_reference_key)
    leq = np.array([[b.contains(a) for b in ordered] for a in ordered])
    neg = tuple(next(k for k, t in enumerate(ordered) if t.same(ortho_s(s))) for s in ordered)
    return ordered, leq, neg


def reference_closure(seeds):
    """The closure as a plain pairwise loop: each candidate against every
    kept element through Subspace.same, joins through join_s, complements
    through ortho_s, inclusion through Subspace.contains.  A round adds the
    complements of its frontier, then joins each pair of the elements held
    before them in which one lies in the frontier, so every pair is joined
    once."""
    d = seeds[0].d
    elements = [null_subspace(d), full_subspace(d)]

    def add(s):
        if not any(t.same(s) for t in elements):
            elements.append(s)

    for s in seeds:
        add(s)
    frontier = range(len(elements))
    while frontier:
        start = len(elements)
        for i in frontier:
            add(ortho_s(elements[i]))
        for i in range(start):
            for j in range(i + 1, start):
                if i in frontier or j in frontier:
                    add(join_s(elements[i], elements[j]))
        frontier = range(start, len(elements))
    return _ordered(elements)


def meet_join_closure(seeds):
    """The closure under meet, join and complement as a plain loop: a round
    adds the complements of its frontier, then the meet and the join of
    every pair of elements, those complements included, with one in the
    frontier."""
    d = seeds[0].d
    elements = [null_subspace(d), full_subspace(d)]

    def add(s):
        if not any(t.same(s) for t in elements):
            elements.append(s)

    for s in seeds:
        add(s)
    frontier = set(range(len(elements)))
    while frontier:
        start = len(elements)
        for i in sorted(frontier):
            add(ortho_s(elements[i]))
        snapshot = len(elements)
        for i in range(snapshot):
            for j in range(i + 1, snapshot):
                if i in frontier or j in frontier:
                    add(meet_s(elements[i], elements[j]))
                    add(join_s(elements[i], elements[j]))
        frontier = set(range(start, len(elements)))
    return _ordered(elements)


def assert_closure_matches(seeds):
    """generate_sublattice gives reference_closure's bases bit for bit, and
    the subspaces, order and complements of the meet and join closure."""
    ortho, embedding = generate_sublattice(seeds)
    ordered, leq, neg = reference_closure(seeds)
    assert len(embedding) == len(ordered)
    assert all(np.array_equal(s.basis, t.basis) for s, t in zip(embedding, ordered))
    assert all(ortho.le(a, b) == leq[a, b] for a in range(ortho.n) for b in range(ortho.n))
    assert ortho.neg == neg
    ordered, leq, neg = meet_join_closure(seeds)
    assert len(embedding) == len(ordered) and all(s.same(t) for s, t in zip(embedding, ordered))
    assert all(ortho.le(a, b) == leq[a, b] for a in range(ortho.n) for b in range(ortho.n))
    assert ortho.neg == neg


@pytest.mark.parametrize("seeds", [d2_seed_subspaces, d3_seed_subspaces,
                                   lambda: two_plane_seeds(3, RNG(64))],
                         ids=["d2", "d3", "c4-3+3"])
def test_closure_matches_the_pairwise_loop(seeds):
    assert_closure_matches(seeds())


def test_closure_joins_each_pair_once(monkeypatch):
    """The closure hands np.linalg.svd one matrix per element for its
    complement and one per pair of elements for their join, and none for
    meets: n(n − 1)/2 + n in all."""
    seeds = two_plane_seeds(3, RNG(64))
    svd, matrices = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        matrices.append(a.shape[0] if a.ndim == 3 else 1)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    _, embedding = generate_sublattice(seeds)
    n = len(embedding)
    assert n == 64 and sum(matrices) == n * (n - 1) // 2 + n


def test_born_valuation_is_a_state_maxmixed(d2_lattice, d3_lattice):
    for ortho, embedding in (d2_lattice, d3_lattice):
        rho = max_mixed(embedding[0].d)
        v = born_valuation(rho, ortho, embedding)
        assert is_state(ortho, v, tolerance=1e-8).passed


def test_born_valuation_random_rhos(d3_lattice):
    ortho, embedding = d3_lattice
    rng = RNG(1234)
    for _ in range(10):
        rho = random_density(3, rng)
        v = born_valuation(rho, ortho, embedding)
        assert is_state(ortho, v, tolerance=1e-8).passed


def test_born_valuation_on_pure_alignment(d2_lattice):
    ortho, embedding = d2_lattice
    v = born_valuation(pure([1, 0]), ortho, embedding)
    aligned = [name for name, s in zip(ortho.names, embedding)
               if s.dim == 1 and abs(v.value(name) - 1) < 1e-12]
    assert len(aligned) == 1


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_born_values_stay_in_range(seed):
    rng = RNG(seed)
    d = int(rng.integers(2, 5))
    rho = random_density(d, rng)
    s = random_subspace(d, int(rng.integers(1, d + 1)), rng)
    p = born(rho, s)
    assert 0.0 <= p <= 1.0


def test_subspaces_compare_by_identity():
    """== and hash are by identity, so neither touches the numpy basis;
    geometric equality is same()."""
    a = subspace_from_vectors(2, [[1, 0]])
    b = subspace_from_vectors(2, [[1, 0]])
    assert a == a and a != b and a.same(b)
    assert len({a, b, a}) == 2


R = 1 / math.sqrt(2)


@pytest.mark.parametrize("noise_seed", [0, 1, 2])
@pytest.mark.parametrize("rays", [[[1, 0], [R, R]],
                                  [[1, 0, 0], [0, 1, 0], [0, 0, 1], [R, R, 0]]],
                         ids=["d2", "d3"])
def test_perturbed_seeds_give_the_same_report(rays, noise_seed, tmp_path, capsys):
    """Seeds moved by up to 1e-11 in each real and imaginary part close to
    the same lattice: the hilbert JSON is the same in every key but the
    printed bases."""
    rng = RNG(noise_seed)
    exact = np.array(rays, dtype=np.complex128)
    noise = rng.uniform(-1, 1, exact.shape) + 1j * rng.uniform(-1, 1, exact.shape)
    reports = []
    for vectors in (exact, exact + 1e-11 * noise):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps([[[z.real, z.imag] for z in v] for v in vectors]))
        assert main(["hilbert", str(path), "--dot", "--scan", "ie"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0].pop("embedding") != reports[1].pop("embedding")
    assert reports[0] == reports[1]


def _line(d, rng, support):
    v = np.zeros(d, dtype=np.complex128)
    v[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    return subspace_from_vectors(d, [v])


@settings(max_examples=20, deadline=None)
@given(d=st.integers(min_value=2, max_value=4), k=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=10_000))
def test_batched_closure_matches_the_pairwise_loop(d, k, seed):
    """Random lines in orthogonal blocks of at most two coordinates close
    to a finite lattice.  A repeated seed and the complement of a seed make
    duplicates among the seeds, and every round's pairs repeat elements."""
    rng = RNG(seed)
    blocks = [list(range(b, min(b + 2, d))) for b in range(0, d, 2)]
    seeds = [_line(d, rng, block) for block in blocks for _ in range(k if len(block) == 2 else 1)]
    seeds += [seeds[0], ortho_s(seeds[-1])]
    assert_closure_matches(seeds)


def test_closure_cap_inside_a_round_of_pairs():
    """Rounds 1 and 2 of the MO(3) x MO(3) closure keep 40 elements.  Cap 35
    stops round 2 among its joins, and cap 40 stops round 3 at the first
    complement it keeps, each at the element past the cap, as the pairwise
    loop would."""
    from qlprob.core import CapExceeded

    for cap in (35, 40):
        with pytest.raises(CapExceeded, match=rf"^hilbert closure reached {cap + 1} subspaces, cap {cap}$"):
            generate_sublattice(two_plane_seeds(3, RNG(64)), cap=cap)


def test_closure_rejects_a_non_orthonormal_candidate(monkeypatch):
    """Every stacked SVD in the closure is checked: with the left singular
    vectors of the stacks scaled by 1 + 1e-7, the pair candidates fail
    the orthonormality test, duplicates or not."""
    seeds = d2_seed_subspaces()
    svd = np.linalg.svd

    def scaled(a, *args, **kwargs):
        u, sigma, vh = svd(a, *args, **kwargs)
        return (u * (1 + 1e-7) if a.shape[0] > 1 else u), sigma, vh

    monkeypatch.setattr(np.linalg, "svd", scaled)
    with pytest.raises(ValueError, match="not orthonormal"):
        generate_sublattice(seeds)


def test_closure_survivors_meet_the_elements_kept_in_their_batch(monkeypatch):
    """Lines e1, e2, (e1 + e2)/√2 and the plane e1e3 in C^4: the first round
    joins the 15 pairs of its 6 elements in one batch, which holds
    candidates of rank 1 (0 ∨ e1), 2 (e1 ∨ e2) and 3 (e2 ∨ e1e3).  No element
    kept before the batch is the e1e2 plane or e4⊥, so the three joins to
    the plane and the two to e4⊥ all pass the batch test, and the later
    ones meet the first among the survivors, one search across both ranks."""
    seeds = [subspace_from_vectors(4, [v]) for v in ([1, 0, 0, 0], [0, 1, 0, 0], [R, R, 0, 0])]
    seeds.append(subspace_from_vectors(4, [[1, 0, 0, 0], [0, 0, 1, 0]]))
    pair_candidates, first_within = hilbert._pair_candidates, hilbert._first_within
    batches, lookups = [], []

    def candidates(*args):
        batches.append((len(lookups), pair_candidates(*args)))
        return batches[-1][1]

    monkeypatch.setattr(hilbert, "_pair_candidates", candidates)
    monkeypatch.setattr(hilbert, "_first_within",
                        lambda stack, p: lookups.append((len(stack), first_within(stack, p))) or lookups[-1][1])
    assert_closure_matches(seeds)
    first, (_, ranks) = batches[0]
    assert len(ranks) == 15 and {1, 2, 3} <= set(ranks)
    # the batch's five survivor lookups search only the elements kept in the batch:
    # the plane is kept, two joins find it, e4⊥ is kept, and one join finds it
    assert lookups[first:first + 5] == [(0, None), (1, 0), (1, 0), (1, None), (2, 1)]
