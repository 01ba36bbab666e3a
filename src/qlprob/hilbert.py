"""Subspace lattices of finite-dimensional complex inner-product spaces.

Events are closed subspaces; meet is intersection, join is the span of
the union, negation is the orthogonal complement, and a density matrix
rho turns each subspace P into the number tr(rho P).  Everything here is
floating point: subspaces compare equal when their projectors are within
EQUALITY_TOL in Frobenius norm, and basis orthonormality is maintained
to ORTHONORMAL_TOL.  The two thresholds are kept two orders of
magnitude apart so rank decisions never contradict equality decisions.
The closure forms only joins and complements: a meet is ¬(¬a ∨ ¬b).
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice

from .core import CapExceeded, OrthoLattice, Record, Refusal, attach_ortho, build_poset, lattice_check
from .states import Valuation

import numpy as np  # last: qlprob's modules compiled after numpy raise the peak RSS

ORTHONORMAL_TOL = 1e-10
EQUALITY_TOL = 1e-8
DENSITY_TOL = 1e-10  # a density matrix's Hermitian defect, negative eigenvalue and trace defect
BORN_SLACK = 1e-10  # how far outside [0, 1] a trace value is clamped rather than refused
KEY_DECIMALS = 9  # projector entries are rounded to this many decimals to order the elements
MAX_DIMENSION = 8
PAIR_CHUNK = 64  # closure pairs joined per batch of stacked SVDs; bounds the batch's memory


class DimensionMismatch(ValueError):
    pass


class NumericalBreakdown(Refusal):
    pass


def _check_dimension(d: int):
    if not 1 <= d <= MAX_DIMENSION:
        raise DimensionMismatch(f"ambient dimension {d} outside 1..{MAX_DIMENSION}")


class Subspace(Record, eq=False):
    """Orthonormal column basis of a subspace; zero columns for the
    null subspace.  == and hash are by identity; geometric equality is
    same()."""

    d: int
    basis: np.ndarray  # complex128, shape (d, k)

    def __post_init__(self):
        self.basis.setflags(write=False)
        gram = self.basis.conj().T @ self.basis
        # element-wise and absolute; a NaN entry fails the test too
        if not (np.abs(gram - np.eye(self.dim)) <= ORTHONORMAL_TOL).all():
            raise ValueError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def _projector(self) -> np.ndarray:
        p = self.basis @ self.basis.conj().T
        p.setflags(write=False)
        return p

    def projector(self) -> np.ndarray:
        """The orthogonal projector, computed once; read-only."""
        return self._projector

    def same(self, other: "Subspace") -> bool:
        if self.d != other.d:
            raise DimensionMismatch(f"{self.d} vs {other.d}")
        gap = np.linalg.norm(self.projector() - other.projector())
        return gap < EQUALITY_TOL

    def contains(self, other: "Subspace") -> bool:
        p = self.projector()
        q = other.projector()
        return np.linalg.norm(p @ q - q) < EQUALITY_TOL


def _svd_bases(mats: np.ndarray, widths: list[int], complement: bool = False):
    """One SVD per width w of the first w columns of each matrix: thin for the
    span, ranked against ORTHONORMAL_TOL times the largest singular value, or
    full for the complement of an orthonormal basis (the last d − w left
    singular vectors).  Returns (m, d, d) bases, exact zeros past each rank, and ranks."""
    d, widths = mats.shape[1], np.array(widths)
    bases, ranks = np.zeros((len(mats), d, d), dtype=np.complex128), widths.copy()
    for w in set(widths.tolist()):
        rows = np.flatnonzero(widths == w)
        u, sigma, _ = np.linalg.svd(mats[rows, :, :w], full_matrices=complement)
        gap = u.conj().transpose(0, 2, 1) @ u - np.eye(u.shape[2])  # Subspace's test, on all of u
        if not (np.abs(gap) <= ORTHONORMAL_TOL).all():
            raise ValueError("basis columns are not orthonormal")
        if complement:
            bases[rows, :, :d - w], ranks[rows] = u[:, :, w:], d - w
        else:
            ranks[rows] = np.count_nonzero(sigma > ORTHONORMAL_TOL * sigma[:, :1], axis=1)
            bases[rows, :, :u.shape[2]] = np.where(np.arange(u.shape[2]) < ranks[rows, None, None], u, 0)
    return bases, ranks.tolist()


def subspace_from_vectors(d: int, vectors) -> Subspace:
    """Orthonormalize a spanning set; rank from singular values against
    ORTHONORMAL_TOL times the largest."""
    _check_dimension(d)
    vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
    for v in vecs:
        if v.shape[0] != d:
            raise DimensionMismatch(f"vector of length {v.shape[0]} in dimension {d}")
    bases, ranks = _svd_bases(np.array(vecs, dtype=np.complex128).reshape(-1, d).T[None], [len(vecs)])
    return Subspace(d, bases[0, :, :ranks[0]].copy())


def null_subspace(d: int) -> Subspace:
    _check_dimension(d)
    return Subspace(d, np.zeros((d, 0), dtype=np.complex128))


def full_subspace(d: int) -> Subspace:
    _check_dimension(d)
    return Subspace(d, np.eye(d, dtype=np.complex128))


def ortho_s(a: Subspace) -> Subspace:
    """Orthogonal complement via the full singular basis."""
    bases, dims = _svd_bases(a.basis[None], [a.dim], complement=True)
    return Subspace(a.d, bases[0, :, :dims[0]].copy())


def join_s(a: Subspace, b: Subspace) -> Subspace:
    if a.d != b.d:
        raise DimensionMismatch(f"{a.d} vs {b.d}")
    return subspace_from_vectors(a.d, [*a.basis.T, *b.basis.T])


def meet_s(a: Subspace, b: Subspace) -> Subspace:
    # intersection through the complement of the span of complements
    return ortho_s(join_s(ortho_s(a), ortho_s(b)))


class DensityMatrix(Record):
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        _check_dimension(m.shape[0])
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)
        if not np.isfinite(m).all():  # first: a NaN would pass each test below
            raise ValueError("density matrix has a NaN or infinite entry")
        if np.linalg.norm(m - m.conj().T) >= DENSITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        eigenvalues = np.linalg.eigvalsh(m)
        if eigenvalues.min() <= -DENSITY_TOL:
            raise ValueError(f"negative eigenvalue {eigenvalues.min():.3e}")
        if abs(np.trace(m).real - 1) >= DENSITY_TOL:
            raise ValueError(f"trace {np.trace(m).real} is not 1")

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


def max_mixed(d: int) -> DensityMatrix:
    _check_dimension(d)
    return DensityMatrix(np.eye(d, dtype=np.complex128) / d)


def pure(vector) -> DensityMatrix:
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    if not np.isfinite(v).all():
        raise ValueError("pure state vector has a NaN or infinite entry")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("pure state vector must be nonzero")
    v = v / norm
    return DensityMatrix(np.outer(v, v.conj()))


def random_density(d: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank sample G G† / tr from a standard complex Gaussian G."""
    _check_dimension(d)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def born(rho: DensityMatrix, subspace: Subspace) -> float:
    """tr(rho P), guaranteed real in [0,1] up to clamping at BORN_SLACK."""
    if rho.d != subspace.d:
        raise DimensionMismatch(f"{rho.d} vs {subspace.d}")
    value = float(np.trace(rho.matrix @ subspace.projector()).real)
    if not -BORN_SLACK <= value <= 1 + BORN_SLACK:  # a NaN is outside too
        raise NumericalBreakdown(f"trace value {value} outside the unit interval")
    return min(1.0, max(0.0, value))


def _canonical_key(s: Subspace):
    rounded = np.round(s.projector(), KEY_DECIMALS) + 0.0  # normalize -0.0
    return (s.dim, tuple(rounded.real.ravel()), tuple(rounded.imag.ravel()))


def _first_within(stack: np.ndarray, p: np.ndarray) -> int | None:
    """Index of the first projector in stack within EQUALITY_TOL of p in
    Frobenius norm: the match a loop over Subspace.same would find."""
    gaps = np.linalg.norm((stack - p).reshape(len(stack), p.size), axis=1)
    hits = np.flatnonzero(gaps < EQUALITY_TOL)
    return int(hits[0]) if hits.size else None


def _pair_candidates(i, j, bases, dims):
    """join(i[t], j[t]) as candidate t, with the arithmetic of join_s on padded
    bases and dimensions: j's columns follow i's."""
    d = bases.shape[1]
    mats = np.zeros((len(i), d, 2 * d), dtype=np.complex128)
    mats[:, :, :d] = bases[i]
    for k in set(dims[a] for a in i):
        rows = [t for t, a in enumerate(i) if dims[a] == k]
        mats[rows, :, k:k + d] = bases[[j[t] for t in rows]]
    return _svd_bases(mats, [dims[a] + dims[b] for a, b in zip(i, j)])


def generate_sublattice(seeds, cap: int = 256) -> tuple[OrthoLattice, tuple[Subspace, ...]]:
    """Close the seeds under join and complement, which closes them under
    meet too, then rebuild the result as a verified abstract ortholattice.

    Returns the lattice together with the element-indexed subspace
    embedding.  Closure is breadth-first, and a candidate is kept unless
    an element kept before it lies within EQUALITY_TOL.  A round adds the
    complements of its frontier, then joins once each pair of elements
    held before them with one in the frontier, PAIR_CHUNK pairs to a batch
    of stacked SVDs; a batch's candidates meet the elements kept before it
    in one array operation, each only those of its own rank, and the
    survivors then meet those kept within it one by one.  Element order
    is by (dimension, projector entries), which keeps runs deterministic."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed subspace required")
    d = seeds[0].d
    for s in seeds:
        if s.d != d:
            raise DimensionMismatch(f"{s.d} vs {d}")

    elements: list[Subspace] = []
    perps: list[Subspace] = []  # ortho_s(elements[i]), from the round element i is frontier
    store = np.zeros((16, 2, d, d), dtype=np.complex128)  # projector and zero-padded basis

    def keep(s: Subspace):
        nonlocal store
        if len(elements) == len(store):
            store = np.concatenate([store, np.zeros_like(store)])
        store[len(elements), 0], store[len(elements), 1, :, :s.dim] = s.projector(), s.basis
        elements.append(s)

    def add(projectors, ranks, build):
        """Keep each candidate in turn unless an element lies within EQUALITY_TOL:
        first against the elements kept before the batch, of its rank only, as
        ‖P − Q‖²_F ≥ |rk P − rk Q|; then, for the survivors, those kept since."""
        start, ranks, kept = len(elements), np.array(ranks), np.array([s.dim for s in elements])
        fresh = np.ones(len(ranks), dtype=bool)
        for r in set(ranks.tolist()):
            rows, old = np.flatnonzero(ranks == r), store[np.flatnonzero(kept == r), 0]
            gaps = np.linalg.norm((projectors[rows, None] - old).reshape(len(rows), len(old), d * d), axis=2)
            fresh[rows] = ~(gaps < EQUALITY_TOL).any(axis=1)
        for u in np.flatnonzero(fresh).tolist():
            if _first_within(store[start:len(elements), 0], projectors[u]) is None:
                keep(build(u))
                if len(elements) > cap:
                    raise CapExceeded(f"hilbert closure reached {len(elements)} subspaces, cap {cap}")

    keep(null_subspace(d))
    keep(full_subspace(d))
    add(np.array([s.projector() for s in seeds]), [s.dim for s in seeds], seeds.__getitem__)
    # every round's frontier is the run of elements the round before added
    frontier = range(len(elements))
    while frontier:
        start, dims = len(elements), [s.dim for s in elements]
        bases, ranks = _svd_bases(store[frontier.start:start, 1], dims[frontier.start:], complement=True)
        perps += [Subspace(d, basis[:, :r].copy()) for basis, r in zip(bases, ranks)]
        add(np.array([s.projector() for s in perps[frontier.start:]]), ranks, lambda u: perps[frontier[u]])
        pairs = ((i, j) for i in range(start) for j in range(max(i + 1, frontier.start), start))
        while chunk := list(islice(pairs, PAIR_CHUNK)):
            i, j = map(list, zip(*chunk))
            bases, ranks = _pair_candidates(i, j, store[:start, 1], dims)
            # rank 0 is element 0; a rank-d basis passed the orthonormality test, so its
            # projector lies within d * ORTHONORMAL_TOL < EQUALITY_TOL of element 1
            live = [u for u, r in enumerate(ranks) if 0 < r < d]
            add(bases[live] @ bases[live].conj().transpose(0, 2, 1), [ranks[u] for u in live],
                lambda u: Subspace(d, bases[live[u], :, :ranks[live[u]]].copy()))
        frontier = range(start, len(elements))

    order = sorted(range(len(elements)), key=lambda i: _canonical_key(elements[i]))
    ordered = [elements[i] for i in order]
    projectors = store[order, 0]
    n = len(ordered)
    names = ["0"] + [f"s{i}" for i in range(1, n - 1)] + ["1"]

    # leq[i, j]: ordered[j] contains ordered[i], that is P_j P_i = P_i
    leq = np.zeros((n, n), dtype=bool)
    for i, p in enumerate(projectors):
        leq[i] = np.linalg.norm((projectors @ p - p).reshape(n, -1), axis=1) < EQUALITY_TOL
    # every strict inclusion; the closure adds a pair only where
    # inclusion fails to be transitive
    strict = leq & ~np.eye(n, dtype=bool)
    poset = build_poset(names, [(names[i], names[j]) for i, j in np.argwhere(strict)],
                        bottom="0", top="1")
    if poset.up != tuple(sum(1 << j for j in np.flatnonzero(row).tolist()) for row in leq):
        raise NumericalBreakdown("subspace inclusion order is not transitive")
    lattice = lattice_check(poset)
    pairs = []
    for i, k in enumerate(order):
        j = _first_within(projectors, perps[k].projector())
        if j is None:
            raise NumericalBreakdown(f"complement of element {names[i]} left the closure")
        if i <= j:
            pairs.append((names[i], names[j]))
    ortho = attach_ortho(lattice, pairs)
    return ortho, tuple(ordered)


def born_valuation(rho: DensityMatrix, ortho: OrthoLattice, embedding) -> Valuation:
    """The trace valuation of rho on a generated lattice."""
    if rho.d != embedding[0].d:
        raise DimensionMismatch(f"{rho.d} vs {embedding[0].d}")
    return Valuation(ortho, tuple(born(rho, s) for s in embedding))
