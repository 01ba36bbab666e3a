"""Law checks along the axiom ladder, compatibility and block structure.

The distributive and modular laws are first decided by tests that are
not cubic and read no meet or join row: join-irreducibles are
join-prime, and the covers are upper and lower semimodular.  Only when
a test fails does an exhaustive scan run, over the rows that _rows
builds when first read, to report the first failing witness in index
order, so results are deterministic however the loops are arranged.
Each scan skips the elements at which its law holds by the order
alone, so it builds few rows.  The orthomodular law
holds in a distributive lattice; otherwise it is one scan of bit tests
over comparable pairs.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import combinations
from typing import NamedTuple

from .core import (
    CapExceeded,
    Lattice,
    NotOrthomodular,
    OrthoLattice,
    Poset,
    Record,
    _bits,
)

# maximal_blocks lists at most this many; past it classify reports a cut list.
MAX_BLOCKS = 64


class Witness(NamedTuple):
    law: str
    elements: tuple[int, ...]


def _join_irreducibles(poset: Poset) -> list[int]:
    """The elements with exactly one lower cover: over the extension,
    the highest member of the strict down-set is a lower cover, and its
    down-set is the whole strict down-set."""
    order, down, _ = poset.extension
    return [j for j, d in enumerate(down)   # j is the highest member of its down-set
            if (s := d ^ 1 << d.bit_length() - 1) and down[order[s.bit_length() - 1]] == s]


def _join_primes(lattice: Lattice) -> bool:
    """Every join-irreducible j is join-prime: the elements not above j
    have a greatest element, so no join of two of them is above j.  A
    finite lattice is distributive iff this holds (Davey & Priestley
    2002).  Over the extension, that set has a greatest element iff its
    highest member has the whole set as its down-set."""
    order, down, up = lattice.extension
    everything = (1 << lattice.n) - 1
    return all(down[order[(s := everything ^ up[j]).bit_length() - 1]] == s
               for j in _join_irreducibles(lattice))


def _rows(lattice: Lattice):
    """M(a) and J(a), the meet and join rows of a as lists indexed by the
    other operand, each built from Lattice.meet or join on its first
    call and kept for as long as the caller keeps the pair: one scan."""
    others = range(lattice.n)
    return (cache(lambda a: [lattice.meet(a, b) for b in others]),
            cache(lambda a: [lattice.join(a, b) for b in others]))


def check_distributive(lattice: Lattice) -> Witness | None:
    """x^(yvz) = (x^y)v(x^z) for all triples.  In a lattice this law
    implies its dual (Davey & Priestley 2002), so one law decides.  The
    join-prime test decides it; only when that fails does the triple
    scan run, for the first witness in index order, and only in rows x
    where a join-irreducible y fails: x ^ - keeps every join once it keeps
    those with join-irreducibles, and the law is symmetric in y and z.
    Each y >= x is skipped, for there both sides are x."""
    if _join_primes(lattice):
        return None
    M, J = _rows(lattice)

    def first_z(x, y):  # x ^ (y v z) against (x ^ y) v (x ^ z), by z
        mx = M(x)
        lhs, rhs = list(map(mx.__getitem__, J(y))), list(map(J(mx[y]).__getitem__, mx))
        return None if lhs == rhs else next(z for z, (l, r) in enumerate(zip(lhs, rhs)) if l != r)

    irreducible, up = _join_irreducibles(lattice), lattice.up
    for x in range(lattice.n):
        if any(first_z(x, j) is not None for j in irreducible if not up[x] >> j & 1):
            y = next(y for y in range(lattice.n) if not up[x] >> y & 1 and first_z(x, y) is not None)
            return Witness("distributive", (x, y, first_z(x, y)))
    return None


def _semimodular(lattice: Lattice) -> bool:
    """Upper and lower semimodularity on the covers: two distinct upper
    covers of an element are both covered by their join, and dually.  A
    lattice of finite length is modular iff it is both (Birkhoff 1967;
    Stern 1999).  Two distinct upper covers a, b of an element satisfy
    it iff they have a common upper cover c, for then c >= a v b > a,
    so c = a v b: one AND of their upper-cover bitmasks; dually with
    lower covers and meets."""
    upper, lower = [0] * lattice.n, [0] * lattice.n   # cover bitmasks
    for lo, hi in lattice.covers:
        upper[lo] |= 1 << hi
        lower[hi] |= 1 << lo
    return all(near[a] & near[b] for near in (upper, lower)
               for mask in near for a, b in combinations(_bits(mask), 2))


def check_modular(lattice: Lattice) -> Witness | None:
    """x v (a^b) = (x v a) ^ b for all (x, a, b) with x <= b.  The
    semimodularity test decides it; only when that fails does the scan
    run, for the first witness in index order, and only over a
    incomparable to x: if a <= x, both sides are x, as a^b <= x <= b;
    if x <= a, both sides are a^b, as x <= a^b."""
    if _semimodular(lattice):
        return None
    M, J = _rows(lattice)
    up, down, everything = lattice.up, lattice.down, (1 << lattice.n) - 1
    for x in range(lattice.n):
        above = list(_bits(up[x]))
        for a in _bits(everything ^ (up[x] | down[x])):
            jx, ma = J(x), M(a)
            rhs = M(jx[a])
            for b in above:
                if jx[ma[b]] != rhs[b]:            # x v (a ^ b) against (x v a) ^ b
                    return Witness("modular", (x, a, b))
    return None


def check_orthomodular(ortho: OrthoLattice) -> Witness | None:
    """Scan all pairs x <= b for x v (neg(x) ^ b) = b, the meet and the
    join each one bit test over the extension.  A distributive lattice
    keeps the law, x v (neg(x) ^ b) = (x v neg(x)) ^ (x v b) = b, so the
    join-prime test runs first and the scan only when it fails."""
    if _join_primes(ortho):
        return None
    order, down, up = ortho.extension
    for x in range(ortho.n):
        ux, dnx = up[x], down[ortho.neg[x]]
        for b in _bits(ortho.up[x]):
            s = ux & up[order[(dnx & down[b]).bit_length() - 1]]
            if order[(s ^ s - 1).bit_length() - 1] != b:
                return Witness("orthomodular", (x, b))
    return None


@lru_cache(maxsize=1)
def _orthomodular_witness(ortho: OrthoLattice) -> Witness | None:
    return check_orthomodular(ortho)


def require_orthomodular(ortho: OrthoLattice) -> None:
    """Raise NotOrthomodular, naming the witness elements, unless the
    orthomodular law holds."""
    witness = _orthomodular_witness(ortho)
    if witness is not None:
        raise NotOrthomodular(tuple(ortho.names[e] for e in witness.elements))


def compatibility_matrix(ortho: OrthoLattice) -> tuple[tuple[bool, ...], ...]:
    """C[a][b] true when a = (a^b) v (a^neg(b))."""
    meet, join, neg = ortho.meet, ortho.join, ortho.neg
    return tuple(tuple(join(meet(a, b), meet(a, neg[b])) == a for b in range(ortho.n))
                 for a in range(ortho.n))


def iter_blocks(ortho: OrthoLattice):
    """Every block of the OML, uncapped, each as {element: the block atoms
    below it}.

    In a finite OML every block atom is an atom of L (an element below
    one would be compatible with the whole block), so blocks are the
    Boolean closures of the maximal pairwise-orthogonal atom sets.  Those
    are the maximal cliques of the atom-orthogonality graph, found by
    Bron-Kerbosch with pivoting (Bron & Kerbosch 1973; Tomita et al.
    2006); each closure joins in one clique atom at a time.
    """
    require_orthomodular(ortho)
    atoms = ortho.atoms
    # b is orthogonal to a iff b <= neg(a); filling each set in index order
    # keeps its layout, and so the pivot tie-break below, deterministic
    down, mask = ortho.down, ortho.atom_mask
    adjacent = {a: set(_bits(down[ortho.neg[a]] & mask)) - {a} for a in atoms}

    def cliques(clique: list[int], cand: set[int], done: set[int]):
        if not cand and not done:
            yield clique
            return
        pivot = max(cand | done, key=lambda u: len(cand & adjacent[u]))
        for v in sorted(cand - adjacent[pivot]):
            yield from cliques(clique + [v], cand & adjacent[v], done & adjacent[v])
            cand.remove(v)
            done.add(v)

    for clique in cliques([], set(atoms), set()):
        block = {ortho.bottom: ()}
        for a in clique:
            block.update([(ortho.join(x, a), below + (a,)) for x, below in block.items()])
        yield block


def maximal_blocks(ortho: OrthoLattice) -> tuple[tuple[int, ...], ...]:
    """Maximal Boolean sublattices (blocks) from iter_blocks, in canonical
    sorted order.  Past MAX_BLOCKS, raises CapExceeded with the first
    MAX_BLOCKS blocks found, in canonical order, as partial.
    """
    blocks: list[tuple[int, ...]] = []
    for block in iter_blocks(ortho):
        if len(blocks) == MAX_BLOCKS:
            raise CapExceeded(f"more than {MAX_BLOCKS} maximal blocks", partial=tuple(sorted(blocks)))
        blocks.append(tuple(sorted(block)))
    return tuple(sorted(blocks))


class ClassificationReport(Record):
    """Ladder flags of a lattice, with law witnesses and the block
    decomposition.

    is_orthomodular is None for a lattice without a negation, and blocks
    is None unless the lattice is orthomodular; witnesses maps a law name
    to the first failing witness.  blocks_truncated marks a block list
    cut at MAX_BLOCKS.
    """

    names: tuple[str, ...]
    is_ortholattice: bool
    is_distributive: bool
    is_modular: bool
    is_orthomodular: bool | None
    is_boolean: bool
    is_atomic: bool
    is_atomistic: bool
    witnesses: dict[str, Witness]
    blocks: tuple[tuple[int, ...], ...] | None
    blocks_truncated: bool = False

    def witness_names(self, law: str) -> tuple[str, ...]:
        return tuple(self.names[e] for e in self.witnesses[law].elements)


def classify(lattice: Lattice) -> ClassificationReport:
    """Run the full axiom ladder on a built lattice or ortholattice."""
    ortho = lattice if isinstance(lattice, OrthoLattice) else None

    w_dist = check_distributive(lattice)
    w_mod = None if w_dist is None else check_modular(lattice)   # distributive implies modular
    w_omod = None if ortho is None else _orthomodular_witness(ortho)
    witnesses = {w.law: w for w in (w_dist, w_mod, w_omod) if w is not None}
    is_omod = None if ortho is None else w_omod is None
    blocks, truncated = None, False
    if is_omod:
        try:
            blocks = maximal_blocks(ortho)
        except CapExceeded as exc:
            blocks, truncated = exc.partial, True

    return ClassificationReport(
        names=lattice.names,
        is_ortholattice=ortho is not None,
        is_distributive=w_dist is None,
        is_modular=w_mod is None,
        is_orthomodular=is_omod,
        is_boolean=(ortho is not None) and w_dist is None,
        is_atomic=lattice.is_atomic(),
        is_atomistic=lattice.is_atomistic(),
        witnesses=witnesses,
        blocks=blocks,
        blocks_truncated=truncated,
    )

