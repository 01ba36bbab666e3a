"""Reference models of the benchmark's lattices, built without qlprob.

Each model is a finite bounded poset given by element names and
covering pairs, with an optional orthocomplement.  Orders are Python
int bitsets; meets and joins are found by brute force: the meet of a and
b exists exactly when the common lower set down(a) & down(b) is itself
the down-set of some element, and that element is the meet.  The
checkers compare the program's printed output with these models.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


class Model:
    """A finite bounded poset with brute-force lattice operations.

    flags holds ladder flags known from theory (keys as in the CLI's
    classify report); brute_flags() recomputes them by exhaustive scans
    for small models."""

    def __init__(self, name, names, covers, neg=None, flags=None):
        self.name = name
        self.names = list(names)
        self.index = {x: i for i, x in enumerate(self.names)}
        n = len(self.names)
        above = [[] for _ in range(n)]
        for lo, hi in covers:
            above[self.index[lo]].append(self.index[hi])
        self.covers = {(self.index[lo], self.index[hi]) for lo, hi in covers}
        self.up = order_from_covers(n, above)
        self.down = [0] * n
        for a in range(n):
            for b in bits(self.up[a]):
                self.down[b] |= 1 << a
        self._by_down = {m: i for i, m in enumerate(self.down)}
        self._by_up = {m: i for i, m in enumerate(self.up)}
        self.bottom = next(i for i in range(n) if self.up[i] == (1 << n) - 1)
        self.top = next(i for i in range(n) if self.down[i] == (1 << n) - 1)
        self.neg = None if neg is None else [self.index[neg[x]] for x in self.names]
        self.flags = dict(flags or {})

    @property
    def n(self):
        return len(self.names)

    def le(self, a, b):
        return bool(self.up[a] >> b & 1)

    def meet(self, a, b):
        return self._by_down.get(self.down[a] & self.down[b])

    def join(self, a, b):
        return self._by_up.get(self.up[a] & self.up[b])

    def join_all(self, elems):
        acc = self.bottom
        for e in elems:
            acc = self.join(acc, e)
        return acc

    @property
    def atoms(self):
        return [x for x in range(self.n)
                if x != self.bottom and self.down[x] == (1 << self.bottom) | (1 << x)]

    def orthogonal(self, a, b):
        return self.le(a, self.neg[b])

    # -- ladder ------------------------------------------------------------

    def violates(self, law, elements):
        """Whether a reported witness really breaks its law here."""
        m, j = self.meet, self.join
        if law == "distributive":
            x, y, z = elements
            return m(x, j(y, z)) != j(m(x, y), m(x, z))
        if law == "distributive-dual":
            x, y, z = elements
            return j(x, m(y, z)) != m(j(x, y), j(x, z))
        if law == "modular":
            x, a, b = elements
            return self.le(x, b) and j(x, m(a, b)) != m(j(x, a), b)
        if law == "orthomodular":
            x, b = elements
            return self.le(x, b) and j(x, m(self.neg[x], b)) != b
        raise ValueError(f"unknown law {law!r}")

    def is_atomic(self):
        atoms = 0
        for a in self.atoms:
            atoms |= 1 << a
        return all(self.down[x] & atoms for x in range(self.n) if x != self.bottom)

    def is_atomistic(self):
        atoms = self.atoms
        return all(
            self.join_all(a for a in atoms if self.le(a, x)) == x for x in range(self.n)
        )

    def brute_flags(self):
        """Every ladder flag by exhaustive scans; O(n^3), small models only."""
        r = range(self.n)
        dist = not any(self.violates("distributive", t) for t in _triples(r))
        mod = not any(self.violates("modular", t) for t in _triples(r))
        flags = {
            "is_lattice": all(self.meet(a, b) is not None and self.join(a, b) is not None
                              for a in r for b in r),
            "is_ortholattice": self.neg is not None,
            "is_distributive": dist,
            "is_modular": mod,
            "is_orthomodular": None,
            "is_boolean": self.neg is not None and dist,
            "is_atomic": self.is_atomic(),
            "is_atomistic": self.is_atomistic(),
        }
        if self.neg is not None:
            flags["is_orthomodular"] = not any(
                self.violates("orthomodular", (x, b)) for x in r for b in r
            )
        return flags

    # -- blocks and states -------------------------------------------------

    def atom_cliques(self):
        """Maximal sets of pairwise orthogonal atoms (Bron-Kerbosch with
        pivoting), each as a sorted tuple of element indices."""
        atoms = self.atoms
        nbr = {a: {b for b in atoms if b != a and self.orthogonal(a, b)} for a in atoms}
        out = []

        def expand(r, p, x):
            if not p and not x:
                out.append(tuple(sorted(r)))
                return
            pivot = max(p | x, key=lambda u: len(nbr[u] & p))
            for v in sorted(p - nbr[pivot]):
                expand(r | {v}, p & nbr[v], x & nbr[v])
                p = p - {v}
                x = x | {v}

        expand(set(), set(atoms), set())
        return sorted(out)

    def blocks(self):
        """Boolean closure of each maximal orthogonal atom set: the joins
        of all its subsets.  In a finite atomistic OML these are exactly
        the maximal Boolean subalgebras."""
        out = set()
        for clique in self.atom_cliques():
            members = frozenset(
                self.join_all(sub)
                for k in range(len(clique) + 1)
                for sub in combinations(clique, k)
            )
            out.add(members)
        return out

    def decomposition(self, x):
        """A pairwise-orthogonal atom set whose join is x (greedy; in an
        atomistic OML any maximal such set below x has join x)."""
        chosen = []
        for a in self.atoms:
            if self.le(a, x) and all(self.orthogonal(a, c) for c in chosen):
                chosen.append(a)
        if self.join_all(chosen) != x:
            raise ValueError(f"{self.names[x]} is no orthogonal join of atoms")
        return chosen

    def block_rows(self):
        """One row per maximal orthogonal atom set: its atoms sum to 1,
        as (coefficient dict over atom names, right side)."""
        return [
            ({self.names[a]: Fraction(1) for a in clique}, Fraction(1))
            for clique in self.atom_cliques()
        ]

    def atom_vertices(self):
        """Vertices of {x >= 0 over atoms, block rows = 1}, enumerated as
        basic feasible solutions with exact Fractions.  Returns a set of
        element-value tuples (value of each element in name order)."""
        atoms = self.atoms
        rows = [[Fraction(1) if a in clique else Fraction(0) for a in atoms]
                for clique in self.atom_cliques()]
        dim = rank(rows)
        columns = [[row[j] for row in rows] for j in range(len(atoms))]
        found = set()

        def extend(chosen, basis, start):
            if len(chosen) == dim:
                point = solve_on_columns(rows, chosen)
                if point is not None and all(v >= 0 for v in point.values()):
                    values = [Fraction(0)] * len(atoms)
                    for j, v in point.items():
                        values[j] = v
                    found.add(tuple(values))
                return
            for j in range(start, len(atoms)):
                if len(atoms) - j < dim - len(chosen):
                    return
                grown = independent_extend(basis, columns[j])
                if grown is not None:
                    extend(chosen + [j], grown, j + 1)

        extend([], [], 0)
        decomp = [[atoms.index(a) for a in self.decomposition(x)] for x in range(self.n)]
        return {tuple(sum((v[j] for j in d), Fraction(0)) for d in decomp) for v in found}


def _triples(r):
    return ((x, y, z) for x in r for y in r for z in r)


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def order_from_covers(n, above):
    """Up-set bitmask of every element: reflexive-transitive closure of
    the cover graph, by memoised depth-first search."""
    up = [None] * n
    for start in range(n):
        stack = [(start, iter(above[start]))]
        while stack:
            node, it = stack[-1]
            child = next(it, None)
            if child is None:
                stack.pop()
                mask = 1 << node
                for c in above[node]:
                    mask |= up[c]
                up[node] = mask
            elif up[child] is None:
                stack.append((child, iter(above[child])))
    return up


# -- exact linear algebra on Fraction rows ----------------------------------

def echelon(rows):
    """Nonzero rows of a row echelon form, exact."""
    rows = [list(r) for r in rows]
    width = len(rows[0]) if rows else 0
    r = 0
    for col in range(width):
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]


def rank(rows):
    return len(echelon(rows))


def independent_extend(basis, vector):
    """basis is a list of (pivot column, row) pairs, each row zero at the
    pivots before it; returns the grown basis when vector is independent
    of it, else None."""
    v = list(vector)
    for col, row in basis:
        if v[col]:
            f = v[col] / row[col]
            v = [x - f * y for x, y in zip(v, row)]
    col = next((i for i, x in enumerate(v) if x), None)
    if col is None:
        return None
    return basis + [(col, v)]


def solve_on_columns(rows, chosen):
    """Solution of rows . x = 1 with x zero off the chosen (independent)
    columns, as {column: value}; None when inconsistent."""
    k = len(chosen)
    aug = [[row[j] for j in chosen] + [Fraction(1)] for row in rows]
    for col in range(k):
        p = next(i for i in range(col, len(aug)) if aug[i][col])
        aug[col], aug[p] = aug[p], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for i in range(len(aug)):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    if any(row[k] for row in aug[k:]):
        return None
    return {chosen[i]: aug[i][k] for i in range(k)}
