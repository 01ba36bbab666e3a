"""Finite bounded posets, lattices and orthocomplemented lattices.

Elements are integer indices into a fixed name table.  Structures are
built from covering relations (Hasse form); the order, their closure, is
kept as up- and down-set bitmasks found in one pass in topological
order.  Each poset caches one linear extension, index order when it is
one, with its cones as bitmasks over positions (Ait-Kaci, Boyer, Lincoln
& Nasr 1989).  Over it meets, joins and Hasse covers are each one bit
test.  A lattice is verified on the pairs of covers of a common element
alone.  A Lattice is a verified Poset with no fields of its own: meet and
join are the one way to read its operations, and a scan that reads a row
of them many times keeps that row itself.  An OrthoLattice is a Lattice
with a verified negation.
All types are immutable once built.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

# A scan over all n^2 pairs, one bit test each, stays at desk scale; a
# hard cap keeps accidental blowups out.
MAX_ELEMENTS = 4096


class LatticeError(Exception):
    """Base class for structure construction and verification errors."""


class DuplicateElement(LatticeError):
    pass


class CycleDetected(LatticeError):
    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"order contains a cycle through elements {pair[0]} and {pair[1]}")


class NotBounded(LatticeError):
    pass


class Refusal(Exception):
    """Well-formed input that has no answer: the CLI exits 1 on this family."""


class CapExceeded(LatticeError, Refusal):
    """A configured size cap was exceeded; carries partial results when any."""

    def __init__(self, message, partial=None):
        self.partial = partial
        super().__init__(message)


class NotALattice(LatticeError):
    """Some pair has no unique greatest lower / least upper bound."""

    def __init__(self, pair, witnesses, kind):
        self.pair = pair
        self.witnesses = tuple(witnesses)
        self.kind = kind  # "meet" or "join"
        word = "maximal lower" if kind == "meet" else "minimal upper"
        super().__init__(
            f"pair {pair} has {len(self.witnesses)} incomparable {word} bounds: "
            f"{list(self.witnesses)}"
        )


class _NegationError(LatticeError):
    """An orthocomplement axiom fails; carries every violating instance."""

    def __init__(self, witnesses):
        self.witnesses = tuple(witnesses)
        super().__init__(self.template.format(list(self.witnesses)))


class NotInvolutive(_NegationError):
    template = "negation is not an involution; witnesses {}"


class NotOrderReversing(_NegationError):
    template = "negation does not reverse the order; violating pairs {}"


class ComplementLawFails(_NegationError):
    template = "complement laws fail; violating instances {}"


class NotOrthomodular(LatticeError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"orthomodular law fails at pair {witness}")


def _bits(mask: int):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def extremal(mask: int, cone: Sequence[int]) -> list[int]:
    """Members m of the bitmask whose cone meets it only in m: the
    maximal members when cone is Poset.up, the minimal ones when it is
    Poset.down."""
    return [m for m in _bits(mask) if cone[m] & mask == 1 << m]


class Record:
    """Base of the immutable records.  A subclass's annotations, after its
    bases', are its fields, given by position or keyword and defaulting to
    class attributes; == and hash go by field, or by identity if eq=False."""

    _fields, _defaults = (), {}

    def __init_subclass__(cls, eq=True):
        own = [name for name in cls.__dict__.get("__annotations__", ()) if name not in cls._fields]
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args), **kwargs)
        values = {**self._defaults, **given}
        if len(given) < len(args) + len(kwargs) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, *value):
        from dataclasses import FrozenInstanceError  # loaded only on this error path
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return type(self), tuple(map(self.__dict__.get, self._fields))

    def __eq__(self, other):
        return isinstance(other, Record) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Poset(Record, eq=False):
    """A finite bounded poset: name table, order as bitmasks, bounds."""

    names: tuple[str, ...]
    up: tuple[int, ...]    # bitmask per element a of {c : a <= c}
    down: tuple[int, ...]  # bitmask per element a of {c : c <= a}
    bottom: int
    top: int

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def le(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    @cached_property
    def extension(self) -> tuple[Sequence[int], tuple[int, ...], tuple[int, ...]]:
        """(order, down, up): the elements of a linear extension by
        position, and each element's down- and up-set as bitmasks over
        positions.  Index order is kept when it is one; otherwise the
        elements go by down-set size and the cones are transposed."""
        if all(d.bit_length() == e + 1 for e, d in enumerate(self.down)):
            return range(self.n), self.down, self.up
        order = tuple(sorted(range(self.n), key=lambda e: self.down[e].bit_count()))
        return (order, _transpose([self.up[e] for e in order], self.n),
                _transpose([self.down[e] for e in order], self.n))

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Covering pairs (lo, hi) of the Hasse diagram, in index order.
        Over the extension the lowest member of what is left of lo's
        strict up-set is an upper cover; peeling it with its up-set away
        gives the next (Ait-Kaci et al. 1989)."""
        order, _, up = self.extension
        pairs = []
        for a in range(self.n):
            rest, row = up[a] & up[a] - 1, []   # a is the lowest member of its up-set
            while rest:
                row.append(b := order[(rest ^ rest - 1).bit_length() - 1])
                rest &= ~up[b]
            pairs += ((a, b) for b in sorted(row))
        return tuple(pairs)


def build_poset(
    names: Sequence[str],
    covering_pairs: Iterable[tuple[str, str]],
    bottom: str | None = None,
    top: str | None = None,
) -> Poset:
    """Build a bounded poset from element names and covering pairs.

    The order is the reflexive-transitive closure of the covers.  Bottom
    and top may be declared (then verified) or inferred; a poset whose
    inferred bounds coincide is rejected, as is an empty one.
    """
    names = tuple(names)
    if not names:
        raise NotBounded("empty element list")
    if len(names) > MAX_ELEMENTS:
        raise CapExceeded(f"{len(names)} elements exceeds the cap of {MAX_ELEMENTS}")
    index = {}
    for i, name in enumerate(names):
        if index.setdefault(name, i) != i:
            raise DuplicateElement(f"element {name!r} declared twice")
    n = len(names)

    above, below = [[] for _ in range(n)], [[] for _ in range(n)]  # covers of each
    for lo, hi in covering_pairs:
        if lo not in index or hi not in index:
            missing = lo if lo not in index else hi
            raise ValueError(f"cover references undeclared element {missing!r}")
        if lo == hi:
            raise ValueError(f"self-cover on element {lo!r}")
        above[index[lo]].append(index[hi])
        below[index[hi]].append(index[lo])

    # Kahn's topological order; each closure is one pass along it
    indegree = [len(lower) for lower in below]
    order = [a for a in range(n) if not indegree[a]]
    for a in order:
        for c in above[a]:
            indegree[c] -= 1
            if not indegree[c]:
                order.append(c)
    if len(order) < n:
        a, b = _first_cycle_pair(above)
        raise CycleDetected((names[a], names[b]))
    up, down = [1 << a for a in range(n)], [1 << a for a in range(n)]
    for a in reversed(order):
        for c in above[a]:
            up[a] |= up[c]
    for a in order:
        for c in below[a]:
            down[a] |= down[c]

    bot = _bound(bottom, up, index, "bottom", "below", "lower")
    tp = _bound(top, down, index, "top", "above", "upper")
    if bot == tp:
        raise NotBounded("top and bottom coincide; the one-element theory is rejected")
    return Poset(names=names, up=tuple(up), down=tuple(down), bottom=bot, top=tp)


def _bound(declared, cones, index, word, side, extent) -> int:
    """The element whose cone (its up-set for the bottom, its down-set for
    the top) is every element: the declared one, verified, or the only one."""
    everything = (1 << len(cones)) - 1
    if declared is None:
        candidates = [a for a, cone in enumerate(cones) if cone == everything]
        if len(candidates) != 1:
            raise NotBounded(f"poset has no global {extent} bound")
        return candidates[0]
    if declared not in index:
        raise ValueError(f"declared {word} {declared!r} is not an element")
    if cones[index[declared]] != everything:
        raise NotBounded(f"declared {word} {declared!r} is not {side} every element")
    return index[declared]


def _first_cycle_pair(above: list[list[int]]) -> tuple[int, int]:
    """The first pair a != b, row-major, with a <= b <= a in the closure of
    a cyclic relation: with no topological order, up-sets grow by sweeps."""
    n, up, last = len(above), [1 << a for a in range(len(above))], None
    while up != last:
        last = up[:]
        for a in reversed(range(n)):
            for c in above[a]:
                up[a] |= up[c]
    return next((a, b) for a in range(n) for b in _bits(up[a] ^ 1 << a) if up[b] >> a & 1)


class Lattice(Poset, eq=False):
    """A poset in which every pair has a meet and a join, each one bit
    test over the extension."""

    def meet(self, a: int, b: int) -> int:
        order, down, _ = self.extension
        return order[(down[a] & down[b]).bit_length() - 1]

    def join(self, a: int, b: int) -> int:
        order, _, up = self.extension
        return order[((s := up[a] & up[b]) ^ s - 1).bit_length() - 1]

    @cached_property
    def atoms(self) -> tuple[int, ...]:
        """Elements covering bottom."""
        down, bot = self.down, self.bottom
        return tuple(x for x in range(self.n) if x != bot and down[x] == 1 << bot | 1 << x)

    @cached_property
    def atom_mask(self) -> int:
        """Bitmask of the atoms."""
        return sum(1 << a for a in self.atoms)

    def is_atomic(self) -> bool:
        """Every nonzero element dominates an atom."""
        return all(d & self.atom_mask for x, d in enumerate(self.down) if x != self.bottom)

    def is_atomistic(self) -> bool:
        """Every element is the join of the atoms below it: the common
        upper bounds of those atoms are exactly the elements above it."""
        up, everything = self.up, (1 << self.n) - 1
        for x, d in enumerate(self.down):
            common = everything
            for a in _bits(d & self.atom_mask):
                common &= up[a]
            if common != up[x]:
                return False
        return True


def lattice_check(poset: Poset) -> Lattice:
    """Verify every pair has a meet and a join.

    Over the positions of Poset.extension, the lowest common upper bound
    of a pair is minimal among them, and it is the join exactly when its
    up-set is all of them; dually for the highest common lower bound and
    the meet.  So each pair is one bit test and one comparison.  Only
    the pairs of upper covers of a common element are tested: in a
    finite bounded poset, if each of them has a join, every pair has
    one, and then every pair has a meet, the join of its common lower
    bounds.  Proof: take a pair (a, b) with no join and, among all such
    pairs, a common lower bound m with the fewest elements above it.
    Take m < x <= a and m < y <= b with x and y covering m.  Then x != y,
    or x would be a common lower bound with fewer elements above it, so
    z = x v y exists.  By the choice of m, w = a v z exists (x is below
    both), and then v = w v b (y is below both).  Every upper bound of a
    and b lies above x and y, so above z, so above w, so above v; and v
    is above a and b.  So v = a v b, a contradiction.

    Only when a cover pair fails does the all-pairs scan run, to raise
    NotALattice at the first failing pair in index order, carrying the
    incomparable bound set as witnesses.
    """
    order, _, up = poset.extension
    order = tuple(order)   # a tuple subscript is cheaper than a range's
    upper = [[] for _ in range(poset.n)]   # up-sets of each element's upper covers
    for lo, hi in poset.covers:
        upper[lo].append(up[hi])
    common = (u & v for cones in upper for u, v in combinations(cones, 2))
    if not all(up[order[(s ^ s - 1).bit_length() - 1]] == s for s in common):
        raise _first_unbounded_pair(poset)
    return _extend(Lattice, poset)


def _first_unbounded_pair(poset: Poset) -> NotALattice:
    """NotALattice at the first pair (a, b), a <= b in index order, that
    lacks a meet or a join: lattice_check's bit test and its dual, on
    every pair."""
    names = poset.names
    order, down, up = poset.extension
    order = tuple(order)
    for a in range(poset.n):
        da, ua = down[a], up[a]
        fails = [down[order[(s := da & d).bit_length() - 1]] != s
                 or up[order[((t := ua & u) ^ t - 1).bit_length() - 1]] != t
                 for d, u in zip(down[a:], up[a:])]
        if True in fails:
            b = a + fails.index(True)
            maximal = extremal(poset.down[a] & poset.down[b], poset.up)
            minimal = extremal(poset.up[a] & poset.up[b], poset.down)
            kind, found = ("meet", maximal) if len(maximal) != 1 else ("join", minimal)
            return NotALattice((names[a], names[b]), [names[m] for m in found], kind)
    raise AssertionError("a cover pair without a join, but every pair is bounded")


def _extend(cls: type, record: Record, *fields) -> Record:
    """A cls record of record's fields and then the given ones, keeping the
    views record has cached, so none is computed twice."""
    larger = cls(*map(record.__dict__.get, record._fields), *fields)
    larger.__dict__.update(record.__dict__)
    return larger


def _transpose(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """Bit matrix transpose: bit p of column c is bit c of rows[p]."""
    digits = [format(row, f"0{n}b") for row in reversed(rows)]
    return tuple(int("".join(column), 2) for column in zip(*digits))[::-1]


def _resolve(poset: Poset, token) -> int:
    if isinstance(token, str):
        return poset.index[token]
    return int(token)


class OrthoLattice(Lattice, eq=False):
    """A lattice with a verified orthocomplementation."""

    neg: tuple[int, ...]

    def orthogonal(self, a: int, b: int) -> bool:
        """a is orthogonal to b when a <= neg(b)."""
        return self.le(a, self.neg[b])


def _build_negation(poset: Poset, neg_pairs) -> tuple[int, ...]:
    n = poset.n
    neg = [-1] * n
    conflicts = []
    for x, y in neg_pairs:
        a, b = _resolve(poset, x), _resolve(poset, y)
        for p, q in ((a, b), (b, a)):
            if neg[p] not in (-1, q):
                conflicts.append(poset.names[p])
            neg[p] = q
    if conflicts:
        raise NotInvolutive(sorted(set(conflicts)))
    missing = [poset.names[i] for i, v in enumerate(neg) if v == -1]
    if missing:
        raise ValueError(f"negation must pair every element; missing {missing}")
    fixed = [poset.names[i] for i, v in enumerate(neg) if v == i]
    if fixed:
        # A fixed point a = neg(a) forces a v neg(a) = a < top.
        raise ComplementLawFails([(name, "fixed point of negation") for name in fixed])
    # involution holds by the symmetric reading; contradictions were caught
    # above.  Reversal on the covers gives it on their closure, the order.
    if not all(poset.le(neg[b], neg[a]) for a, b in poset.covers):
        raise NotOrderReversing([(poset.names[a], poset.names[b]) for a in range(n)
                                 for b in _bits(poset.up[a]) if not poset.le(neg[b], neg[a])])
    return tuple(neg)


def attach_ortho(lattice: Lattice, neg_pairs: Iterable[tuple]) -> OrthoLattice:
    """Attach a negation given as element pairs and verify all four
    orthocomplementation axioms exhaustively.

    Pairs may use names or indices and are read symmetrically.  Raises
    NotInvolutive, NotOrderReversing or ComplementLawFails with every
    violating instance of the first failing axiom.
    """
    neg = _build_negation(lattice, neg_pairs)
    # neg is an order-reversing involution by now, so a ^ neg(a) = neg(a v neg(a)):
    # the meet law fails at exactly the elements where the join law does
    bad = [a for a in range(lattice.n) if lattice.join(a, neg[a]) != lattice.top]
    if bad:
        witnesses = [(lattice.names[a], "a v neg(a) != top") for a in bad]
        witnesses += [(lattice.names[a], "a ^ neg(a) != bottom") for a in bad]
        raise ComplementLawFails(witnesses)
    return _extend(OrthoLattice, lattice, neg)

