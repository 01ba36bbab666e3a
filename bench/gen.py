"""Seeded input generators for the benchmark.

Every input is a pure function of the seed: the seed relabels elements
and picks primes, angles, sample grids and convex weights, but never
changes the shape of a lattice or the order in which its elements are
declared, so the work a job costs does not depend on the seed.  Each generator returns the text
the program reads together with the reference data the checkers use.

Regenerate every input of a seed into a directory:

    python3 bench/gen.py --seed 7 --out bench/_work/inputs-7
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from models import Model

# -- .lat writing ------------------------------------------------------------


def lat_text(name, names, covers, neg_pairs, bottom, top):
    """A .lat document declaring elements and covers in the given order."""
    out = [f"lattice {name}"]
    out += [f"element {x}" for x in names]
    out += [f"bottom {bottom}", f"top {top}"]
    out += [f"cover {lo} {hi}" for lo, hi in covers]
    out += [f"ortho {a} {b}" for a, b in neg_pairs]
    return "\n".join(out) + "\n"


class LatInput:
    """A generated lattice: its .lat text and its reference model."""

    def __init__(self, name, names, covers, neg_pairs=(), flags=None):
        neg = None
        if neg_pairs:
            neg = {}
            for a, b in neg_pairs:
                neg[a], neg[b] = b, a
        self.model = Model(name, names, covers, neg=neg, flags=flags)
        self.text = lat_text(name, names, covers, neg_pairs,
                             self.model.names[self.model.bottom],
                             self.model.names[self.model.top])


def _perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return p


def boolean(n, rng):
    """All subsets of an n-set, with no orthocomplement declared."""
    perm = _perm(rng, n)

    def name(mask):
        return "b" + format(sum(1 << perm[i] for i in range(n) if mask >> i & 1), "x")

    names = [name(m) for m in range(1 << n)]
    covers = [(name(m), name(m | 1 << i)) for m in range(1 << n) for i in range(n)
              if not m >> i & 1]
    flags = dict(is_distributive=True, is_modular=True, is_atomic=True, is_atomistic=True)
    return LatInput(f"bool{n}", names, covers, flags=flags)


def _span_key(vectors):
    """Canonical name of a subspace of F2^k given as a set of vectors."""
    return "v" + "-".join(format(v, "x") for v in sorted(vectors))


def f2_subspaces(k, rng):
    """Subspaces of F2^k ordered by inclusion, after a seeded change of
    basis; modular, and not distributive for k >= 2."""
    while True:
        cols = [rng.randrange(1, 1 << k) for _ in range(k)]
        if len({_apply(cols, v) for v in range(1 << k)}) == 1 << k:
            break
    spaces = {frozenset([0])}
    frontier = [frozenset([0])]
    covers = set()
    while frontier:
        fresh = []
        for space in frontier:
            for v in range(1, 1 << k):
                if v in space:
                    continue
                bigger = frozenset(space | {u ^ v for u in space})
                covers.add((space, bigger))
                if bigger not in spaces:
                    spaces.add(bigger)
                    fresh.append(bigger)
        frontier = fresh

    def name(space):
        return _span_key({_apply(cols, v) for v in space})

    ordered = sorted(spaces, key=lambda s: (len(s), sorted(s)))
    flags = dict(is_distributive=k < 2, is_modular=True, is_atomic=True, is_atomistic=True)
    return LatInput(f"f2sub{k}", [name(s) for s in ordered],
                    [(name(a), name(b)) for a, b in covers], flags=flags)


def _apply(cols, v):
    out = 0
    for i, c in enumerate(cols):
        if v >> i & 1:
            out ^= c
    return out


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def partitions(n, rng):
    """Partitions of an n-set under refinement; not modular for n >= 4."""
    labels = "abcdefghij"
    perm = _perm(rng, n)

    def name(part):
        return "p" + "|".join(sorted("".join(sorted(labels[perm[i]] for i in block))
                                     for block in part))

    parts = [frozenset(frozenset(b) for b in p) for p in _set_partitions(list(range(n)))]
    covers = []
    for p in parts:
        for a, b in combinations(sorted(p, key=sorted), 2):
            merged = (p - {a, b}) | {a | b}
            covers.append((name(p), name(merged)))
    flags = dict(is_distributive=n < 3, is_modular=n < 4, is_atomic=True, is_atomistic=True)
    return LatInput(f"part{n}", [name(p) for p in parts], covers, flags=flags)


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def divisors(rng):
    """Divisors of p^3 q^2 r s for seeded distinct primes: distributive
    and atomic, not atomistic (p^2 is no join of atoms)."""
    primes = rng.sample(PRIMES, 4)
    powers = dict(zip(primes, (3, 2, 1, 1)))
    number = math.prod(p ** e for p, e in powers.items())
    divs = [1]
    for p, e in powers.items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    covers = [(str(d), str(d * p)) for d in divs for p in primes if number % (d * p) == 0]
    flags = dict(is_distributive=True, is_modular=True, is_atomic=True, is_atomistic=False)
    return LatInput("divisors", [str(d) for d in divs], covers, flags=flags)


def greechie(name, blocks, rng=None, labels=None):
    """The OML of a Greechie diagram with 3-atom blocks meeting in at
    most one atom and no loop shorter than 5: bottom, top, the atoms
    and their complements, a below ~b when a and b share a block."""
    atoms = sorted({a for block in blocks for a in block})
    if labels is None:
        order = _perm(rng, len(atoms))
        labels = {a: f"g{order[i]}" for i, a in enumerate(atoms)}
    names = ["0"] + [labels[a] for a in atoms] + ["~" + labels[a] for a in atoms] + ["1"]
    covers = [("0", labels[a]) for a in atoms] + [("~" + labels[a], "1") for a in atoms]
    for block in blocks:
        for a in block:
            for b in block:
                if a != b:
                    covers.append((labels[a], "~" + labels[b]))
    pairs = [("0", "1")] + [(labels[a], "~" + labels[a]) for a in atoms]
    return LatInput(name, names, covers, neg_pairs=pairs)


def pentagon_blocks():
    """Greechie 5-cycle: five 3-atom blocks, neighbours sharing an atom."""
    return [(f"s{i}", f"m{i}", f"s{(i + 1) % 5}") for i in range(5)]


def chain_blocks(length):
    """A path of 3-atom blocks, neighbours sharing an atom (no loop)."""
    return [(f"s{i}", f"m{i}", f"s{i + 1}") for i in range(length)]


# -- builder specs, modelled from their definitions --------------------------


def _subset_name(mask):
    return "{" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def builder_model(spec):
    """Reference model of a CLI builder spec (powerset:n, mo:n, l12, n5, o6)."""
    kind, _, arg = spec.partition(":")
    if kind == "powerset":
        n = int(arg)
        full = (1 << n) - 1
        names = [_subset_name(m) for m in range(1 << n)]
        covers = [(names[m], names[m | 1 << i]) for m in range(1 << n) for i in range(n)
                  if not m >> i & 1]
        neg = {names[m]: names[m ^ full] for m in range(1 << n)}
        flags = dict(is_distributive=True, is_modular=True, is_orthomodular=True,
                     is_atomic=True, is_atomistic=True)
        return Model(spec, names, covers, neg=neg, flags=flags)
    if kind == "mo":
        n = int(arg)
        names = (["0"] + [f"a{i}" for i in range(1, n + 1)]
                 + [f"~a{i}" for i in range(1, n + 1)] + ["1"])
        covers = [c for x in names[1:-1] for c in (("0", x), (x, "1"))]
        neg = {"0": "1", "1": "0"}
        for i in range(1, n + 1):
            neg[f"a{i}"], neg[f"~a{i}"] = f"~a{i}", f"a{i}"
        flags = dict(is_distributive=n < 2, is_modular=True, is_orthomodular=True,
                     is_atomic=True, is_atomistic=True)
        return Model(spec, names, covers, neg=neg, flags=flags)
    if spec == "l12":
        return greechie("l12", [("l", "r", "n"), ("f", "b", "n")],
                        labels={x: x for x in "lrnfb"}).model
    if spec == "n5":
        return Model(spec, ["0", "a", "b", "c", "1"],
                     [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])
    if spec == "o6":
        return Model(spec, ["0", "a", "b", "c", "d", "1"],
                     [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "d"), ("d", "1")],
                     neg={"0": "1", "1": "0", "a": "d", "d": "a", "b": "c", "c": "b"})
    raise ValueError(f"no model for {spec!r}")


# -- valuations --------------------------------------------------------------


def render(value):
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def val_text(lattice_name, names, values):
    lines = [f"valuation for {lattice_name}"]
    lines += [f"{x} = {render(v)}" for x, v in zip(names, values)]
    return "\n".join(lines) + "\n"


def convex_state(vertices, rng):
    """A random convex combination of the given vertices (exact)."""
    weights = [rng.randrange(1, 1000) for _ in vertices]
    total = sum(weights)
    n = len(vertices[0])
    return tuple(sum((Fraction(w, total) * v[i] for w, v in zip(weights, vertices)),
                     Fraction(0)) for i in range(n))


def perturbed(model, state, rng):
    """A non-state: one atom moved off its state value while staying in
    [0, 1], so some additivity row must fail."""
    atoms = model.atoms
    a = atoms[rng.randrange(len(atoms))]
    values = list(state)
    delta = Fraction(1, 7)
    values[a] = values[a] - delta if values[a] >= delta else values[a] + delta
    return tuple(values)


# -- Hilbert seeds -----------------------------------------------------------


def bloch_lines(k, rng, min_angle=0.35):
    """k rays of C^2 whose Bloch vectors are pairwise at least min_angle
    (radians) apart and from each other's antipodes, so no two lines
    coincide or are orthogonal."""
    points = []
    while len(points) < k:
        z = rng.uniform(-1, 1)
        phi = rng.uniform(0, 2 * math.pi)
        r = math.sqrt(1 - z * z)
        p = (r * math.cos(phi), r * math.sin(phi), z)
        if all(min_angle < math.acos(max(-1.0, min(1.0, sum(x * y for x, y in zip(p, q)))))
               < math.pi - min_angle for q in points):
            points.append(p)
    rays = []
    for x, y, z in points:
        theta = math.acos(z)
        phi = math.atan2(y, x)
        rays.append([math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)])
    return rays


def seeds_json(vectors):
    return json.dumps([[[float(complex(z).real), float(complex(z).imag)] for z in v]
                       for v in vectors]) + "\n"


def mo_square_seeds(k, rng):
    """k lines in each of two orthogonal planes of C^4: closes to
    MO(k) x MO(k), (2k+2)^2 elements, k^2 blocks."""
    first = [v + [0, 0] for v in bloch_lines(k, rng)]
    second = [[0, 0] + v for v in bloch_lines(k, rng)]
    return first + second


# -- combination-rule samples ------------------------------------------------


def sample_grid(rng, count):
    """0, 1 and count-2 distinct seeded interior points, sorted."""
    inner = set()
    while len(inner) < count - 2:
        inner.add(rng.randrange(1, 10_000) / 10_000)
    return [0.0] + sorted(inner) + [1.0]


def unary_csv(fn, rng, count=17):
    return "".join(f"{x!r},{float(fn(x))!r}\n" for x in sample_grid(rng, count))


def binary_csv(fn, rng, count=9):
    xs = sample_grid(rng, count)
    return "".join(f"{x!r},{y!r},{float(fn(x, y))!r}\n" for x in xs for y in xs)


def main():
    from workloads import WORKLOADS, prepare

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    for name in WORKLOADS:
        prepare(name, args.seed, out / name)
    print(out)


if __name__ == "__main__":
    main()
