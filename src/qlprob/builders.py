"""Canonical example lattices used throughout the tests and the CLI."""

from __future__ import annotations

from pathlib import Path

from .core import (
    CapExceeded,
    Lattice,
    OrthoLattice,
    attach_ortho,
    build_poset,
    lattice_check,
)
from .io import lattice_from_document, parse_lattice

_DATA = Path(__file__).parent / "data"


def _subset_name(mask: int) -> str:
    if mask == 0:
        return "{}"
    members = [str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1]
    return "{" + ",".join(members) + "}"


def powerset(n: int) -> OrthoLattice:
    """Boolean lattice of all subsets of an n-element set, 1 <= n <= 12.

    Element index equals the subset bitmask.  The order is built by
    doubling: the subsets of k + 1 points are those of k points, then
    the same with point k + 1 added.  Meet and join are AND and OR of
    the masks, so the lattice is not checked; attach_ortho still
    verifies the negation.
    """
    if not 1 <= n <= 12:
        raise CapExceeded(f"powerset supports 1 <= n <= 12, got {n}")
    size = 1 << n
    names = tuple(_subset_name(m) for m in range(size))
    up, down = [1], [1]
    for k in range(n):
        half = 1 << k
        up = [u | u << half for u in up] + [u << half for u in up]
        down = down + [d | d << half for d in down]
    lat = Lattice(names=names, up=tuple(up), down=tuple(down), bottom=0, top=size - 1)
    full = size - 1
    return attach_ortho(lat, [(m, m ^ full) for m in range(size // 2)])


def _shipped(name: str):
    """The lattice that data/<name>.lat ships, parsed and verified."""
    return lattice_from_document(parse_lattice((_DATA / f"{name}.lat").read_text()))


def firefly_l12() -> OrthoLattice:
    """The 12-element firefly-box lattice: two 8-element Boolean blocks
    on atom sets {l, r, n} and {f, b, n}, pasted along {0, n, ~n, 1}."""
    return _shipped("l12")


def mo(n: int) -> OrthoLattice:
    """MO(n), the lantern: bottom, top and n complementary atom pairs,
    atoms from distinct pairs incomparable.  MO(1) is the 4-element
    Boolean lattice; MO(2) is the smallest non-distributive OML."""
    if not 1 <= n <= 100:
        raise CapExceeded(f"mo supports 1 <= n <= 100, got {n}")
    names = ["0"] + [f"a{i}" for i in range(1, n + 1)] + [f"~a{i}" for i in range(1, n + 1)] + ["1"]
    covers = []
    for i in range(1, n + 1):
        covers += [("0", f"a{i}"), ("0", f"~a{i}"), (f"a{i}", "1"), (f"~a{i}", "1")]
    lat = lattice_check(build_poset(names, covers, bottom="0", top="1"))
    pairs = [("0", "1")] + [(f"a{i}", f"~a{i}") for i in range(1, n + 1)]
    return attach_ortho(lat, pairs)


def n5() -> Lattice:
    """The pentagon: smallest non-modular lattice.  No orthocomplementation."""
    return _shipped("n5")


def o6() -> OrthoLattice:
    """The hexagon: an ortholattice that is not orthomodular."""
    return _shipped("o6")
