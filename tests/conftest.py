import math
from pathlib import Path

import numpy as np
import pytest

from qlprob import builders, hilbert

DATA = Path(__file__).resolve().parent.parent / "src" / "qlprob" / "data"

# The Petersen graph: outer 5-cycle, spokes, inner pentagram.  As a
# Greechie diagram each vertex is a block whose atoms are its 3 edges.
PETERSEN_EDGES = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                  + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def petersen_blocks(vertices=range(10)):
    """The blocks of the chosen Petersen vertices, atoms named by edge."""
    return [tuple(f"e{min(e)}{max(e)}" for e in PETERSEN_EDGES if v in e) for v in vertices]


def greechie_text(blocks, name="greechie"):
    """The .lat text of a Greechie diagram of 3-atom blocks: bottom, top,
    the atoms and their complements, with a below ~b when a and b share
    a block.  With no loop of order 3 or 4 it is an OML (Greechie 1971)."""
    atoms = sorted({a for block in blocks for a in block})
    lines = [f"lattice {name}", "element 0", *(f"element {a}" for a in atoms),
             *(f"element ~{a}" for a in atoms), "element 1", "bottom 0", "top 1",
             *(f"cover 0 {a}" for a in atoms), *(f"cover ~{a} 1" for a in atoms),
             *(f"cover {a} ~{b}" for block in blocks for a in block for b in block if a != b),
             "ortho 0 1", *(f"ortho {a} ~{a}" for a in atoms)]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def l12():
    return builders.firefly_l12()


@pytest.fixture(scope="session")
def mo2():
    return builders.mo(2)


@pytest.fixture(scope="session")
def p3():
    return builders.powerset(3)


@pytest.fixture(scope="session")
def o6():
    return builders.o6()


def d2_seed_subspaces():
    r = 1 / math.sqrt(2)
    return [
        hilbert.subspace_from_vectors(2, [[1, 0]]),
        hilbert.subspace_from_vectors(2, [[r, r]]),
    ]


def d3_seed_subspaces():
    r = 1 / math.sqrt(2)
    axes = [hilbert.subspace_from_vectors(3, [v]) for v in
            ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    return axes + [hilbert.subspace_from_vectors(3, [[r, r, 0]])]


def two_plane_seeds(k, rng):
    """k random lines in each of two orthogonal planes of C^4; they
    close to MO(k) x MO(k), (2k + 2)^2 elements."""
    seeds = []
    for plane in (0, 2):
        for _ in range(k):
            v = np.zeros(4, dtype=np.complex128)
            v[plane:plane + 2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            seeds.append(hilbert.subspace_from_vectors(4, [v]))
    return seeds


@pytest.fixture(scope="session")
def d2_lattice():
    return hilbert.generate_sublattice(d2_seed_subspaces())


@pytest.fixture(scope="session")
def d3_lattice():
    return hilbert.generate_sublattice(d3_seed_subspaces())
