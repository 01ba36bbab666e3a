"""Finite event lattices and the probability measures they admit."""

from .core import (
    CapExceeded,
    ComplementLawFails,
    CycleDetected,
    DuplicateElement,
    Lattice,
    LatticeError,
    NotALattice,
    NotBounded,
    NotInvolutive,
    NotOrderReversing,
    NotOrthomodular,
    OrthoLattice,
    Poset,
    attach_ortho,
    build_poset,
    lattice_check,
)

__all__ = [
    "CapExceeded",
    "ComplementLawFails",
    "CycleDetected",
    "DuplicateElement",
    "Lattice",
    "LatticeError",
    "NotALattice",
    "NotBounded",
    "NotInvolutive",
    "NotOrderReversing",
    "NotOrthomodular",
    "OrthoLattice",
    "Poset",
    "attach_ortho",
    "build_poset",
    "lattice_check",
]
