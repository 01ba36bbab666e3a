"""Command-line front end: build or parse a lattice, classify it,
derive and solve its state constraints, check valuations, run the
projector-lattice and combination-rule pipelines.

Every command prints one JSON document to standard output (always with
"schema": 1, even on failure) and signals through its exit code:
0 success, 1 semantic failure (a failed check, or a core.Refusal such as
Infeasible or CapExceeded), 2 bad usage or malformed input; main maps errors to both.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from pathlib import Path

from .core import LatticeError, OrthoLattice, Refusal
from .io import (
    ParseError,
    document_from_lattice,
    emit_report,
    lattice_from_document,
    parse_lattice,
    parse_valuation,
    serialize_lattice,
    to_dot,
)


class SourceError(Exception):
    pass


# builder spec name: (function in qlprob.builders, default argument or None
# for a builder that takes none), looked up by name when a source is built
_BUILDERS = {"powerset": ("powerset", 3), "mo": ("mo", 2), "l12": ("firefly_l12", None),
             "n5": ("n5", None), "o6": ("o6", None)}


def load_source(spec: str):
    """Resolve `powerset:3`-style builder specs or `.lat` paths to a
    built structure.  Returns (canonical name, lattice)."""
    if spec.endswith(".lat") or Path(spec).is_file():
        try:
            text = Path(spec).read_text()
        except OSError as err:
            raise SourceError(f"cannot read {spec}: {err}")
        doc = parse_lattice(text)
        return doc.name, lattice_from_document(doc)
    from . import builders
    name, _, arg = spec.partition(":")
    builder, default = _BUILDERS.get(name, (None, None))
    if builder is None or (arg and default is None):
        expected = ", ".join(k + (":<n>" if d is not None else "") for k, (_, d) in _BUILDERS.items())
        raise SourceError(f"unknown lattice source {spec!r}; expected {expected}, or a .lat file")
    build = getattr(builders, builder)
    try:
        return spec, build() if default is None else build(int(arg or default))
    except ValueError as err:
        raise SourceError(f"bad builder argument in {spec!r}: {err}")


def _ortho_source(spec: str):
    """load_source for a command that needs a negation: (name, lattice), or
    None after printing the error document when the source has none."""
    name, obj = load_source(spec)
    if isinstance(obj, OrthoLattice):
        return name, obj
    _emit({"source": name, "error": "source has no orthocomplement"})


def _classification_payload(name: str, report: ClassificationReport) -> dict:
    return {
        "source": name,
        "elements": list(report.names),
        "is_lattice": True,
        "is_ortholattice": report.is_ortholattice,
        "is_distributive": report.is_distributive,
        "is_modular": report.is_modular,
        "is_orthomodular": report.is_orthomodular,
        "is_boolean": report.is_boolean,
        "is_atomic": report.is_atomic,
        "is_atomistic": report.is_atomistic,
        "witnesses": {law: list(report.witness_names(law)) for law in report.witnesses},
        "blocks": (
            None
            if report.blocks is None
            else [[report.names[e] for e in block] for block in report.blocks]
        ),
        **({"blocks_truncated": True} if report.blocks_truncated else {}),
    }


def cmd_classify(args) -> int:
    from .classify import classify
    name, obj = load_source(args.source)
    report = classify(obj)
    payload = _classification_payload(name, report)
    if args.dot:
        payload["dot"] = to_dot(obj, name)
    _emit(payload)
    return 1 if report.blocks_truncated else 0


def cmd_states(args) -> int:
    from . import states
    if not (source := _ortho_source(args.source)):
        return 2
    name, obj = source
    payload = {"source": name, "mode": args.mode}
    if args.mode == "relations":
        relations = states.implied_affine_relations(obj)
        payload["atoms"] = [obj.names[a] for a in obj.atoms]
        payload["relations"] = [
            {
                "display": rel.display(),
                "coeffs": dict(zip(rel.atoms, rel.coeffs)),
                "rhs": rel.rhs,
            }
            for rel in relations
        ]
    elif args.mode == "extremes":
        vertices = states.extreme_states(obj, cap=args.cap)
        payload["count"] = len(vertices)
        payload["vertices"] = [v.as_dict() for v in vertices]
    else:
        valuation = states.find_state(obj)
        payload["valuation"] = valuation.as_dict()
        payload["verified"] = states.is_state(obj, valuation).passed
    _emit(payload)
    return 0


def cmd_check(args) -> int:
    from . import states
    if not (source := _ortho_source(args.source)):
        return 2
    name, obj = source
    vdoc = parse_valuation(Path(args.valuation).read_text(), exact=args.exact)
    if vdoc.lattice_name != name:
        _emit({"source": name, "error": f"valuation is for {vdoc.lattice_name!r}, not {name!r}"})
        return 2
    entries = vdoc.entries
    if args.float:
        entries = tuple((k, float(v)) for k, v in entries)
    report = states.is_state(obj, states.valuation_from_document(obj, entries), args.tolerance)
    _emit({
        "source": name,
        "valuation": args.valuation,
        "passed": report.passed,
        "violations": [
            {"kind": v.kind, "elements": list(v.elements), "residual": v.residual}
            for v in report.violations
        ],
        "complement_residual": report.complement_residual,
    })
    return 0 if report.passed else 1


def _parse_vector(text: str) -> list[complex]:
    tokens = text.strip().strip("()").split(",")
    return [complex(tok.strip().replace(" ", "")) for tok in tokens if tok.strip()]


def _entry_to_complex(entry) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, list) and len(entry) == 2:
        return complex(entry[0], entry[1])
    raise ValueError(f"bad complex entry {entry!r}; use a number or [re, im]")


def _load_seeds(path: str) -> list[hilbert.Subspace]:
    """Each entry of the JSON list is one vector (entries as numbers or
    [re, im] pairs) seeding the line it spans; multidimensional seeds
    arise from joins during closure."""
    from . import hilbert
    data = json.loads(Path(path).read_text())
    if not isinstance(data, list) or not data:
        raise ValueError("seeds JSON must be a nonempty list of vectors")
    subspaces = []
    dimension = None
    for vector in data:
        vec = [_entry_to_complex(entry) for entry in vector]
        if dimension is None:
            dimension = len(vec)
        subspaces.append(hilbert.subspace_from_vectors(dimension, [vec]))
    return subspaces


def _load_rho(spec: str, d: int, seed: int) -> hilbert.DensityMatrix:
    import numpy as np
    from . import hilbert
    if spec == "maxmixed":
        return hilbert.max_mixed(d)
    if spec == "random":
        return hilbert.random_density(d, np.random.default_rng(seed))
    if spec.startswith("pure:"):
        return hilbert.pure(_parse_vector(spec[len("pure:"):]))
    matrix = json.loads(Path(spec).read_text())
    rows = [[_entry_to_complex(entry) for entry in row] for row in matrix]
    return hilbert.DensityMatrix(np.array(rows, dtype=np.complex128))


def cmd_hilbert(args) -> int:
    from . import hilbert, states  # numpy loads with hilbert; no other command needs either
    from .classify import classify
    tolerance = args.tolerance if args.tolerance is not None else hilbert.EQUALITY_TOL
    scans = {"ie": states.inclusion_exclusion_scan, "subadd": states.subadditivity_scan}
    seeds = _load_seeds(args.seeds)
    d = seeds[0].d
    ortho, embedding = hilbert.generate_sublattice(seeds, cap=args.cap)
    rho = _load_rho(args.rho, d, args.seed)
    valuation = hilbert.born_valuation(rho, ortho, embedding)
    hits = scans[args.scan](ortho, valuation, tolerance) if args.scan else None
    if args.scan:  # the scan raised NotAState unless its own is_state passed
        state_check = {"passed": True, "violations": 0}
    else:
        report = states.is_state(ortho, valuation, tolerance)
        state_check = {"passed": report.passed, "violations": len(report.violations)}
    classification = classify(ortho)
    payload = {
        "dimension": d,
        "elements": len(embedding),
        "lattice": serialize_lattice(document_from_lattice(ortho, "generated")),
        "classification": {
            "is_orthomodular": classification.is_orthomodular,
            "is_modular": classification.is_modular,
            "is_distributive": classification.is_distributive,
            "is_boolean": classification.is_boolean,
        },
        "embedding": {
            name: {
                "dim": sub.dim,
                "basis": [
                    [[float(z.real), float(z.imag)] for z in sub.basis[:, k]]
                    for k in range(sub.dim)
                ],
            }
            for name, sub in zip(ortho.names, embedding)
        },
        "rho": args.rho,
        "valuation": valuation.as_dict(),
        "state_check": state_check,
    }
    if args.scan:
        payload["scan"] = {
            "kind": args.scan,
            "pairs": [
                {
                    "pair": list(hit.pair),
                    "defect": hit.defect,
                    **(
                        {"strict_decomposition": hit.strict_decomposition}
                        if hit.strict_decomposition is not None
                        else {}
                    ),
                }
                for hit in hits
            ],
        }
    if args.dot:
        payload["dot"] = to_dot(ortho, "generated")
    _emit(payload)
    return 0


def _load_rule(spec: str, want_arity: int) -> funceq.CoxFunction:
    from . import funceq
    if spec in funceq._BUILTINS:
        return funceq.builtin(spec)
    path = Path(spec)
    if not path.is_file():
        raise SourceError(f"unknown rule {spec!r} and no such sample file")
    rows = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        row = [float(part) for part in line.split(",")]
        if len(row) != want_arity + 1:
            raise ValueError(f"line {number} of {spec}: expected {want_arity + 1} fields, got {len(row)}")
        rows.append(row)
    return (funceq.from_samples_unary if want_arity == 1 else funceq.from_samples_binary)(rows)


def cmd_cox(args) -> int:
    from . import funceq
    tolerance = args.tolerance if args.tolerance is not None else funceq.CHECK_TOLERANCE
    rule = _load_rule(args.rule, 1 if args.check == "involution" else 2)
    if args.check == "involution":
        found = funceq.check_involution(rule, tolerance=tolerance)
        report = {"passed": found.passed, "max_residual": found.max_residual,
                  "worst_x": found.worst_x, "identity": found.identity}
    elif args.check == "assoc":
        found = funceq.check_associativity(rule, tolerance=tolerance)
        report = {"passed": found.passed, "max_residual": found.max_residual,
                  "worst_triple": list(found.worst_triple) if found.worst_triple else None,
                  "evaluated": found.evaluated, "skipped": found.skipped}
    else:
        try:
            found = funceq.regraduate(rule)
        except funceq.NotRegraduable as err:  # a verdict, reported as one
            report = {"passed": False, "reason": err.reason}
        else:
            report = {"passed": True, "max_residual": found.max_residual, "anchor": found.anchor,
                      "table": [{"x": x, "w": w} for x, w in zip(found.grid, found.values)]}
    _emit({"rule": args.rule, "check": args.check, **report})
    return 0 if report["passed"] else 1


def _emit(payload: dict):
    print(emit_report(payload))  # the newline goes out apart, so the report is not copied


def _failure(err: Exception, code: int) -> int:
    _emit({"error": str(err), "kind": type(err).__name__})
    return code


@cache  # parse_args leaves the parser as it was, so main() can reuse it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlprob",
        description="orthomodular lattices, their states, and where classical probability breaks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="order and law analysis of a lattice")
    p.add_argument("source")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("states", help="state polytope artifacts")
    p.add_argument("source")
    p.add_argument("mode", choices=["find", "extremes", "relations"])
    p.add_argument("--cap", type=int, default=1024)
    p.set_defaults(run=cmd_states)

    p = sub.add_parser("check", help="verify a valuation file against a lattice")
    p.add_argument("source")
    p.add_argument("valuation")
    p.add_argument("--tolerance", type=float)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true")
    group.add_argument("--float", action="store_true")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("hilbert", help="generate a projector lattice and its Born valuation")
    p.add_argument("seeds", help="JSON file of seed subspaces")
    p.add_argument("--rho", default="maxmixed",
                   help="maxmixed | random | pure:<vector> | matrix JSON path")
    p.add_argument("--scan", choices=["ie", "subadd"])
    p.add_argument("--tolerance", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=256)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(run=cmd_hilbert)

    p = sub.add_parser("cox", help="combination-rule checks and regraduation")
    p.add_argument("rule", help="builtin name or samples CSV")
    p.add_argument("check", choices=["involution", "assoc", "regraduate"])
    p.add_argument("--tolerance", type=float)
    p.set_defaults(run=cmd_cox)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "cap", 1) < 1:  # states and hilbert take a cap
            raise ValueError(f"--cap must be at least 1, not {args.cap}")
        tolerance = getattr(args, "tolerance", None)  # check, hilbert and cox take one
        if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0):
            raise ValueError(f"--tolerance must be a finite number at least 0, not {tolerance}")
        return args.run(args)
    except Refusal as err:  # well-formed input that has no answer
        return _failure(err, 1)
    except (ParseError, SourceError, LatticeError, OSError, ValueError, TypeError) as err:
        return _failure(err, 2)


if __name__ == "__main__":
    sys.exit(main())
