"""The benchmark's workloads: seeded inputs and job lists.

A job is one program call: its CLI argument list (or a library-only
script and its arguments) and the checker for its output.  The same
argument list runs as a fresh process and in process (pipelines.py).
prepare() writes a workload's inputs for a seed and returns its jobs.
The seed never changes the shape of a lattice, the closure sizes or
the grids, so the work per job is the same for every seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen
import pipelines


@dataclass
class Job:
    label: str
    argv: list            # after `python3 -m qlprob`, or a script and its args
    check: Callable       # check(exit code, text) -> list of errors
    script: bool = False  # argv[0] is a benchmark script, not a qlprob command
    want_code: int = 0    # the exit code a correct program gives


def _write(workdir: Path, name: str, text: str) -> str:
    (workdir / name).write_text(text)
    return name


def _classify(workdir, spec, model):
    return Job(f"classify {model.name}", ["classify", spec, "--dot"],
               checks.classify_checker(model))


def ladder(seed, workdir):
    """Generic-path classification: parse, poset closure, lattice check,
    orthocomplement, law scans and blocks; no states, hilbert or funceq."""
    rng = random.Random(seed)
    jobs = []
    for lat in (gen.boolean(6, rng), gen.boolean(8, rng),
                gen.f2_subspaces(4, rng), gen.f2_subspaces(5, rng),
                gen.partitions(5, rng), gen.partitions(6, rng),
                gen.divisors(rng),
                gen.greechie("pentagon", gen.pentagon_blocks(), rng)):
        path = _write(workdir, lat.model.name + ".lat", lat.text)
        jobs.append(_classify(workdir, path, lat.model))
    for spec in ("powerset:5", "powerset:6", "mo:16", "mo:64", "l12", "n5", "o6"):
        jobs.append(_classify(workdir, spec, gen.builder_model(spec)))
    return jobs


def _states_jobs(workdir, spec, model, modes, rng, valuations=()):
    """states jobs in the given modes, then one check job per entry of
    valuations: "state" (a random convex mix of the vertices) or
    "nonstate" (that mix with one atom moved)."""
    label = model.name
    jobs = []
    vertices = model.atom_vertices() if set(modes) - {"relations"} or valuations else None
    for mode in modes:
        if mode == "relations":
            check = checks.relations_checker(model)
        elif mode == "extremes":
            check = checks.extremes_checker(model, vertices)
        else:
            check = checks.find_checker(model, vertices)
        jobs.append(Job(f"states {label} {mode}", ["states", spec, mode], check))
    state = gen.convex_state(sorted(vertices), rng) if valuations else None
    for tag in valuations:
        values = state if tag == "state" else gen.perturbed(model, state, rng)
        path = _write(workdir, f"{label.replace(':', '_')}-{tag}.val",
                      gen.val_text(label, model.names, values))
        jobs.append(Job(f"check {label} {tag}", ["check", spec, path],
                        checks.check_checker(model, values, tag == "state"),
                        want_code=int(tag != "state")))
    return jobs


def polytope(seed, workdir):
    """Exact state-space work on small OMLs: state system, elimination,
    vertex search, simplex; core and classify cost little here."""
    rng = random.Random(seed)
    jobs = []
    for spec, modes, valuations in (("mo:4", ("find",), ()),
                                    ("mo:6", ("extremes",), ()),
                                    ("powerset:4", ("find",), ()),
                                    ("powerset:6", ("relations",), ()),
                                    ("l12", ("relations",), ("state",))):
        jobs += _states_jobs(workdir, spec, gen.builder_model(spec), modes, rng, valuations)
    quarter = pipelines.SRC / "qlprob" / "data" / "l12_quarter.val"
    l12 = gen.builder_model("l12")
    shipped = dict(line.split(" = ") for line in quarter.read_text().splitlines()
                   if " = " in line and not line.startswith("#"))
    jobs.append(Job("check l12 shipped quarter", ["check", "l12", str(quarter)],
                    checks.check_checker(l12, [Fraction(shipped[x]) for x in l12.names], True)))
    for blocks, name, modes, valuations in (
            (gen.chain_blocks(3), "chain3", ("find",), ()),
            (gen.pentagon_blocks(), "pentagon", ("relations", "extremes"), ("state", "nonstate"))):
        lat = gen.greechie(name, blocks, rng)
        path = _write(workdir, name + ".lat", lat.text)
        jobs += _states_jobs(workdir, path, lat.model, modes, rng, valuations)
    return jobs


def numeric(seed, workdir):
    """Float lanes: projector-lattice closure with Born valuations and
    scans, combination-rule checks, regraduation and its conjugate."""
    rng = random.Random(seed)
    jobs = []
    pure2 = "pure:(0.6,0.8j)"
    pure4 = "pure:(0.5,0.5j,0.5,-0.5)"
    for k, planes, rho, scan in ((4, 1, "maxmixed", "ie"), (6, 1, pure2, "subadd"),
                                 (8, 1, "random", "ie"),
                                 (2, 2, "random", "subadd"), (3, 2, pure4, "ie")):
        # k lines of C^2 close to MO(k); k lines in each of two planes of C^4 to MO(k)^2
        vectors = gen.bloch_lines(k, rng) if planes == 1 else gen.mo_square_seeds(k, rng)
        path = _write(workdir, f"rays-{planes}x{k}.json", gen.seeds_json(vectors))
        jobs.append(Job(f"hilbert {planes}x{k} {rho.split(':')[0]} {scan}",
                        ["hilbert", path, "--rho", rho, "--scan", scan, "--seed", str(seed)],
                        checks.hilbert_checker(k, planes, rho, scan, seed)))
    unary = _write(workdir, "one-minus.csv", gen.unary_csv(lambda x: 1 - x, rng))
    sumprod = _write(workdir, "sumprod.csv", gen.binary_csv(lambda x, y: x + y + x * y, rng))
    for rule, check, checker in (("sumprod", "regraduate", checks.regraduate_checker("sumprod")),
                                 (sumprod, "regraduate", checks.regraduate_checker(sumprod)),
                                 ("sumprod", "assoc", checks.assoc_checker()),
                                 (unary, "involution", checks.involution_checker())):
        jobs.append(Job(f"cox {rule} {check}", ["cox", rule, check], checker))
    jobs.append(Job(f"conjugate grid {pipelines.CONJUGATE_GRID}",
                    [str(Path(pipelines.__file__).parent / "conjugate_job.py"), "--seed", str(seed)],
                    checks.conjugate_checker(), script=True))
    return jobs


WORKLOADS = {"ladder": ladder, "polytope": polytope, "numeric": numeric}


def prepare(name, seed, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
