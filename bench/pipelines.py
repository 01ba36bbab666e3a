"""The in-process path: the program's own entry points run in this
process, and the tracer that times the calls into each qlprob module.

run_in_process() calls qlprob.cli.main (or the conjugate job's main)
with an argument list and captures what it prints, so the in-process
output is the CLI's own.  Tracing wraps the public functions on the
module attributes through which the program calls them, for as long as
a traced pass lasts; with tracing off nothing is wrapped.

Times are inclusive: a call is timed as a whole, whatever it does inside
other modules.  A call nested inside a call of the same layer adds no
time of its own, so no layer counts a span twice.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io as _io
import os
import random
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from qlprob import builders, classify, cli, funceq, hilbert, io, states  # noqa: E402
# Taken before any wrapping: the conjugate job times its own associativity
# check under funceq.conjugate_s, not under funceq.assoc_s.
from qlprob.funceq import check_associativity  # noqa: E402

CONJUGATE_GRID = 9     # points per axis of the conjugate's associativity check

# Layer metrics in report order.
LAYERS = (
    "io.parse_s", "io.emit_s", "builders.build_s", "core.poset_s",
    "core.lattice_check_s", "core.ortho_s", "classify.laws_s", "classify.blocks_s",
    "states.system_s", "states.relations_s", "states.vertices_s", "states.find_s",
    "states.check_s", "states.scan_s", "hilbert.closure_s", "hilbert.born_s",
    "funceq.regraduate_s", "funceq.assoc_s", "funceq.conjugate_s",
)
COUNTS = (
    "work.elements", "work.blocks", "work.state_rows", "work.relations",
    "work.vertices", "work.closure_elements", "work.assoc_triples", "work.emit_bytes",
)


def _elements(obj):
    return obj.n


# (module, attribute, layer or None, [(count, result -> amount)]).  The
# module is the one whose namespace the program looks the name up in:
# cli.py and the modules that build lattices import some names directly.
TRACED = (
    [(cli, "parse_lattice", "io.parse_s", []),
     (cli, "parse_valuation", "io.parse_s", []),
     (cli, "emit_report", "io.emit_s", [("work.emit_bytes", len)]),
     (io, "emit_report", "io.emit_s", [("work.emit_bytes", len)]),
     (cli, "lattice_from_document", None, [("work.elements", _elements)])]
    + [(builders, name, "builders.build_s", [("work.elements", _elements)])
       for name in ("powerset", "mo", "firefly_l12", "n5", "o6")]
    + [(module, name, layer, [])
       for module in (io, builders, hilbert)
       for name, layer in (("build_poset", "core.poset_s"),
                           ("lattice_check", "core.lattice_check_s"),
                           ("attach_ortho", "core.ortho_s"))]
    + [(classify, name, "classify.laws_s", [])
       for name in ("check_distributive", "check_modular", "check_orthomodular")]
    + [(classify, "maximal_blocks", "classify.blocks_s", [("work.blocks", len)]),
       (states, "build_state_system", "states.system_s",
        [("work.state_rows", lambda system: len(system.rows))]),
       (states, "implied_affine_relations", "states.relations_s", [("work.relations", len)]),
       (states, "extreme_states", "states.vertices_s", [("work.vertices", len)]),
       (states, "find_state", "states.find_s", []),
       (states, "is_state", "states.check_s", []),
       (states, "subadditivity_scan", "states.scan_s", []),
       (states, "inclusion_exclusion_scan", "states.scan_s", []),
       (hilbert, "generate_sublattice", "hilbert.closure_s",
        [("work.closure_elements", lambda r: len(r[1])), ("work.elements", lambda r: r[0].n)]),
       (hilbert, "born_valuation", "hilbert.born_s", []),
       (funceq, "regraduate", "funceq.regraduate_s", []),
       (funceq, "check_involution", "funceq.assoc_s", []),
       (funceq, "check_associativity", "funceq.assoc_s",
        [("work.assoc_triples", lambda r: r.evaluated)]),
       (funceq, "additive_conjugate", "funceq.conjugate_s", [])]
)


class Tracer:
    """Busy time per layer and work counts while it is active."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.counts = defaultdict(int)
        self.depth = defaultdict(int)
        self.active = False

    @contextlib.contextmanager
    def span(self, layer):
        """Time a block under layer, unless an outer span of it runs."""
        if not self.active or self.depth[layer]:
            yield
            return
        self.depth[layer] += 1
        start = perf_counter()
        try:
            yield
        finally:
            self.busy[layer] += perf_counter() - start
            self.depth[layer] -= 1

    def count(self, name, k):
        if self.active:
            self.counts[name] += k

    def wrap(self, fn, layer, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(layer):
                    result = fn(*args, **kwargs)
            for name, amount in counters:
                self.count(name, amount(result))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block,
        starting from zero times and counts."""
        self.busy.clear()
        self.counts.clear()
        saved = [(module, name, getattr(module, name)) for module, name, _, _ in TRACED]
        try:
            for module, name, layer, counters in TRACED:
                setattr(module, name, self.wrap(getattr(module, name), layer, counters))
            self.active = True
            yield self
        finally:
            self.active = False
            for module, name, fn in saved:
                setattr(module, name, fn)


TRACE = Tracer()   # inactive unless a traced pass installs it


def run_in_process(argv, script, cwd):
    """Run one job in this process, as its fresh process would run it
    from cwd; returns (exit code, standard output)."""
    main = conjugate_main if script else cli.main
    # The orthomodular-law cache is keyed on lattice identity and keeps every
    # lattice alive; a fresh process starts with it empty.
    classify._orthomodular_witness.cache_clear()
    out = _io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv[1:] if script else argv)
    finally:
        os.chdir(here)
    return code, out.getvalue()


def conjugate_points(seed, count=16):
    """Seeded sample points inside the conjugate's domain [0, 1/4]."""
    rng = random.Random(seed)
    return [(rng.randrange(2501) / 10_000, rng.randrange(2501) / 10_000) for _ in range(count)]


def conjugate_main(argv):
    """Library only: the additive conjugate of the sumprod regraduation,
    its associativity check on a grid, and its values at seeded points,
    printed as one JSON report."""
    parser = argparse.ArgumentParser(prog="conjugate_job.py")
    parser.add_argument("--seed", type=int, required=True)
    seed = parser.parse_args(argv).seed
    result = funceq.regraduate(funceq.builtin("sumprod"))
    with TRACE.span("funceq.conjugate_s"):
        rule = funceq.additive_conjugate(result)
        report = check_associativity(rule, grid_size=CONJUGATE_GRID)
        samples = [{"x": x, "y": y, "value": rule(x, y)} for x, y in conjugate_points(seed)]
    TRACE.count("work.assoc_triples", report.evaluated)
    payload = {"rule": "additive conjugate of sumprod", "grid": CONJUGATE_GRID, "hi": rule.hi,
               "passed": report.passed, "max_residual": report.max_residual,
               "evaluated": report.evaluated, "skipped": report.skipped, "samples": samples}
    sys.stdout.write(io.emit_report(payload) + "\n")
    return 0 if report.passed else 1
