"""Tests of the benchmark's checkers: every unaltered output passes, and
each corrupted output is reported.

    python3 -m pytest -q bench/test_checks.py
"""

import json
import random

import pytest

import gen
import workloads
from pipelines import run_in_process


def outputs(name, tmp_path, seed=0):
    """{job label: (job, exit code, text)} from the in-process path."""
    workdir = tmp_path / name
    jobs = workloads.prepare(name, seed, workdir)
    return {job.label: (job, *run_in_process(job.argv, job.script, workdir)) for job in jobs}


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    return {name: outputs(name, tmp) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_unaltered_outputs_pass(produced, name):
    for label, (job, code, text) in produced[name].items():
        assert code == job.want_code, label
        assert job.check(code, text) == [], label


def corrupt(entry, edit):
    job, code, text = entry
    doc = json.loads(text)
    edit(doc)
    return job.check(code, json.dumps(doc))


def test_dropped_block_is_reported(produced):
    entry = produced["ladder"]["classify pentagon"]
    assert corrupt(entry, lambda doc: doc["blocks"].pop(2))


def test_false_witness_is_reported(produced):
    entry = produced["ladder"]["classify part5"]

    def edit(doc):
        law = next(iter(doc["witnesses"]))
        doc["witnesses"][law] = [doc["elements"][0]] * len(doc["witnesses"][law])
    assert corrupt(entry, edit)


def test_flipped_flag_is_reported(produced):
    entry = produced["ladder"]["classify f2sub5"]
    assert corrupt(entry, lambda doc: doc.update(is_modular=False))


def test_moved_vertex_is_reported(produced):
    entry = produced["polytope"]["states pentagon extremes"]

    def edit(doc):
        vertex = doc["vertices"][3]
        atom = next(x for x in vertex if x.startswith("g"))
        vertex[atom] = "1/3" if vertex[atom] != "1/3" else "1/5"
    assert corrupt(entry, edit)


def test_replaced_relation_is_reported(produced):
    entry = produced["polytope"]["states pentagon relations"]

    def off_span(doc):
        atom = doc["atoms"][0]
        doc["relations"][1] = {"display": "", "coeffs": {atom: "1"}, "rhs": "1/2"}

    def duplicate(doc):
        doc["relations"][1] = doc["relations"][0]
    assert corrupt(entry, off_span)
    assert corrupt(entry, duplicate)


def test_wrong_barycentre_is_reported(produced):
    entry = produced["polytope"]["states chain3 find"]
    assert corrupt(entry, lambda doc: doc["valuation"].update({"1": "1", "0": "1/9"}))


def test_non_state_verdict_is_checked(produced):
    job, code, text = produced["polytope"]["check pentagon nonstate"]
    assert code == 1 and job.check(code, text) == []
    assert job.check(0, text)
    assert corrupt((job, code, text), lambda doc: doc["violations"].clear())


def test_shifted_born_value_is_reported(produced):
    for label in ("hilbert 1x8 random ie", "hilbert 2x3 pure ie"):
        entry = produced["numeric"][label]

        def edit(doc):
            name = next(x for x in doc["valuation"] if x.startswith("s"))
            doc["valuation"][name] += 1e-6
        assert corrupt(entry, edit), label


def test_dropped_scan_hit_is_reported(produced):
    entry = produced["numeric"]["hilbert 1x8 random ie"]
    assert corrupt(entry, lambda doc: doc["scan"]["pairs"].pop())


def test_wrong_regraduation_is_reported(produced):
    entry = produced["numeric"]["cox sumprod regraduate"]
    assert corrupt(entry, lambda doc: doc["table"][5].update(w=doc["table"][5]["w"] + 1e-6))


def test_wrong_conjugate_is_reported(produced):
    entry = produced["numeric"]["conjugate grid 9"]
    assert corrupt(entry, lambda doc: doc["samples"][0].update(value=doc["samples"][0]["value"] + 1e-6))


@pytest.mark.parametrize("lat", [
    lambda rng: gen.boolean(3, rng),
    lambda rng: gen.f2_subspaces(2, rng),
    lambda rng: gen.f2_subspaces(3, rng),
    lambda rng: gen.partitions(3, rng),
    lambda rng: gen.partitions(4, rng),
    gen.divisors,
])
def test_declared_flags_match_exhaustive_scan(lat):
    model = lat(random.Random(5)).model
    brute = model.brute_flags()
    for key, value in model.flags.items():
        assert brute[key] == value, (model.name, key)


@pytest.mark.parametrize("spec", ["powerset:3", "mo:3"])
def test_builder_flags_match_exhaustive_scan(spec):
    model = gen.builder_model(spec)
    brute = model.brute_flags()
    for key, value in model.flags.items():
        assert brute[key] == value, (spec, key)
