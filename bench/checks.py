"""Checkers: each compares one job's output with a computation made apart
from the program (the reference models of models.py, numpy linear
algebra, closed forms) or with a property the mathematics requires.

A checker is called as check(exit_code, stdout_text) and returns a list
of error strings; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

from models import Model, rank
from pipelines import CONJUGATE_GRID

BORN_TOL = 1e-9        # printed values carry 12 significant digits
DEFECT_TOL = 1e-8      # the CLI's default float tolerance for hilbert scans
FUNCEQ_TOL = 1e-9


def _load(code, text, want_code=0):
    if code != want_code:
        raise CheckFailed(f"exit code {code}, expected {want_code}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise CheckFailed(f"output is not JSON: {err}")


class CheckFailed(Exception):
    pass


def checker(fn):
    """Turn fn(code, text, errors) into check(code, text) -> errors."""
    def run(code, text):
        errors = []
        try:
            fn(code, text, errors)
        except CheckFailed as err:
            errors.append(str(err))
        except (KeyError, TypeError, ValueError, IndexError) as err:
            errors.append(f"malformed output: {type(err).__name__}: {err}")
        return errors
    return run


def _frac(value):
    return Fraction(str(value))


# -- ladder --------------------------------------------------------------------

DOT_EDGE = re.compile(r'^\s*"([^"]+)" -> "([^"]+)";$')


def expected_flags(model: Model):
    """Ladder flags from theory where the family declares them, else by
    exhaustive scan of the model."""
    theory = ("is_distributive", "is_modular", "is_atomic", "is_atomistic")
    if not all(k in model.flags for k in theory):
        return model.brute_flags()
    flags = {k: model.flags[k] for k in theory}
    flags["is_lattice"] = True
    flags["is_ortholattice"] = model.neg is not None
    flags["is_orthomodular"] = model.flags.get("is_orthomodular") if model.neg else None
    flags["is_boolean"] = model.neg is not None and flags["is_distributive"]
    return flags


LAW_OF_FLAG = {"is_distributive": ("distributive", "distributive-dual"),
               "is_modular": ("modular",), "is_orthomodular": ("orthomodular",)}


def classify_checker(model: Model):
    flags = expected_flags(model)
    blocks = model.blocks() if flags["is_orthomodular"] else None

    @checker
    def check(code, text, errors):
        doc = _load(code, text)
        if doc["source"] != model.name:
            errors.append(f"source {doc['source']!r}")
        if sorted(doc["elements"]) != sorted(model.names):
            errors.append("element names differ from the input")
        index = model.index
        printed = set()
        for line in doc["dot"].splitlines():
            m = DOT_EDGE.match(line)
            if m:
                printed.add((index[m.group(1)], index[m.group(2)]))
        if printed != model.covers:
            errors.append(f"printed order has {len(printed)} covers, "
                          f"the input lattice {len(model.covers)}; they differ")
        for key, want in flags.items():
            if doc[key] != want:
                errors.append(f"{key} = {doc[key]}, theory says {want}")
        for law, names in doc["witnesses"].items():
            if not model.violates(law, [index[x] for x in names]):
                errors.append(f"witness {names} does not violate {law}")
        for key, laws in LAW_OF_FLAG.items():
            has = any(law in doc["witnesses"] for law in laws)
            if doc[key] is False and not has:
                errors.append(f"{key} is false without a witness")
            if doc[key] is not False and has:
                errors.append(f"{key} is {doc[key]} but a witness is reported")
        if blocks is None:
            if doc["blocks"] is not None:
                errors.append("blocks reported for a lattice that is no OML")
        else:
            got = {frozenset(index[x] for x in b) for b in doc["blocks"] or []}
            if got != blocks:
                errors.append(f"{len(got)} blocks reported, {len(blocks)} maximal "
                              "orthogonal atom sets; the sets differ")
    return check


# -- polytope ------------------------------------------------------------------

def relations_checker(model: Model):
    block_rows = model.block_rows()
    atoms = [model.names[a] for a in model.atoms]

    def matrix(rows):
        return [[coeffs.get(a, Fraction(0)) for a in atoms] + [rhs] for coeffs, rhs in rows]

    base = matrix(block_rows)
    base_rank = rank(base)

    @checker
    def check(code, text, errors):
        doc = _load(code, text)
        if sorted(doc["atoms"]) != sorted(atoms):
            errors.append("atom list differs from the lattice's atoms")
        rows = matrix([({a: _frac(c) for a, c in r["coeffs"].items()}, _frac(r["rhs"]))
                       for r in doc["relations"]])
        if rank(rows) != len(rows):
            errors.append("relations are not independent")
        if rank(rows) != base_rank or rank(rows + base) != base_rank:
            errors.append("relations do not span the block-sum rows")
    return check


def _vertex_tuple(model, valuation):
    return tuple(_frac(valuation[x]) for x in model.names)


def extremes_checker(model: Model, vertices):
    @checker
    def check(code, text, errors):
        doc = _load(code, text)
        got = {_vertex_tuple(model, v) for v in doc["vertices"]}
        if doc["count"] != len(doc["vertices"]) or len(got) != len(doc["vertices"]):
            errors.append("vertex count mismatch or repeated vertex")
        if got != vertices:
            errors.append(f"{len(got)} vertices reported, {len(vertices)} basic "
                          "feasible solutions; the sets differ")
    return check


def find_checker(model: Model, vertices):
    k = len(vertices)
    centre = tuple(sum((v[i] for v in vertices), Fraction(0)) / k for i in range(model.n))

    @checker
    def check(code, text, errors):
        doc = _load(code, text)
        if _vertex_tuple(model, doc["valuation"]) != centre:
            errors.append("found state is not the barycentre of the vertices")
        if doc["verified"] is not True:
            errors.append("found state not verified")
    return check


def check_checker(model: Model, values, is_state: bool):
    """values: the valuation written to the file, in model name order."""
    @checker
    def check(code, text, errors):
        doc = _load(code, text, 0 if is_state else 1)
        if doc["passed"] is not is_state:
            errors.append(f"passed = {doc['passed']}, expected {is_state}")
        if is_state == bool(doc["violations"]):
            errors.append(f"{len(doc['violations'])} violations reported")
        for v in doc["violations"]:
            if v["kind"] != "additivity":
                continue
            a, b = (model.index[x] for x in v["elements"])
            want = values[model.join(a, b)] - values[a] - values[b]
            if abs(_frac(v["residual"])) != abs(want):
                errors.append(f"residual on {v['elements']} is {v['residual']}, not {want}")
    return check


# -- numeric -------------------------------------------------------------------

def parse_lat(text):
    """A .lat document as a Model (enough of the format for CLI output)."""
    names, covers, neg = [], [], {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "element":
            names.append(parts[1])
        elif parts[0] == "cover":
            covers.append((parts[1], parts[2]))
        elif parts[0] == "ortho":
            neg[parts[1]], neg[parts[2]] = parts[2], parts[1]
    return Model("generated", names, covers, neg=neg)


def reference_density(rho, d, seed):
    """The density matrix for --rho, computed here from its definition."""
    if rho == "maxmixed":
        return np.eye(d) / d
    if rho == "random":
        g_rng = np.random.default_rng(seed)
        g = g_rng.standard_normal((d, d)) + 1j * g_rng.standard_normal((d, d))
        m = g @ g.conj().T
        return m / np.trace(m).real
    v = np.array([complex(t) for t in rho[len("pure:"):].strip("()").split(",")])
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def hilbert_checker(k, planes, rho, scan, seed):
    """k lines per plane in `planes` orthogonal planes of C^(2 planes):
    the closure is MO(k)^planes."""
    want_elements = (2 * k + 2) ** planes
    want_blocks = k ** planes
    d = 2 * planes

    @checker
    def check(code, text, errors):
        doc = _load(code, text)
        if doc["elements"] != want_elements:
            errors.append(f"{doc['elements']} elements, expected {want_elements}")
        model = parse_lat(doc["lattice"])
        if model.n != want_elements:
            raise CheckFailed(f"printed lattice has {model.n} elements")
        blocks = model.atom_cliques()
        if len(blocks) != want_blocks:
            errors.append(f"{len(blocks)} blocks, expected {want_blocks}")
        cls = doc["classification"]
        want = {"is_orthomodular": True, "is_modular": True,
                "is_distributive": k < 2, "is_boolean": k < 2}
        if cls != want:
            errors.append(f"classification {cls}, expected {want}")
        proj = np.zeros((model.n, d, d), dtype=complex)
        for name, sub in doc["embedding"].items():
            basis = np.array([[complex(re, im) for re, im in col] for col in sub["basis"]])
            if len(basis):
                proj[model.index[name]] = basis.T @ basis.conj()
        # order: a <= b exactly when P_b P_a = P_a
        prod = np.einsum("bij,ajk->abik", proj, proj)
        incl = np.linalg.norm(prod - proj[:, None], axis=(2, 3)) < 1e-6
        up = np.array([[model.le(a, b) for b in range(model.n)] for a in range(model.n)])
        if not np.array_equal(incl, up):
            errors.append("printed order differs from inclusion of the printed subspaces")
        comp = np.linalg.norm(proj[model.neg] - (np.eye(d) - proj), axis=(1, 2))
        if comp.max() > 1e-6:
            errors.append("orthocomplement is not I - P")
        density = reference_density(rho, d, seed)
        born = np.einsum("ij,aji->a", density, proj).real
        values = np.array([float(doc["valuation"][x]) for x in model.names])
        gap = np.abs(values - born).max()
        if gap > BORN_TOL:
            errors.append(f"Born value off tr(rho P) by {gap:.3e}")
        if doc["state_check"] != {"passed": True, "violations": 0}:
            errors.append(f"state check {doc['state_check']}")
        hits = {tuple(p["pair"]): p for p in doc["scan"]["pairs"]}
        if rho == "maxmixed" and hits:
            errors.append(f"{len(hits)} {scan} hits under the maximally mixed state")
        m, j, neg = model.meet, model.join, model.neg
        for a in range(model.n):
            for b in range(a + 1, model.n):
                if scan == "ie":
                    defect = born[a] + born[b] - born[m(a, b)] - born[j(a, b)]
                    hit = abs(defect) > DEFECT_TOL
                else:
                    defect = born[j(a, b)] - born[a] - born[b]
                    hit = defect > DEFECT_TOL
                pair = (model.names[a], model.names[b])
                if abs(abs(defect) - DEFECT_TOL) < 1e-10:
                    continue  # too close to the threshold to judge from printed digits
                if hit != (pair in hits):
                    errors.append(f"{scan} hit on {pair} {'missing' if hit else 'spurious'}")
                elif hit:
                    p = hits[pair]
                    if abs(p["defect"] - defect) > BORN_TOL:
                        errors.append(f"defect on {pair} is {p['defect']}, not {defect}")
                    if scan == "ie":
                        strict = j(m(a, b), m(a, neg[b])) != a
                        if p["strict_decomposition"] != strict:
                            errors.append(f"strict_decomposition wrong on {pair}")
    return check


def regraduate_checker(expected_rule):
    @checker
    def check(code, text, errors):
        doc = _load(code, text)
        if doc["rule"] != expected_rule or doc["passed"] is not True:
            errors.append(f"rule {doc['rule']!r} passed={doc['passed']}")
        xs = [row["x"] for row in doc["table"]]
        anchor = xs[1]
        if doc["anchor"] != anchor:
            errors.append(f"anchor {doc['anchor']} is not the first interior point")
        worst = max(abs(row["w"] - math.log1p(row["x"]) / math.log1p(anchor))
                    for row in doc["table"])
        if worst > FUNCEQ_TOL:
            errors.append(f"w departs from ln(1+x)/ln(1+x1) by {worst:.3e}")
    return check


def assoc_checker():
    @checker
    def check(code, text, errors):
        doc = _load(code, text)
        if doc["passed"] is not True or doc["max_residual"] > 1e-12:
            errors.append(f"associativity residual {doc['max_residual']}")
        if doc["evaluated"] != 33 ** 3 or doc["skipped"]:     # the CLI's default grid
            errors.append(f"evaluated {doc['evaluated']}, skipped {doc['skipped']}")
    return check


def involution_checker():
    @checker
    def check(code, text, errors):
        doc = _load(code, text)
        if doc["passed"] is not True or doc["max_residual"] > 1e-12:
            errors.append(f"involution residual {doc['max_residual']}")
        if doc["identity"] is not False:
            errors.append("1 - x reported as the identity")
    return check


def conjugate_checker():
    @checker
    def check(code, text, errors):
        doc = _load(code, text)
        if doc["passed"] is not True or doc["max_residual"] > 1e-10:
            errors.append(f"conjugate associativity residual {doc['max_residual']}")
        if doc["evaluated"] != CONJUGATE_GRID ** 3 or doc["skipped"]:
            errors.append(f"evaluated {doc['evaluated']}, skipped {doc['skipped']}")
        worst = max(abs(s["value"] - (s["x"] + s["y"] + s["x"] * s["y"]))
                    for s in doc["samples"])
        if worst > FUNCEQ_TOL:
            errors.append(f"conjugate departs from x+y+xy by {worst:.3e}")
    return check
