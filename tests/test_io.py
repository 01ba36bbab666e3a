import json
import numbers
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qlprob import builders
from qlprob.io import (
    DuplicateDeclaration,
    LatticeDocument,
    ParseError,
    UnknownElement,
    ValueOutOfRange,
    document_from_lattice,
    emit_report,
    lattice_from_document,
    parse_lattice,
    parse_valuation,
    render_number,
    serialize_lattice,
    serialize_valuation,
    to_dot,
)
from tests.conftest import DATA


def json_ready(obj):
    """The reference emit's first walk: a copy of the report with Fractions as
    p/q strings and floats rounded to 12 significant digits."""
    if obj is None or type(obj) in (str, int, bool):
        return obj
    if isinstance(obj, Fraction):
        return render_number(obj)
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, numbers.Integral) and not isinstance(obj, bool):
        return int(obj)
    return obj


def reference_emit(payload: dict) -> str:
    """emit_report as two walks: json_ready, then json.dumps(indent=2)."""
    body = {"schema": 1}
    body.update(json_ready(payload))
    return json.dumps(body, indent=2, allow_nan=False)


@pytest.mark.parametrize("name", ["l12", "mo2", "n5", "o6"])
def test_shipped_documents_round_trip(name):
    text = (DATA / f"{name}.lat").read_text()
    doc = parse_lattice(text)
    assert doc.name == name
    canonical = serialize_lattice(doc)
    assert serialize_lattice(parse_lattice(canonical)) == canonical


def test_shipped_l12_matches_builder(l12):
    doc = parse_lattice((DATA / "l12.lat").read_text())
    parsed = lattice_from_document(doc)
    assert parsed.names == l12.names
    assert parsed.neg == l12.neg
    pairs = [(a, b) for a in range(l12.n) for b in range(l12.n)]
    assert [parsed.meet(a, b) for a, b in pairs] == [l12.meet(a, b) for a, b in pairs]
    assert [parsed.join(a, b) for a, b in pairs] == [l12.join(a, b) for a, b in pairs]


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_lattice("lattice x\nelement a\nbogus a b\n")
    assert err.value.line == 3


def test_unknown_element_in_cover():
    with pytest.raises(UnknownElement):
        lattice_from_document(parse_lattice(
            "lattice x\nelement a\nelement b\ncover a c\n"))


def test_duplicate_cover_rejected():
    with pytest.raises(DuplicateDeclaration):
        parse_lattice("lattice x\nelement a\nelement b\ncover a b\ncover a b\n")


def test_conflicting_ortho_rejected():
    text = (
        "lattice x\nelement 0\nelement a\nelement b\nelement 1\n"
        "cover 0 a\ncover 0 b\ncover a 1\ncover b 1\n"
        "ortho 0 1\northo a b\northo a 1\n"
    )
    with pytest.raises(DuplicateDeclaration):
        parse_lattice(text)


def reference_parse_lattice(text: str) -> LatticeDocument:
    """Reference lattice parser: each directive's arity and name checks
    written out in a branch of its own."""
    name = None
    elements, known = [], set()
    covers, cover_set = [], set()
    ortho, partner = [], {}
    bottom = top = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        directive, args = tokens[0], tokens[1:]
        if directive == "lattice":
            if name is not None:
                raise DuplicateDeclaration(lineno, "second lattice header")
            if len(args) != 1:
                raise ParseError(lineno, "lattice header takes one name")
            name = args[0]
            continue
        if name is None:
            raise ParseError(lineno, "first directive must be the lattice header")
        if directive == "element":
            if len(args) != 1:
                raise ParseError(lineno, "element takes one name")
            if args[0] in known:
                raise DuplicateDeclaration(lineno, f"element {args[0]!r} declared twice")
            known.add(args[0])
            elements.append(args[0])
        elif directive == "cover":
            if len(args) != 2:
                raise ParseError(lineno, "cover takes two names")
            for arg in args:
                if arg not in known:
                    raise UnknownElement(lineno, arg)
            pair = (args[0], args[1])
            if pair in cover_set:
                raise DuplicateDeclaration(lineno, f"cover {pair} declared twice")
            cover_set.add(pair)
            covers.append(pair)
        elif directive == "ortho":
            if len(args) != 2:
                raise ParseError(lineno, "ortho takes two names")
            for arg in args:
                if arg not in known:
                    raise UnknownElement(lineno, arg)
            a, b = args
            for p, q in ((a, b), (b, a)):
                if p in partner and partner[p] != q:
                    raise DuplicateDeclaration(lineno, f"{p!r} already paired with {partner[p]!r}")
            if a in partner:
                raise DuplicateDeclaration(lineno, f"ortho pair {a!r} {b!r} declared twice")
            partner[a], partner[b] = b, a
            ortho.append((a, b))
        elif directive == "bottom":
            if len(args) != 1:
                raise ParseError(lineno, "bottom takes one name")
            if args[0] not in known:
                raise UnknownElement(lineno, args[0])
            if bottom is not None:
                raise DuplicateDeclaration(lineno, "bottom declared twice")
            bottom = args[0]
        elif directive == "top":
            if len(args) != 1:
                raise ParseError(lineno, "top takes one name")
            if args[0] not in known:
                raise UnknownElement(lineno, args[0])
            if top is not None:
                raise DuplicateDeclaration(lineno, "top declared twice")
            top = args[0]
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")
    if name is None:
        raise ParseError(1, "missing lattice header")
    return LatticeDocument(name=name, elements=tuple(elements), covers=tuple(covers),
                           ortho_pairs=tuple(ortho), bottom=bottom, top=top)


HEAD = "lattice x\nelement a\nelement b\n"  # lines 1-3; a case's own lines start at 4

PARSE_ERRORS = [
    ("lattice x\nlattice y\n", DuplicateDeclaration, 2, "second lattice header"),
    ("lattice\n", ParseError, 1, "lattice header takes one name"),
    ("# note\nlattice x y\n", ParseError, 2, "lattice header takes one name"),
    ("element a\nlattice x\n", ParseError, 1, "first directive must be the lattice header"),
    ("\nbogus\n", ParseError, 2, "first directive must be the lattice header"),
    (HEAD + "element\n", ParseError, 4, "element takes one name"),
    (HEAD + "element c d\n", ParseError, 4, "element takes one name"),
    (HEAD + "cover a\n", ParseError, 4, "cover takes two names"),
    (HEAD + "cover a b a\n", ParseError, 4, "cover takes two names"),
    (HEAD + "ortho a\n", ParseError, 4, "ortho takes two names"),
    (HEAD + "ortho c\n", ParseError, 4, "ortho takes two names"),
    (HEAD + "bottom a b\n", ParseError, 4, "bottom takes one name"),
    (HEAD + "top\n", ParseError, 4, "top takes one name"),
    (HEAD + "bogus a b\n", ParseError, 4, "unknown directive 'bogus'"),
    (HEAD + "lattices x\n", ParseError, 4, "unknown directive 'lattices'"),
    (HEAD + "cover a c\n", UnknownElement, 4, "unknown element 'c'"),
    (HEAD + "cover d c\n", UnknownElement, 4, "unknown element 'd'"),
    (HEAD + "ortho c a\n", UnknownElement, 4, "unknown element 'c'"),
    (HEAD + "bottom c\n", UnknownElement, 4, "unknown element 'c'"),
    (HEAD + "top c\n", UnknownElement, 4, "unknown element 'c'"),
    (HEAD + "element b\n", DuplicateDeclaration, 4, "element 'b' declared twice"),
    (HEAD + "cover a b\n\ncover a b\n", DuplicateDeclaration, 6, "cover ('a', 'b') declared twice"),
    (HEAD + "ortho a b\northo a b\n", DuplicateDeclaration, 5, "ortho pair 'a' 'b' declared twice"),
    (HEAD + "ortho a b\northo b a\n", DuplicateDeclaration, 5, "ortho pair 'b' 'a' declared twice"),
    (HEAD + "element c\northo a b\northo a c\n", DuplicateDeclaration, 6,
     "'a' already paired with 'b'"),
    (HEAD + "element c\northo a b\northo c b\n", DuplicateDeclaration, 6,
     "'b' already paired with 'a'"),
    (HEAD + "bottom a\nbottom a\n", DuplicateDeclaration, 5, "bottom declared twice"),
    (HEAD + "top b\ntop a\n", DuplicateDeclaration, 5, "top declared twice"),
    ("", ParseError, 1, "missing lattice header"),
    ("# only a comment\n\n", ParseError, 1, "missing lattice header"),
]


@pytest.mark.parametrize("text, kind, line, message", PARSE_ERRORS)
def test_parse_lattice_errors(text, kind, line, message):
    """Every error of the lattice parser: its class, 1-based line and text."""
    for parse in (parse_lattice, reference_parse_lattice):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert type(err.value) is kind
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"


def outcome(parse, text):
    """A parse's document, or its exception's class, text and line."""
    try:
        return parse(text)
    except ParseError as err:
        return type(err), str(err), err.line


soup_name = st.sampled_from(["a", "b", "c", "a", "b", "c", "d", "#"])
soup_line = st.tuples(
    st.sampled_from(["element", "cover", "cover", "ortho", "ortho", "bottom", "top",
                     "lattice", "bogus", "#", ""]),
    st.one_of(st.lists(soup_name, min_size=1, max_size=2), st.lists(soup_name, max_size=3)),
).map(lambda line: " ".join([line[0], *line[1]]))
soups = st.builds(
    lambda header, declared, rest: "\n".join(header + [f"element {e}" for e in declared] + rest),
    st.sampled_from([["lattice x"]] * 6 + [[], ["lattice x y"], ["# x", "", "lattice x"]]),
    st.lists(st.sampled_from("abcd"), unique=True, max_size=4),
    st.lists(soup_line, max_size=10),
)


@settings(max_examples=300, deadline=None)
@given(soups)
@example("lattice x\nelement a\nelement b\ncover a b\northo a b\nbottom a\ntop b")
def test_parse_lattice_matches_the_reference(text):
    """On directive soups the parser returns the reference's document or
    raises its exception, with the same text and line."""
    assert outcome(parse_lattice, text) == outcome(reference_parse_lattice, text)


def test_comments_and_blank_lines_ignored():
    text = "# heading\n\nlattice x  # trailing\nelement a\nelement b\ncover a b\n"
    doc = parse_lattice(text)
    assert doc.elements == ("a", "b")


def test_serialize_orders_covers_canonically(l12):
    doc = document_from_lattice(l12, "l12")
    text = serialize_lattice(doc)
    shipped = (DATA / "l12.lat").read_text()
    assert text == serialize_lattice(parse_lattice(shipped))


def test_valuation_round_trip():
    text = (DATA / "l12_quarter.val").read_text()
    doc = parse_valuation(text)
    assert doc.lattice_name == "l12"
    assert doc.as_dict()["l"] == Fraction(1, 4)
    assert parse_valuation(serialize_valuation(doc)) == doc


def test_valuation_exact_mode_reads_decimals_as_rationals():
    doc = parse_valuation("valuation for x\na = 0.3\n", exact=True)
    assert doc.as_dict()["a"] == Fraction(3, 10)
    doc_f = parse_valuation("valuation for x\na = 0.3\n")
    assert isinstance(doc_f.as_dict()["a"], float)


def test_valuation_range_enforced():
    with pytest.raises(ValueOutOfRange):
        parse_valuation("valuation for x\na = 3/2\n")
    with pytest.raises(ValueOutOfRange):
        parse_valuation("valuation for x\na = -0.25\n")


def test_valuation_duplicate_entry():
    with pytest.raises(DuplicateDeclaration):
        parse_valuation("valuation for x\na = 1/2\na = 1/2\n")


def test_render_number():
    assert render_number(Fraction(3, 4)) == "3/4"
    assert render_number(Fraction(2, 1)) == "2"
    assert render_number(0.5) == "0.5"
    assert render_number(1 / 3) == "0.333333333333"


def test_json_ready_and_emit():
    payload = {"f": Fraction(1, 3), "x": 3.14159265358979, "n": 2, "t": True,
               "nested": [Fraction(1, 2), {"y": 0.1}]}
    ready = json_ready(payload)
    assert ready["f"] == "1/3"
    assert ready["t"] is True
    text = emit_report(payload)
    parsed = json.loads(text)
    assert list(parsed)[0] == "schema" and parsed["schema"] == 1
    assert parsed["x"] == 3.14159265359


def test_emit_mixed_payload_bytes():
    """Every leaf type a report carries, through the one emitter: bools stay
    true and false, numpy integers and floats become plain numbers, Fractions
    p/q strings, tuples arrays.  The bytes are pinned."""
    payload = {"flag": True, "off": False, "n": 3, "big": np.int64(7), "x": np.float64(1 / 3),
               "q": Fraction(2, 6), "none": None, "pair": (1, 0.1 + 0.2, Fraction(4, 2)),
               "nested": {"ok": True, "k": [np.int64(-1), "s"]}}
    assert emit_report(payload) == (
        '{\n  "schema": 1,\n  "flag": true,\n  "off": false,\n  "n": 3,\n  "big": 7,\n'
        '  "x": 0.333333333333,\n  "q": "1/3",\n  "none": null,\n'
        '  "pair": [\n    1,\n    0.3,\n    "2"\n  ],\n'
        '  "nested": {\n    "ok": true,\n    "k": [\n      -1,\n      "s"\n    ]\n  }\n}')
    ready = json_ready(payload)
    assert ready["flag"] is True and ready["off"] is False and ready["nested"]["ok"] is True
    assert type(ready["big"]) is int and type(ready["nested"]["k"][0]) is int


def test_emit_rejects_nan():
    with pytest.raises(ValueError):
        emit_report({"x": float("nan")})


class Tag(str):
    pass


leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(), st.floats(allow_nan=False).map(np.float64), st.fractions(),
    st.text(), st.sampled_from(["é", "\u2028", '"\\\n\t', "\x00", "😀"]), st.text().map(Tag),
    st.sampled_from([[], (), {}]),
)
keys = st.one_of(st.text(), st.text().map(Tag), st.integers(), st.floats(), st.booleans(), st.none())
reports = st.dictionaries(st.text(), st.recursive(
    leaves, lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                                    st.dictionaries(keys, inner, max_size=4)),
    max_leaves=20), max_size=5)


@settings(max_examples=300, deadline=None)
@given(reports)
@example({"k": {1.5: 0, 2: 1, True: 2, None: 3, np.float64(0.1 + 0.2): 4}})
@example({"k": [np.float32(1)]})
@example({"k": {np.int64(1): 0}})
@example({"k": {Fraction(1, 2): 0}})
@example({"k": {float("inf"): 0}})
@example({"k": [np.bool_(True)]})
def test_emit_writes_the_reference_text(payload):
    """The one-walk writer gives json_ready + json.dumps(indent=2)'s text, or
    raises the same exception type (ValueError for a NaN or an infinity,
    TypeError for a value or key json cannot write)."""
    try:
        expected = reference_emit(payload)
    except (ValueError, TypeError) as err:
        with pytest.raises(type(err)):
            emit_report(payload)
    else:
        assert emit_report(payload) == expected


def test_dot_output(p3):
    dot = to_dot(p3, "p3")
    assert dot.startswith('digraph "p3"')
    assert dot.count("->") == len(p3.covers)


name_strategy = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                           exclude_characters="#"),
    min_size=1, max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
def test_parser_is_total(text):
    """Arbitrary junk either parses or raises ParseError, never anything else."""
    try:
        parse_lattice(text)
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
def test_valuation_parser_is_total(text):
    try:
        parse_valuation(text)
    except ParseError:
        pass


@settings(max_examples=100, deadline=None)
@given(
    names=st.lists(name_strategy, min_size=1, max_size=8, unique=True),
    values=st.lists(
        st.one_of(
            st.fractions(min_value=0, max_value=1),
            st.floats(min_value=0, max_value=1, allow_nan=False),
        ),
        min_size=1, max_size=8,
    ),
)
def test_valuation_round_trip_fuzz(names, values):
    entries = tuple(zip(names, values))
    from qlprob.io import ValuationDocument

    doc = ValuationDocument(lattice_name="fuzzed", entries=entries)
    text = serialize_valuation(doc)
    back = parse_valuation(text)
    assert back.lattice_name == "fuzzed"
    for (n1, v1), (n2, v2) in zip(doc.entries, back.entries):
        assert n1 == n2
        if isinstance(v1, Fraction):
            assert v1 == v2
        else:
            assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))
