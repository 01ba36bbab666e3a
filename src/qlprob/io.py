"""Line-oriented lattice and valuation documents, JSON reports, DOT export.

The lattice format is one directive per line:

    lattice <name>
    element <name>
    cover <lo> <hi>
    ortho <a> <b>
    bottom <name>
    top <name>

``#`` starts a comment; blank lines are ignored; names are arbitrary
whitespace-free tokens and must be declared before use.  Declaration
order fixes element indices.  Each line after the header is checked in
one order, the first failure raising: the directive is known; its
arity, from one table, holds; an element is new; any other directive
names declared elements; and a cover, an ortho pair and its partners,
a bottom or a top is new.  Valuation documents carry a
``valuation for <lattice>`` header and ``<element> = <number>`` lines,
where a number is ``p/q`` (kept exact) or a decimal (parsed to float).
"""

from __future__ import annotations

import json
import math
import numbers
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .core import Lattice, OrthoLattice, Record, attach_ortho, build_poset, lattice_check


class ParseError(Exception):
    """Positioned syntax error; line numbers are 1-based."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class UnknownElement(ParseError):
    def __init__(self, line: int, name: str):
        self.name = name
        super().__init__(line, f"unknown element {name!r}")


class DuplicateDeclaration(ParseError):
    pass


class ValueOutOfRange(ParseError):
    def __init__(self, line: int, name: str, value):
        self.name = name
        self.value = value
        super().__init__(line, f"value {value} for {name!r} outside [0, 1]")


class LatticeDocument(Record):
    name: str
    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]
    ortho_pairs: tuple[tuple[str, str], ...]
    bottom: str | None = None
    top: str | None = None


class ValuationDocument(Record):
    lattice_name: str
    entries: tuple[tuple[str, Fraction | float], ...]

    def as_dict(self) -> dict[str, Fraction | float]:
        return dict(self.entries)


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


# the arity of each directive after the header, which has its own messages
_ARITY = {"element": 1, "cover": 2, "ortho": 2, "bottom": 1, "top": 1}


def parse_lattice(text: str) -> LatticeDocument:
    """Parse a lattice document.  Total: returns a document or raises a
    positioned ParseError; never anything else."""
    name = None
    elements: dict[str, None] = {}  # insertion-ordered sets
    covers: dict[tuple[str, str], None] = {}
    ortho: list[tuple[str, str]] = []
    partner: dict[str, str] = {}
    bounds = {"bottom": None, "top": None}
    for lineno, tokens in _lines(text):
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
        arity = _ARITY.get(directive)
        if arity is None:
            raise ParseError(lineno, f"unknown directive {directive!r}")
        if len(args) != arity:
            raise ParseError(lineno, f"{directive} takes {'one name' if arity == 1 else 'two names'}")
        if directive == "element":
            if args[0] in elements:
                raise DuplicateDeclaration(lineno, f"element {args[0]!r} declared twice")
            elements[args[0]] = None
            continue
        for arg in args:
            if arg not in elements:
                raise UnknownElement(lineno, arg)
        if directive == "cover":
            pair = (args[0], args[1])
            if pair in covers:
                raise DuplicateDeclaration(lineno, f"cover {pair} declared twice")
            covers[pair] = None
        elif directive == "ortho":
            a, b = args
            for p, q in ((a, b), (b, a)):
                if p in partner and partner[p] != q:
                    raise DuplicateDeclaration(lineno, f"{p!r} already paired with {partner[p]!r}")
            if a in partner:
                raise DuplicateDeclaration(lineno, f"ortho pair {a!r} {b!r} declared twice")
            partner[a], partner[b] = b, a
            ortho.append((a, b))
        else:
            if bounds[directive] is not None:
                raise DuplicateDeclaration(lineno, f"{directive} declared twice")
            bounds[directive] = args[0]
    if name is None:
        raise ParseError(1, "missing lattice header")
    return LatticeDocument(
        name=name,
        elements=tuple(elements),
        covers=tuple(covers),
        ortho_pairs=tuple(ortho),
        **bounds,
    )


def serialize_lattice(doc: LatticeDocument) -> str:
    """Canonical text form: elements in declaration order, covers and
    ortho pairs sorted by index, ortho pairs lower index first."""
    index = {name: i for i, name in enumerate(doc.elements)}
    out = [f"lattice {doc.name}"]
    out += [f"element {name}" for name in doc.elements]
    if doc.bottom is not None:
        out.append(f"bottom {doc.bottom}")
    if doc.top is not None:
        out.append(f"top {doc.top}")
    names = doc.elements
    covers = sorted((index[lo], index[hi]) for lo, hi in doc.covers)
    out += [f"cover {names[lo]} {names[hi]}" for lo, hi in covers]
    pairs = {tuple(sorted((index[a], index[b]))) for a, b in doc.ortho_pairs}
    out += [f"ortho {names[a]} {names[b]}" for a, b in sorted(pairs)]
    return "\n".join(out) + "\n"


def lattice_from_document(doc: LatticeDocument) -> Lattice:
    """Build and fully verify the structure a document describes."""
    poset = build_poset(doc.elements, doc.covers, bottom=doc.bottom, top=doc.top)
    lattice = lattice_check(poset)
    if doc.ortho_pairs:
        return attach_ortho(lattice, doc.ortho_pairs)
    return lattice


def document_from_lattice(lattice: Lattice, name: str) -> LatticeDocument:
    """Extract the canonical document of a built lattice or ortholattice."""
    names = lattice.names
    covers = tuple((names[a], names[b]) for a, b in lattice.covers)
    pairs = ()
    if isinstance(lattice, OrthoLattice):
        pairs = tuple((names[i], names[j]) for i, j in enumerate(lattice.neg) if i < j)
    return LatticeDocument(
        name=name,
        elements=names,
        covers=covers,
        ortho_pairs=pairs,
        bottom=names[lattice.bottom],
        top=names[lattice.top],
    )


def _parse_number(lineno: int, token: str, exact: bool = False):
    if "/" in token:
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise ParseError(lineno, f"bad rational {token!r}")
    try:
        return Fraction(int(token))
    except ValueError:
        pass
    try:  # exact reads the decimal literal as the rational it denotes
        return Fraction(token) if exact else float(token)
    except ValueError:
        raise ParseError(lineno, f"bad number {token!r}")


def parse_valuation(text: str, exact: bool = False) -> ValuationDocument:
    """Parse a valuation document; p/q values stay exact Fractions.
    With exact=True decimal literals become Fractions too."""
    lattice_name = None
    entries: dict[str, Fraction | float] = {}
    for lineno, tokens in _lines(text):
        if lattice_name is None:
            if len(tokens) != 3 or tokens[0] != "valuation" or tokens[1] != "for":
                raise ParseError(lineno, "expected header: valuation for <lattice>")
            lattice_name = tokens[2]
            continue
        if len(tokens) != 3 or tokens[1] != "=":
            raise ParseError(lineno, "expected: <element> = <number>")
        name, value = tokens[0], _parse_number(lineno, tokens[2], exact)
        if name in entries:
            raise DuplicateDeclaration(lineno, f"value for {name!r} declared twice")
        if not 0 <= value <= 1:
            raise ValueOutOfRange(lineno, name, value)
        entries[name] = value
    if lattice_name is None:
        raise ParseError(1, "missing valuation header")
    return ValuationDocument(lattice_name=lattice_name, entries=tuple(entries.items()))


def serialize_valuation(doc: ValuationDocument) -> str:
    out = [f"valuation for {doc.lattice_name}"]
    for name, value in doc.entries:
        out.append(f"{name} = {render_number(value)}")
    return "\n".join(out) + "\n"


def render_number(value):
    """Rationals as p/q (integers bare), floats to 12 significant digits."""
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.12g}"


def _text(obj, indent: str) -> str:
    """obj's JSON text as json.dumps(indent=2, allow_nan=False) writes it, with
    Fractions as p/q strings and floats to 12 significant digits; indent is
    the newline and indentation of obj's own line."""
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, float):
        value = float(f"{obj:.12g}")
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if obj is None or type(obj) is bool:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, (dict, list, tuple)):
        keyed, inner = isinstance(obj, dict), indent + "  "
        if not obj:
            return "{}" if keyed else "[]"
        sep = "," + inner  # one join copies each child's text once; json.dumps writes a non-string key
        parts = [part for k, v in obj.items() for part in (sep, _quote(k) if isinstance(k, str) else json.dumps(
            {k: 0}, allow_nan=False)[1:-4], ": ", _text(v, inner))] if keyed else [
            part for v in obj for part in (sep, _text(v, inner))]
        parts[0] = ("{" if keyed else "[") + inner
        parts.append(indent + ("}" if keyed else "]"))
        return "".join(parts)
    if isinstance(obj, numbers.Integral):
        return int.__repr__(int(obj))
    if isinstance(obj, Fraction):
        return f'"{render_number(obj)}"'
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def emit_report(payload: dict) -> str:
    """Serialise a report dict with the schema marker first and stable
    key order (insertion order is preserved), in one walk."""
    return _text({"schema": 1, **payload}, "\n")


def to_dot(lattice: Lattice, name: str = "lattice") -> str:
    """Graphviz text of the Hasse diagram, edges upward."""
    out = [f'digraph "{name}" {{', "  rankdir=BT;", '  node [shape=plaintext];']
    for el in lattice.names:
        out.append(f'  "{el}";')
    for a, b in lattice.covers:
        out.append(f'  "{lattice.names[a]}" -> "{lattice.names[b]}";')
    out.append("}")
    return "\n".join(out) + "\n"
