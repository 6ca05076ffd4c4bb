"""Text formats: graph documents, word syntax, and report rendering.

Graph files are JSON with fields rank, vertices, edges[{id,from,to,length,
label}], basepoint, marking; lengths and all other rationals are "p/q"
strings, words use lowercase letters for generators and uppercase for their
inverses (x1/X1 tokens beyond rank 26).  Canonical serialization sorts ids,
so a document round-trips byte-identically.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction

from .errors import InvalidInputError
from .graphs import MarkedMetricGraph, ensure_labels, make_graph
from .words import Word, free_reduce

_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_.:]*$")
# a decimal with an exponent: its mantissa and the exponent E
_EXPONENT_RE = re.compile(
    r"\s*([-+]?[\d_]*\.?[\d_]*)[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def format_fraction(x: Fraction) -> str:
    """``p/q``.  A value computed from inputs that each pass
    `parse_fraction` can still have more digits than
    `sys.get_int_max_str_digits` allows to print; that is an input error
    too."""
    x = Fraction(x)
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise InvalidInputError(
            "a value to print exceeds the limit "
            f"({sys.get_int_max_str_digits()} digits) for integer string "
            "conversion") from None


def parse_fraction(s: str) -> Fraction:
    """The rational written s.  A numerator or denominator of more digits
    than `sys.get_int_max_str_digits` cannot be printed, so such a value is
    an input error; written with an exponent, it is caught before ten is
    raised to that power."""
    limit = sys.get_int_max_str_digits()
    m = _EXPONENT_RE.match(s)
    try:
        # a nonzero mantissa lies within a factor 10^len(s) of 1, so 10^E
        # times it has more than |E| - len(s) digits above or below the line
        if limit and m and abs(int(m[2])) - len(s) >= limit:
            if not Fraction(m[1]):
                return Fraction(0)
            raise ValueError(f"Exceeds the limit ({limit} digits) for "
                             "integer string conversion")
        x = Fraction(s)
        str(x)  # raises past the limit, as printing x would
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad rational {s!r}: {exc}")
    return x


def log_of(x) -> float:
    """The natural logarithm of a positive rational, as a float.  Where the
    float of x overflows or underflows, it is the difference of the logs of
    numerator and denominator (near 1 that difference would lose digits)."""
    x = Fraction(x)
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if sys.float_info.min <= f < math.inf:
        return math.log(f)
    return math.log(x.numerator) - math.log(x.denominator)


def format_log(x) -> str:
    """The natural logarithm of a positive factor, for display only."""
    return f"{log_of(x):.12g}"


def format_word(w: Word) -> str:
    if w.rank > 26:
        out = []
        for x in w.letters:
            out.append(f"x{x}" if x > 0 else f"X{-x}")
        return " ".join(out)
    out = []
    for x in w.letters:
        c = chr(ord("a") + abs(x) - 1)
        out.append(c if x > 0 else c.upper())
    return "".join(out)


def parse_word(s: str, rank: int) -> Word:
    s = s.strip()
    letters = []
    if rank > 26:
        for tok in s.split():
            m = re.fullmatch(r"([xX])(\d+)", tok)
            if not m:
                raise InvalidInputError(f"bad word token {tok!r}")
            i = int(m.group(2))
            letters.append(i if m.group(1) == "x" else -i)
    else:
        for c in s.replace(" ", ""):
            if not c.isalpha():
                raise InvalidInputError(f"bad word character {c!r}")
            i = ord(c.lower()) - ord("a") + 1
            letters.append(i if c.islower() else -i)
    return free_reduce(letters, rank)


def format_dart(d) -> str:
    return d[0] if d[1] > 0 else f"-{d[0]}"


def parse_dart(s: str):
    if s.startswith("-"):
        return (s[1:], -1)
    return (s, 1)


def format_path(path) -> str:
    return " ".join(format_dart(d) for d in path)


def graph_to_doc(G: MarkedMetricGraph) -> dict:
    G = ensure_labels(G)
    return {
        "rank": G.rank,
        "vertices": sorted(G.vertices),
        "edges": [
            {
                "id": e,
                "from": o,
                "to": t,
                "length": format_fraction(l),
                "label": format_word(G.labels[e]),
            }
            for e, (o, t, l) in sorted(G.edges.items())
        ],
        "basepoint": G.basepoint,
        "marking": [[format_dart(d) for d in petal] for petal in G.marking],
    }


def _text(value, what: str) -> str:
    # ids, darts, labels and "p/q" lengths are strings; a JSON number would be
    # read as a binary float, and other types fail deep inside the library
    if not isinstance(value, str):
        raise InvalidInputError(f"malformed graph document: {what} "
                                f"{json.dumps(value)} is not a string")
    return value


def _list(value, what: str) -> list:
    # a string or an object would be iterated character by character or key
    # by key
    if not isinstance(value, list):
        raise InvalidInputError(f"malformed graph document: {what} "
                                f"{json.dumps(value)} is not a list")
    return value


def doc_to_graph(doc: dict) -> MarkedMetricGraph:
    try:
        rank = doc["rank"]
        # a JSON integer, which Python reads as an int that is not a bool
        if type(rank) is not int:
            raise InvalidInputError(f"malformed graph document: rank "
                                    f"{json.dumps(rank)} is not an integer")
        edges = {}
        labels = {}
        have_labels = True
        for rec in doc["edges"]:
            eid = _text(rec["id"], "edge id")
            if not _ID_RE.match(eid):
                raise InvalidInputError(f"bad edge id {eid!r}")
            if eid in edges:
                raise InvalidInputError(f"duplicate edge id {eid!r}")
            edges[eid] = (_text(rec["from"], "endpoint"),
                          _text(rec["to"], "endpoint"),
                          parse_fraction(_text(rec["length"], "length")))
            if "label" in rec:
                labels[eid] = parse_word(_text(rec["label"], "label"), rank)
            else:
                have_labels = False
        vertices = [_text(v, "vertex")
                    for v in _list(doc["vertices"], "vertices")]
        endpoints = sorted({v for (o, t, _) in edges.values() for v in (o, t)})
        if sorted(vertices) != endpoints:
            raise InvalidInputError(
                f"malformed graph document: vertices {json.dumps(vertices)} "
                f"are not the edge endpoints {json.dumps(endpoints)}")
        marking = [
            tuple(parse_dart(_text(s, "dart")) for s in _list(petal, "petal"))
            for petal in _list(doc["marking"], "marking")
        ]
        basepoint = _text(doc["basepoint"], "basepoint")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed graph document: {exc}")
    return ensure_labels(make_graph(rank, edges, basepoint, marking,
                                    labels if have_labels else None))


def canonical_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def load_graph(path: str) -> MarkedMetricGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}")
    return doc_to_graph(doc)


# -- report documents --------------------------------------------------------------------

class Table:
    def __init__(self, name: str, header: list[str]):
        self.name = name
        self.header = header
        self.rows: list[list[str]] = []

    def add(self, *cells):
        self.rows.append([str(c) for c in cells])


class Report:
    """Deterministic tabular output, rendered as TSV or JSON."""

    def __init__(self, title: str):
        self.title = title
        self.tables: list[Table] = []
        self.notes: list[str] = []

    def table(self, name: str, header: list[str]) -> Table:
        t = Table(name, header)
        self.tables.append(t)
        return t

    def note(self, text: str):
        self.notes.append(text)

    def render(self, fmt: str = "tsv") -> str:
        if fmt == "json":
            return json.dumps(
                {
                    "title": self.title,
                    "tables": [
                        {"name": t.name, "header": t.header, "rows": t.rows}
                        for t in self.tables
                    ],
                    "notes": self.notes,
                },
                indent=2,
            ) + "\n"
        if fmt != "tsv":
            raise InvalidInputError(f"unknown format {fmt!r}")
        out = [f"# {self.title}"]
        for t in self.tables:
            out.append(f"## {t.name}")
            out.append("\t".join(t.header))
            for row in t.rows:
                out.append("\t".join(row))
        for n in self.notes:
            out.append(f"# {n}")
        return "\n".join(out) + "\n"
