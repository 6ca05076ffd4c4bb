"""Text formats: graph documents, word syntax, and report rendering.

Graph files are JSON with fields rank, vertices, edges[{id,from,to,length,
label}], basepoint, marking; lengths and all other rationals are "p/q"
strings, words use lowercase letters for generators and uppercase for their
inverses (x1/X1 tokens beyond rank 26).  Canonical serialization sorts ids,
so a document round-trips byte-identically.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import InvalidInputError
from .graphs import MarkedMetricGraph, ensure_labels, make_graph
from .words import Word, free_reduce

_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_.:]*$")


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad rational {s!r}: {exc}")


def format_log(x) -> str:
    return f"{float(x):.12g}"


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


def doc_to_graph(doc: dict) -> MarkedMetricGraph:
    try:
        rank = int(doc["rank"])
        edges = {}
        labels = {}
        have_labels = True
        for rec in doc["edges"]:
            eid = rec["id"]
            if not _ID_RE.match(eid):
                raise InvalidInputError(f"bad edge id {eid!r}")
            if eid in edges:
                raise InvalidInputError(f"duplicate edge id {eid!r}")
            edges[eid] = (rec["from"], rec["to"], parse_fraction(rec["length"]))
            if "label" in rec:
                labels[eid] = parse_word(rec["label"], rank)
            else:
                have_labels = False
        marking = [
            tuple(parse_dart(s) for s in petal) for petal in doc["marking"]
        ]
        basepoint = doc["basepoint"]
    except (KeyError, TypeError) as exc:
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


def save_graph(path: str, G: MarkedMetricGraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_text(graph_to_doc(G)))


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
