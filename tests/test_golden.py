"""Golden outputs: stdout, stderr and exit code of fixed CLI runs, compared
byte for byte with the files in tests/golden/ (``<case>.out``, ``<case>.err``
and ``exit_codes.json``).

Regenerate the files (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from conftest import save_graph
from outerspace import cli
from outerspace.docs import canonical_text, graph_to_doc
from outerspace.fixtures import (
    poly_twist_pair,
    random_nielsen_automorphism,
    random_tree_marked,
    rose,
    rose_t,
    theta_left,
    theta_right,
    unit_rose,
)
from outerspace.graphs import (
    apply_automorphism_to_marking,
    make_graph,
    subdivide,
)
from outerspace.words import generator, identity

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

PAIRS = {"theta": ("theta_left.json", "theta_right.json"),
         "twist3": ("twist3_source.json", "twist3_target.json")}
# rank 4 and 6: the witnesses pin which candidate representatives are chosen
HIGH_RANK = {"k33": ("K33", 1), "petersen": ("petersen", 2)}
# rank 3: the optimal map sends vertices into target edges; the fold has no
# event where a source edge's image only crosses such a point
FOLD_RANK3 = {"k4": ("K4", 31)}

CASES = {}
for _name in ("wiest-coulbois", "polygrowth", "incompleteness", "orbit"):
    for _fmt in ("tsv", "json"):
        CASES[f"repro-{_name}.{_fmt}"] = ["--format", _fmt, "repro", _name]
for _pair, (_a, _b) in PAIRS.items():
    CASES[f"distance-{_pair}"] = ["distance", _a, _b, "--witness"]
    CASES[f"optmap-{_pair}"] = ["optmap", _a, _b]
    CASES[f"foldpath-{_pair}"] = ["foldpath", _a, _b, "--samples", "3"]
    CASES[f"foldpath-single-{_pair}"] = ["foldpath", _a, _b, "--strategy",
                                         "single-vertex", "--samples", "2"]
    CASES[f"bcc-{_pair}"] = ["bcc", _a, _b, "--pair-cap", "2000"]
for _name in HIGH_RANK:
    CASES[f"distance-{_name}"] = ["distance", f"{_name}_source.json",
                                  f"{_name}_target.json", "--witness"]
for _name in FOLD_RANK3:
    CASES[f"foldpath-{_name}"] = ["foldpath", f"{_name}_source.json",
                                  f"{_name}_target.json"]
    # the optimal map sends vertices into a target edge, which bcc cuts
    CASES[f"bcc-{_name}"] = ["bcc", f"{_name}_source.json",
                             f"{_name}_target.json", "--pair-cap", "2000"]
# X = theta_left, Y = theta_right, M = rose_t(1/2), T = rose_t(5/8)
_X, _Y, _M, _T = ("theta_left.json", "theta_right.json", "rose_half.json",
                  "rose_five_eighths.json")
CASES.update({
    "checkgeod-doubling-back": ["checkgeod", _X, _M, _Y, _M, _X],
    "checkgeod-crossing": ["checkgeod", _X, _T, _Y],
    "checkgeod-wrong-crossing": ["checkgeod", _X, _M, _Y],
    "checkgeod-qg-d": ["checkgeod", _X, _M, _T, _Y, "--qg", "2", "1"],
    "checkgeod-qg-d-fails": ["checkgeod", _X, _M, _T, _Y, "--qg", "1", "1"],
    "checkgeod-qg-d-float": ["checkgeod", _X, _M, _T, _Y, "--qg", "3/2",
                             "11/10"],
    # denominator 10^7: decided from logarithms, not from 10^7-th powers
    "checkgeod-qg-d-large-denominator": ["checkgeod", _X, _M, _T, _Y, "--qg",
                                         "1.0000001", "1"],
    "checkgeod-qg-dR": ["checkgeod", _X, _M, _T, _Y, "--metric", "dR",
                        "--qg", "2", "1"],
    "checkgeod-qg-dR-fails": ["checkgeod", _X, _T, _Y, _M, "--metric", "dR",
                              "--qg", "3/2", "1"],
    "checkgeod-qg-dR-float": ["checkgeod", _X, _T, _Y, "--metric", "dR",
                              "--qg", "1", "5/4"],
    "checkgeod-qg-bad-constant": ["checkgeod", _X, _T, _Y, "--qg", "1/2",
                                  "1"],
    "checkgeod-qg-huge-constant": ["checkgeod", _X, _T, _Y, "--qg", "1e400",
                                   "1"],
    "checkgeod-qg-k-malformed": ["checkgeod", _X, _T, _Y, "--qg", "2",
                                 "abc"],
    "checkgeod-qg-k-nan": ["checkgeod", _X, _T, _Y, "--qg", "2", "nan"],
    "checkgeod-qg-k-infinite": ["checkgeod", _X, _T, _Y, "--qg", "2", "inf"],
    "checkgeod-qg-k-negative": ["checkgeod", _X, _T, _Y, "--qg", "2",
                                "9/10"],
    "orbit-aut-malformed": ["orbit", _X, "--aut", "ab", "--inv", "a=b"],
})
# input errors: one malformed field of theta_left, a graph whose marking
# disagrees with its labels, unreadable files and malformed options
_MALFORMED = {
    "rank-not-integer": (("rank",), "two"),
    "rank-fractional": (("rank",), 2.5),
    "rank-boolean": (("rank",), True),
    "endpoint-list": (("edges", 0, "from"), ["u"]),
    "endpoint-int": (("edges", 0, "from"), 1),
    "basepoint-list": (("basepoint",), ["u"]),
    "dart-int": (("marking", 0, 0), 1),
    "label-int": (("edges", 0, "label"), 1),
    "length-number": (("edges", 0, "length"), 0.1),
    "edge-id-bad": (("edges", 0, "id"), "1bad"),
    "edge-id-duplicate": (("edges", 1, "id"), "A"),
    "rank-string": (("rank",), "2"),
    "vertices-wrong": (("vertices",), ["nothing", 5]),
    "vertices-other": (("vertices",), ["u", "w"]),
    "vertices-duplicate": (("vertices",), ["u", "u", "v"]),
    "edges-string": (("edges",), "A"),
    "edges-object": (("edges",), {"id": "A"}),
    "edges-null": (("edges",), None),
    "edge-record-list": (("edges", 0), ["A", "u", "v", "1"]),
}
# documents of other graphs: (graph, keep its labels?, edits); without
# labels they are derived from the marking, which must fold onto the graph
_EDITED = {
    "petal-string": (rose([1, 2]), True, {("marking",): ["a", "b"]}),
    "marking-not-a-loop": (theta_left(), False,
                           {("marking",): [["A"], ["A"]]}),
    "marking-misses-an-edge": (rose([1, 1, 1]), False,
                               {("rank",): 2, ("marking",): [["a"], ["b"]]}),
    "marking-folds-onto-one-edge": (rose([1, 1, 1]), False,
                                    {("rank",): 2,
                                     ("marking",): [["a"], ["b", "b"]]}),
}
for _name in (*_MALFORMED, *_EDITED):
    CASES[f"validate-{_name}"] = ["validate", f"{_name}.json"]
CASES.update({
    "validate-missing-file": ["validate", "missing.json"],
    "validate-not-json": ["validate", "not_json.json"],
    "validate-document-array": ["validate", "document_array.json"],
    "candidates-marking-inconsistent": ["candidates", "label_b.json"],
    # every shape: figure-eights need a vertex on two circles, which the
    # rose's loop edges give
    "candidates-k33": ["candidates", "k33_source.json"],
    "candidates-rose3": ["candidates", "rose3.json"],
    "orbit-aut-bad-generator": ["orbit", _X, "--aut", "A=ab,b=a", "--inv",
                                "a=b,b=Ba"],
    "orbit-aut-missing-image": ["orbit", _X, "--aut", "a=ab", "--inv",
                                "a=b,b=Ba"],
    "orbit-aut-duplicate-image": ["orbit", _X, "--aut", "a=ab,b=a,a=b",
                                  "--inv", "a=b,b=Ba"],
    "checkgeod-qg-bad-rational": ["checkgeod", _X, _T, _Y, "--qg", "two",
                                  "1"],
    "tlength-bad-character": ["tlength", _X, "a1"],
    # one edge of length 10^400: its factors overflow a float, their logs do
    # not
    "distance-huge-length": ["distance", "huge_length.json", _Y],
    # petal a cut into 1,200 pieces: deeper than the default recursion limit
    "distance-cut-petal": ["distance", "cut_petal.json", "unit_rose.json"],
    # lengths 10^4000 and 10^-4000 each print, but the volume and the values
    # computed from them have too many digits to print
    "validate-long-value": ["validate", "long_value.json"],
    # a rank-2 rose at u and a loop c at w
    "validate-not-connected": ["validate", "not_connected.json"],
    "distance-long-value": ["distance", "long_value.json", _Y],
    "tlength-long-value": ["tlength", "long_value.json", "ab"],
})
# budgets: a negative one is an input error (exit 2); zero still gives the
# exact budget partial
CASES.update({
    "optmap-budget-negative": ["optmap", _X, _Y, "--max-moves", "-3"],
    "optmap-budget-zero": ["optmap", _X, _Y, "--max-moves", "0"],
    "foldpath-budget-negative": ["foldpath", _X, _Y, "--max-moves", "-3"],
    "foldpath-samples-negative": ["foldpath", _X, _Y, "--samples", "-2"],
    "foldpath-eps-zero": ["foldpath", _X, _Y, "--eps", "0"],
    "foldpath-eps-negative": ["foldpath", _X, _Y, "--eps", "-1"],
    "distance-sample-words-negative": ["distance", _X, _Y, "--sample-words",
                                       "-3"],
    "bcc-pair-cap-negative": ["bcc", _X, _Y, "--pair-cap", "-1"],
    "bcc-pair-cap-zero": ["bcc", _X, _Y, "--pair-cap", "0"],
})
# rank 1: the one bcc case that finishes within the default pair cap
CASES["bcc-circle"] = ["bcc", "circle_one.json", "circle_two.json"]


def write_inputs(directory):
    source, target = poly_twist_pair(3)
    cut_petal, _ = subdivide(unit_rose(2), {
        "a": [Fraction(k, 1200) for k in range(1, 1200)]})
    not_connected = make_graph(
        2, {"a": ("u", "u", 1), "b": ("u", "u", 1), "c": ("w", "w", 1)}, "u",
        [(("a", 1),), (("b", 1),)],
        {"a": generator(1, 2), "b": generator(2, 2), "c": identity(2)})
    for fname, G in (("theta_left.json", theta_left()),
                     ("theta_right.json", theta_right()),
                     ("rose_half.json", rose_t(Fraction(1, 2))),
                     ("rose_five_eighths.json", rose_t(Fraction(5, 8))),
                     ("circle_one.json", rose([1])),
                     ("circle_two.json", rose([2])),
                     ("twist3_source.json", source),
                     ("twist3_target.json", target),
                     ("unit_rose.json", unit_rose(2)),
                     ("rose3.json", rose([1, 2, 3])),
                     ("cut_petal.json", cut_petal),
                     ("not_connected.json", not_connected)):
        save_graph(os.path.join(directory, fname), G)
    edits = {f"{name}.json": (theta_left(), True, {keys: value})
             for name, (keys, value) in _MALFORMED.items()}
    edits.update({f"{name}.json": edit for name, edit in _EDITED.items()})
    edits["label_b.json"] = (theta_left(), True,
                             {("edges", 0, "label"): "b"})
    edits["huge_length.json"] = (theta_left(), True,
                                 {("edges", 0, "length"): "1e400"})
    edits["long_value.json"] = (theta_left(), True,
                                {("edges", 0, "length"): "1e4000",
                                 ("edges", 1, "length"): "1e-4000"})
    for fname, (G, labelled, changes) in edits.items():
        doc = graph_to_doc(G)
        if not labelled:
            for rec in doc["edges"]:
                del rec["label"]
        for (*keys, last), value in changes.items():
            field = doc
            for key in keys:
                field = field[key]
            field[last] = value
        with open(os.path.join(directory, fname), "w",
                  encoding="utf-8") as fh:
            fh.write(canonical_text(doc))
    with open(os.path.join(directory, "not_json.json"), "w",
              encoding="utf-8") as fh:
        fh.write("not json\n")
    with open(os.path.join(directory, "document_array.json"), "w",
              encoding="utf-8") as fh:
        fh.write("[]\n")
    for name, (family, seed) in {**HIGH_RANK, **FOLD_RANK3}.items():
        # a target on the same graph with its own lengths, marking twisted by
        # two Nielsen moves
        rng = random.Random(seed)
        A = random_tree_marked(rng, family)
        B = apply_automorphism_to_marking(
            random_tree_marked(rng, family),
            random_nielsen_automorphism(rng, A.rank, 2))
        save_graph(os.path.join(directory, f"{name}_source.json"), A)
        save_graph(os.path.join(directory, f"{name}_target.json"), B)


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def read_golden(fname):
    with open(os.path.join(GOLDEN, fname), encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    write_inputs(str(d))
    return d


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    code, out, err = run_case(CASES[case])
    assert code == json.loads(read_golden("exit_codes.json"))[case]
    assert out == read_golden(case + ".out")
    assert err == read_golden(case + ".err")


def regenerate():
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        write_inputs(d)
        os.chdir(d)
        try:
            for case in sorted(CASES):
                codes[case], out, err = run_case(CASES[case])
                for suffix, text in ((".out", out), (".err", err)):
                    with open(os.path.join(GOLDEN, case + suffix), "w",
                              encoding="utf-8", newline="") as fh:
                        fh.write(text)
        finally:
            os.chdir(here)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w",
              encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(regenerate())
