import copy
import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from functools import reduce
from operator import getitem

import pytest

from conftest import assert_outcome, k4_fold_pair, save_graph, twisted_barbell
from outerspace import cli
from outerspace.docs import (
    Report,
    canonical_text,
    doc_to_graph,
    format_word,
    graph_to_doc,
    load_graph,
    log_of,
    parse_word,
)
from outerspace.fixtures import (
    barbell,
    poly_twist_pair,
    rose,
    rose_t,
    theta_left,
    theta_right,
    unit_rose,
)
from outerspace.folding import (
    check_dR_geodesic,
    fast_fold,
    prepare_folding_setup,
)
from outerspace.errors import InvalidInputError
from outerspace.graphs import make_graph
from outerspace.words import Word


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, G in (
        ("X", theta_left()),
        ("Y", theta_right()),
        ("T", rose_t(F(5, 8))),
        ("R", unit_rose(2)),
        ("R3", unit_rose(3)),
        ("P", poly_twist_pair(3)[0]),
    ):
        p = tmp_path / f"{name}.json"
        save_graph(str(p), G)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- word syntax --------------------------------------------------------------------------

def test_word_syntax_roundtrip():
    w = parse_word("abA", 2)
    assert w.letters == (1, 2, -1)
    assert format_word(w) == "abA"
    assert parse_word("", 2).letters == ()
    big = Word((27, -30), 40)
    assert format_word(big) == "x27 X30"
    assert parse_word("x27 X30", 40) == big


@pytest.mark.parametrize("call, expect", [
    (lambda: parse_word("x1 y2", 27),
     InvalidInputError("bad word token 'y2'")),
    (lambda: Report("t").render("xml"),
     InvalidInputError("unknown format 'xml'")),
], ids=["word-token", "report-format"])
def test_input_checks(call, expect):
    assert_outcome(call, expect)


# -- document round-trips --------------------------------------------------------------------

def test_document_roundtrip_byte_identical(tmp_path):
    G = theta_left()
    doc = graph_to_doc(G)
    text = canonical_text(doc)
    doc2 = json.loads(text)
    G2 = doc_to_graph(doc2)
    assert canonical_text(graph_to_doc(G2)) == text
    assert G2 == G


def test_document_without_labels_derives_them():
    X = theta_left()
    doc = graph_to_doc(X)
    for rec in doc["edges"]:
        del rec["label"]
    plain = make_graph(X.rank, X.edges, X.basepoint, X.marking)
    assert doc_to_graph(doc) == plain == X


# one value of each JSON type: string, int, float, bool, null, list, object
JSON_VALUES = ["x", 7, 2.5, True, None, ["x"], {"x": "x"}]


def json_locations(value, path=()):
    """The path of every value in a JSON document, the document included."""
    yield path
    if isinstance(value, (dict, list)):
        keys = value if isinstance(value, dict) else range(len(value))
        for k in keys:
            yield from json_locations(value[k], path + (k,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    reduce(getitem, path[:-1], doc)[path[-1]] = value
    return doc


def test_validate_survives_every_single_swap(tmp_path):
    # each value of a valid document, replaced by a value of each other JSON
    # type, is either still valid or an input error (exit 2), never a crash
    base = graph_to_doc(theta_left())
    swapped = tmp_path / "swapped.json"
    for path in json_locations(base):
        current = reduce(getitem, path, base)
        for value in JSON_VALUES:
            if type(value) is type(current):
                continue
            swapped.write_text(json.dumps(replaced(base, path, value)))
            with redirect_stdout(io.StringIO()), \
                    redirect_stderr(io.StringIO()):
                code = cli.main(["validate", str(swapped)])
            assert code in (0, 2), (path, value)


# -- commands -------------------------------------------------------------------------------

def test_validate_ok(files, capsys):
    code, out, _ = run(capsys, "validate", files["X"])
    assert code == 0
    assert "valid\tyes" in out


def test_validate_rejects_bad_doc(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = graph_to_doc(theta_left())
    doc["edges"][0]["length"] = "0/1"
    bad.write_text(canonical_text(doc))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2


@pytest.mark.parametrize("length", ["1e5000", "1e10000000"])
def test_validate_rejects_a_length_past_the_digit_limit(tmp_path, capsys,
                                                        length):
    # its numerator could not be printed; the exponent alone decides, before
    # ten is raised to it
    bad = tmp_path / "bad.json"
    doc = graph_to_doc(theta_left())
    doc["edges"][0]["length"] = length
    bad.write_text(canonical_text(doc))
    start = time.perf_counter()
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "Exceeds the limit" in err
    assert time.perf_counter() - start < 0.5


def test_tlength(files, capsys):
    code, out, _ = run(capsys, "tlength", files["X"], "aB")
    assert code == 0
    assert "2/3" in out


def test_candidates_theta(files, capsys):
    code, out, _ = run(capsys, "candidates", files["X"])
    assert code == 0
    assert out.count("\nO\t") == 3


def test_distance_X_Y(files, capsys):
    code, out, _ = run(capsys, "distance", files["X"], files["Y"],
                       "--witness")
    assert code == 0
    assert "Lambda_R\t2/1" in out
    assert "right\t-A C" in out


def test_distance_swaps_columns(files, capsys):
    _, out_ab, _ = run(capsys, "distance", files["X"], files["T"])
    _, out_ba, _ = run(capsys, "distance", files["T"], files["X"])

    def grab(out, what):
        for line in out.splitlines():
            if line.startswith(what + "\t"):
                return line.split("\t")[1]

    assert grab(out_ab, "Lambda_R") == grab(out_ba, "Lambda_L")
    assert grab(out_ab, "Lambda_L") == grab(out_ba, "Lambda_R")
    assert grab(out_ab, "Lambda") == grab(out_ba, "Lambda")


def test_distance_T_to_Y_crossing(files, capsys):
    code, out, _ = run(capsys, "distance", files["T"], files["Y"],
                       "--witness")
    assert code == 0
    assert "Lambda_R\t4/3" in out
    # the figure-eight witness ab^-1 appears among the right witnesses
    assert any(
        line.startswith("right\t") and "-b" in line.split("\t")[1]
        for line in out.splitlines()
    )


def test_distance_sample_words(files, capsys):
    code, out, _ = run(capsys, "--seed", "7", "distance", files["X"],
                       files["Y"], "--sample-words", "40")
    assert code == 0
    assert "bounded\t" not in out  # header is a column name, check verdict
    assert "\tyes" in out


@pytest.mark.parametrize(
    "command", ["distance", "optmap", "foldpath", "bcc", "checkgeod"])
def test_two_graph_command_rank_mismatch(files, capsys, command):
    code, _, err = run(capsys, command, files["R"], files["R3"])
    assert code == 3


def test_optmap(files, capsys):
    code, out, _ = run(capsys, "optmap", files["X"], files["Y"])
    assert code == 0
    assert "stretch\t2/1" in out
    assert "certified\tyes" in out


def test_optmap_budget_exhausted(files, capsys):
    code, _, err = run(capsys, "optmap", files["X"], files["Y"],
                       "--max-moves", "0")
    assert code == 4
    assert "budget" in err


def test_optmap_budget_reports_exact_gap(files, capsys):
    code, out, err = run(capsys, "optmap", files["X"], files["T"],
                         "--max-moves", "1")
    assert code == 4
    assert out == ""
    assert "best stretch 39/20, certified target 3/2, gap 9/20" in err


def test_foldpath_identity_pair(files, capsys):
    code, out, _ = run(capsys, "foldpath", files["X"], files["X"])
    assert code == 0
    assert "events\t0" in out


def test_foldpath_trace(files, tmp_path, capsys):
    trace = tmp_path / "trace.tsv"
    code, out, _ = run(capsys, "foldpath", files["R"], files["T"],
                       "--samples", "3", "--trace", str(trace))
    assert code == 0
    text = trace.read_text()
    assert "triangle_residual" in text
    for line in text.splitlines():
        if line and line[0].isdigit():
            assert line.split("\t")[6] == "0/1"


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_foldpath_trace_unwritable(files, tmp_path, capsys, where):
    trace = {"missing-directory": tmp_path / "missing" / "trace.tsv",
             "directory": tmp_path}[where]
    code, out, err = run(capsys, "foldpath", files["R"], files["T"],
                         "--trace", str(trace))
    assert code == 2
    assert out == ""
    assert f"cannot write {trace}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("eps, message", [
    ("abc", "bad rational 'abc': Invalid literal for Fraction: 'abc'"),
    ("0", "thin-part threshold 0/1 must be positive"),
    ("-1", "thin-part threshold -1/1 must be positive"),
], ids=["malformed", "zero", "negative"])
def test_foldpath_reads_eps_before_any_work(files, capsys, monkeypatch, eps,
                                            message):
    def no_setup(*args, **kwargs):
        raise AssertionError("the fold was prepared before --eps was read")

    monkeypatch.setattr(cli, "prepare_folding_setup", no_setup)
    code, out, err = run(capsys, "foldpath", files["X"], files["Y"],
                         "--eps", eps)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_foldpath_builds_only_what_it_reports(files, tmp_path, capsys,
                                              monkeypatch):
    # the k=3 twist folds in 3 events; each of the 3 sample times between
    # them is one partial fold, read by its row and by its speeds
    import outerspace.folding as folding

    fold_step = folding.fold_step
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fold_step(*args, **kwargs)

    monkeypatch.setattr(folding, "fold_step", counting)
    target = str(tmp_path / "P-target.json")
    save_graph(target, poly_twist_pair(3)[1])
    code, _, err = run(capsys, "foldpath", files["P"], target,
                       "--samples", "3")
    assert code == 0, err
    assert len(calls) == 6


@pytest.mark.parametrize("source,target",
                         [("Y", "T"), ("X", "T"), ("X", "R"), ("X", "P")])
def test_foldpath_single_vertex_toward_speed_zero(files, capsys, source,
                                                  target):
    # folding one vertex at a time, the target's witness loop can miss every
    # turn being folded; its multiplicity and speed are then 0
    code, out, err = run(capsys, "foldpath", files[source], files[target],
                         "--strategy", "single-vertex", "--samples", "1")
    assert code == 0, err
    rows = [line.split("\t") for line in out.splitlines()
            if line[:1].isdigit()]
    assert "0/1" in [row[4] for row in rows]


@pytest.mark.parametrize("source,target", [("V", "Y"), ("B1", "V")])
def test_foldpath_collapses_a_hair(files, tmp_path, capsys, source, target):
    # a fold of these pairs leaves a vertex with a single edge (the source's
    # w, or the basepoint u); collapsing that hair keeps the path a d_R
    # geodesic
    G = barbell(F(1, 3), F(1, 2), F(1, 5))
    a, A, b, B = ("a", 1), ("a", -1), ("b", 1), ("b", -1)
    c, C = ("c", 1), ("c", -1)
    V = make_graph(2, G.edges, "u", [(c, B, C, a), (c, b, C, A, c, b, C)],
                   {"a": parse_word("baa", 2), "b": parse_word("ba", 2),
                    "c": parse_word("", 2)})
    for name, H in (("V", V), ("B1", twisted_barbell())):
        files[name] = str(tmp_path / f"{name}.json")
        save_graph(files[name], H)
    code, out, err = run(capsys, "foldpath", files[source], files[target])
    assert code == 0, err
    assert {line.split("\t")[6] for line in out.splitlines()
            if line[:1].isdigit()} == {"0/1"}
    path = fast_fold(prepare_folding_setup(load_graph(files[source]),
                                           load_graph(files[target])))
    assert check_dR_geodesic(path.snapshots)[0]


def test_checkgeod_crossing(files, capsys):
    code, out, _ = run(capsys, "checkgeod", files["X"], files["T"],
                       files["Y"])
    assert code == 0
    assert "right-factor triangle equality\tyes" in out


def test_checkgeod_quasi(files, capsys):
    code, out, _ = run(capsys, "checkgeod", files["X"], files["T"],
                       files["Y"], "--qg", "4", "1")
    assert code == 0
    assert "quasi-geodesic" in out


@pytest.mark.parametrize("metric", ["dL", "nonsense"])
def test_checkgeod_rejects_unknown_metric(files, capsys, metric):
    with pytest.raises(SystemExit) as exc:
        cli.main(["checkgeod", files["X"], files["T"], files["Y"],
                  "--metric", metric, "--qg", "2", "1"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_log_of_factors_beyond_the_float_range():
    assert log_of(F(3, 2)) == math.log(1.5)
    assert log_of(F(6 * 10 ** 399)) == pytest.approx(
        math.log(6) + 399 * math.log(10))
    assert log_of(F(1, 10 ** 400)) == pytest.approx(-400 * math.log(10))


@pytest.mark.parametrize("argv", [
    ["checkgeod", "H", "X", "T", "Y", "--qg", "2", "1"],
    ["checkgeod", "H", "X", "T", "--qg", "2", "11/10"],
    ["orbit", "H", "--aut", "a=ab,b=a", "--inv", "a=b,b=Ba", "--hmin", "0",
     "--hmax", "1"],
])
def test_logs_of_huge_factors_are_reported(files, tmp_path, capsys, argv):
    doc = graph_to_doc(theta_left())
    doc["edges"][0]["length"] = "1e400"
    files["H"] = str(tmp_path / "H.json")
    with open(files["H"], "w", encoding="utf-8") as fh:
        fh.write(canonical_text(doc))
    code, _, err = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 0, err


def test_checkgeod_reads_one_stretch_table(files, tmp_path, capsys,
                                           monkeypatch):
    # four files have 6 index pairs: one stretch report (two lambda_r calls)
    # per pair serves the four-point and quasi-geodesic checks, and the
    # right-factor check reads its own lambda_r values up to its first
    # failing triple, (0, 1, 2): 3 of them
    import outerspace.folding as folding
    import outerspace.stretch as stretch

    calls = []
    original = stretch.lambda_r

    def counting(A, B):
        calls.append((A, B))
        return original(A, B)

    monkeypatch.setattr(stretch, "lambda_r", counting)
    monkeypatch.setattr(folding, "lambda_r", counting)
    M = str(tmp_path / "M.json")
    save_graph(M, rose_t(F(1, 2)))
    code, out, err = run(capsys, "checkgeod", files["X"], M, files["T"],
                         files["Y"], "--qg", "2", "1")
    assert code == 0, err
    assert "4-point property\tyes" in out
    assert "right-factor triangle equality\tNO\ttriple (0, 1, 2)" in out
    assert len(calls) == 15


def test_orbit_command(files, capsys):
    code, out, _ = run(capsys, "orbit", files["R"], "--aut", "a=ab,b=a",
                       "--inv", "a=b,b=Ba", "--hmin", "-2", "--hmax", "2")
    assert code == 0
    assert "2\t3/1\t3/1\t9/1" in out


def test_orbit_rejects_non_inverse(files, capsys):
    code, _, err = run(capsys, "orbit", files["R"], "--aut", "a=ab,b=a",
                       "--inv", "a=b,b=ab")
    assert code == 2


def test_bcc_budget_reports_partial(files, capsys):
    code, out, err = run(capsys, "bcc", files["R"], files["R"],
                         "--pair-cap", "50")
    assert code == 4
    assert "partial lower bound: 2/1" in err


def test_bcc_pair_cap_beyond_float_range(tmp_path, capsys):
    # a cap past the largest float bounds the same enumeration as the default
    paths = []
    for name, G in (("one", rose([1])), ("two", rose([2]))):
        paths.append(str(tmp_path / f"circle_{name}.json"))
        save_graph(paths[-1], G)
    code, out, err = run(capsys, "bcc", *paths)
    assert code == 0, err
    assert run(capsys, "bcc", *paths, "--pair-cap", str(10 ** 400)) == \
        (0, out, err)


def test_repro_names(capsys):
    code, out, _ = run(capsys, "repro", "wiest-coulbois")
    assert code == 0
    assert "alpha_R interval\t[5/8, 5/8]" in out
    assert "alpha_L interval\t[3/8, 3/8]" in out


def test_repro_incompleteness_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "repro", "incompleteness")
    assert code == 0
    data = json.loads(out)
    assert data["tables"][0]["rows"][0][2] == "6/5"


def test_internal_invariant_exit_code(files, capsys, monkeypatch):
    from outerspace.errors import InternalInvariantError

    def boom(*a, **k):
        raise InternalInvariantError("forced for the exit-code fixture")

    monkeypatch.setattr(cli, "stretch_report", boom)
    code, _, err = run(capsys, "distance", files["X"], files["Y"])
    assert code == 5


def test_unprintable_partial_bound_keeps_the_budget_exit_code(
        files, capsys, monkeypatch):
    from outerspace.errors import BudgetExhaustedError

    def exhausted(*a, **k):
        raise BudgetExhaustedError("forced budget", partial=F(10 ** 5000, 3))

    monkeypatch.setattr(cli, "stretch_report", exhausted)
    code, out, err = run(capsys, "distance", files["X"], files["Y"])
    assert (code, out) == (4, "")
    assert err == ("error: forced budget\npartial lower bound: not printed: "
                   "a value to print exceeds the limit (4300 digits) for "
                   "integer string conversion\n")


def test_fold_event_budget_exits_4_without_a_bound(tmp_path, capsys,
                                                  monkeypatch):
    """The fold's partial is a path, not a bound: one error line."""
    import outerspace.folding as folding

    names = []
    for name, G in zip(("A", "B"), k4_fold_pair()):
        names.append(str(tmp_path / f"{name}.json"))
        save_graph(names[-1], G)
    monkeypatch.setattr(folding, "MAX_EVENTS", 3)
    code, out, err = run(capsys, "foldpath", *names)
    assert (code, out, err) == (4, "", "error: fold event budget 3 exhausted\n")


def test_byte_determinism(files, capsys):
    a = run(capsys, "repro", "orbit")
    b = run(capsys, "repro", "orbit")
    assert a == b
