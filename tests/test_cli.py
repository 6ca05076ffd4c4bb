import json
from fractions import Fraction as F

import pytest

from conftest import twisted_barbell
from outerspace import cli
from outerspace.docs import (
    canonical_text,
    doc_to_graph,
    format_word,
    graph_to_doc,
    parse_word,
    save_graph,
)
from outerspace.fixtures import (
    barbell,
    poly_twist_pair,
    rose_t,
    theta_left,
    theta_right,
    unit_rose,
)
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
    doc = graph_to_doc(theta_left())
    for rec in doc["edges"]:
        del rec["label"]
    G = doc_to_graph(doc)
    assert G.labels is not None
    assert G == theta_left()


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


def test_distance_rank_mismatch(files, capsys):
    code, _, err = run(capsys, "distance", files["R"], files["R3"])
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


@pytest.mark.parametrize("source,target,vertex", [("V", "Y", "w"),
                                                  ("B1", "V", "u")])
def test_foldpath_valence_one_snapshot_is_an_internal_error(
        files, tmp_path, capsys, source, target, vertex):
    # a fold of these pairs leaves a vertex with a single edge (the source's
    # w, or the basepoint u); such a snapshot is not a marked graph, an open
    # problem of the zip semantics rather than an input error
    G = barbell(F(1, 3), F(1, 2), F(1, 5))
    a, A, b, B = ("a", 1), ("a", -1), ("b", 1), ("b", -1)
    c, C = ("c", 1), ("c", -1)
    V = make_graph(2, G.edges, "u", [(c, B, C, a), (c, b, C, A, c, b, C)],
                   {"a": parse_word("baa", 2), "b": parse_word("ba", 2),
                    "c": parse_word("", 2)})
    for name, H in (("V", V), ("B1", twisted_barbell())):
        files[name] = str(tmp_path / f"{name}.json")
        save_graph(files[name], H)
    code, _, err = run(capsys, "foldpath", files[source], files[target])
    assert code == 5
    assert f"vertex {vertex} has valence 1" in err


def test_checkgeod_crossing(files, capsys):
    code, out, _ = run(capsys, "checkgeod", files["X"], files["T"],
                       files["Y"])
    assert code == 0
    assert "right-factor triangle equality\tyes" in out


def test_checkgeod_quasi(files, capsys):
    code, out, _ = run(capsys, "checkgeod", files["X"], files["T"],
                       files["Y"], "--qg", "4", "0")
    assert code == 0
    assert "quasi-geodesic" in out


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


def test_byte_determinism(files, capsys):
    a = run(capsys, "repro", "orbit")
    b = run(capsys, "repro", "orbit")
    assert a == b
