import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import outerspace.graphs as graphs
from conftest import assert_outcome, twisted_barbell
from outerspace.docs import format_word
from outerspace.errors import InvalidInputError, RankMismatchError
from outerspace.fixtures import (
    aut_poly,
    barbell,
    random_graph,
    random_nielsen_automorphism,
    random_word,
    rose,
    rose_t,
    theta_left,
    theta_right,
    unit_rose,
)
from outerspace.graphs import (
    apply_automorphism_to_marking,
    check_path,
    derive_inverse_marking,
    interpolate_in_simplex,
    loop_length,
    make_graph,
    marking_issues,
    is_cyclically_reduced,
    normalize_volume,
    realize_word_as_loop,
    realize_word_as_path,
    reduce_darts,
    scale_graph,
    subdivide,
    translation_length,
    validate_marked_graph,
    volume,
    word_of_loop,
)
from outerspace.words import (
    AutomorphismPair,
    apply_endomorphism,
    generator,
    identity,
    identity_automorphism,
)


# -- fixtures validate ---------------------------------------------------------

@pytest.mark.parametrize("G", [
    unit_rose(2),
    unit_rose(3),
    theta_left(),
    theta_right(),
    rose_t(F(5, 8)),
    barbell(1, 1, 1),
])
def test_fixtures_validate(G):
    assert validate_marked_graph(G) == []


def test_validate_rejects_bad_labels():
    G = unit_rose(2)
    bad = replace(G, labels={"a": generator(1, 2), "b": generator(1, 2)})
    assert "generator 2" in validate_marked_graph(bad)[0]


def test_validate_reports_nonpositive_length():
    G = rose([1, 0])
    assert "non-positive" in validate_marked_graph(G)[0]


def test_validate_reports_wrong_rank():
    G = unit_rose(2)
    bad = make_graph(3, dict(G.edges), "v",
                     list(G.marking) + [(("a", 1),)],
                     {"a": generator(1, 3), "b": generator(2, 3)})
    assert "Betti" in validate_marked_graph(bad)[0]


def _loop_c_at_w(G):
    """G, a rose at v, with a loop c at a new vertex w, labelled 1."""
    return make_graph(G.rank, {**G.edges, "c": ("w", "w", 1)}, G.basepoint,
                      G.marking, {**G.labels, "c": identity(G.rank)})


def _hair_at_v(G):
    """G, a rose at v, with an edge h from v to a new vertex x, labelled 1."""
    return make_graph(G.rank, {**G.edges, "h": ("v", "x", 1)}, G.basepoint,
                      G.marking, {**G.labels, "h": identity(G.rank)})


@pytest.mark.parametrize("bad, first_issue", [
    (replace(unit_rose(2), basepoint="x"), "basepoint 'x' is not a vertex"),
    (replace(theta_left(), vertices=frozenset({"u"})),
     "edge A has endpoint outside the vertex set"),
    (_loop_c_at_w(unit_rose(2)),
     "graph is not connected (vertex w unreachable)"),
    (_hair_at_v(unit_rose(2)), "vertex x has valence 1 < 2"),
    (replace(unit_rose(2), marking=((("a", 1),),)),
     "1 marking paths for rank 2"),
    (replace(unit_rose(2), marking=((("z", 1),), (("b", 1),))),
     "marking path 1: unknown oriented edge ('z', 1)"),
    (replace(theta_left(), marking=((("A", 1),), (("C", 1), ("B", -1)))),
     "marking path 1 is not a loop at the basepoint"),
], ids=["basepoint", "endpoint", "connected", "valence", "petal-count",
        "petal-dart", "petal-loop"])
def test_validate_reports_the_first_violated_invariant(bad, first_issue):
    assert validate_marked_graph(bad)[0] == first_issue


def test_validation_checks_each_petal_once(monkeypatch):
    checked = []
    check_path = graphs.check_path

    def counted(G, path):
        checked.append(path)
        return check_path(G, path)

    monkeypatch.setattr(graphs, "check_path", counted)
    G = theta_left()
    assert validate_marked_graph(G) == []
    assert checked == list(G.marking)


# -- path reduction ----------------------------------------------------------------

def test_reduce_darts_path_cancellation():
    # A . A~ . B -> B
    out = reduce_darts((("A", 1), ("A", -1), ("B", 1)))
    assert out == (("B", 1),)


def test_reduce_darts_loop_to_empty():
    out = reduce_darts((("A", 1), ("B", -1), ("B", 1), ("A", -1)), cyclic=True)
    assert out == ()


def test_check_path_rejects_non_incident():
    G = barbell(1, 1, 1)
    with pytest.raises(InvalidInputError):
        check_path(G, (("a", 1), ("b", 1)))


def test_reduce_darts_random_backtracking_insertions():
    G = theta_left()
    base = (("A", 1), ("B", -1), ("C", 1), ("B", -1))
    rng = random.Random(5)
    for _ in range(30):
        steps = list(base)
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(len(steps) + 1)
            v = G.origin(steps[i][0:2]) if i < len(steps) else G.terminus(steps[-1])
            d = rng.choice([d for d in G.darts() if G.origin(d) == v])
            steps[i:i] = [d, (d[0], -d[1])]
        assert reduce_darts(steps) == base


# -- lengths -----------------------------------------------------------------------

def test_translation_length_theta_tables():
    X = theta_left()
    Y = theta_right()
    a, b = generator(1, 2), generator(2, 2)
    ab_inv = a * b.inverse()
    # loop AB (word a): 1/2 in X; loop EF in Y has length 5/6
    assert translation_length(X, a) == F(1, 2)
    assert translation_length(Y, a) == F(5, 6)
    # loop AC (word ab^-1): 2/3 in X, realized as EFGF in Y: 4/3
    assert translation_length(X, ab_inv) == F(2, 3)
    assert translation_length(Y, ab_inv) == F(4, 3)
    assert translation_length(X, identity(2)) == 0


def test_loop_length_examples():
    X = theta_left()
    assert loop_length(X, (("A", 1), ("C", -1))) == F(2, 3)
    R = unit_rose(2)
    assert loop_length(R, (("a", 1),)) == 1


def test_loop_length_rejects_unreduced():
    X = theta_left()
    with pytest.raises(InvalidInputError):
        loop_length(X, (("A", 1), ("A", -1)))


def test_loop_length_rejects_an_unknown_dart():
    with pytest.raises(InvalidInputError,
                       match=r"unknown oriented edge \('Z', 1\)"):
        loop_length(theta_left(), (("Z", 1),))


def test_loop_length_matches_translation_length():
    rng = random.Random(9)
    for _ in range(30):
        G = random_graph(rng)
        w = random_word(rng, 2, 8)
        loop = realize_word_as_loop(G, w)
        if not loop:
            continue
        assert loop_length(G, loop) == translation_length(G, w)


def test_word_of_loop_roundtrip():
    X = theta_left()
    rng = random.Random(13)
    for _ in range(30):
        w = random_word(rng, 2, 8)
        loop = realize_word_as_loop(X, w)
        if not loop:
            continue
        back = word_of_loop(X, loop)
        assert translation_length(X, back) == loop_length(X, loop)


def test_word_of_loop_rejects_an_unknown_dart():
    with pytest.raises(InvalidInputError,
                       match=r"unknown oriented edge \('Z', 1\)"):
        word_of_loop(theta_left(), (("Z", 1),))


# -- every graph has a label on every edge ------------------------------------------

def _without_b(X):
    return {e: w for e, w in X.labels.items() if e != "B"}


@pytest.mark.parametrize("build", [
    lambda X: make_graph(2, X.edges, "u", X.marking, _without_b(X)),
    lambda X: replace(X, labels=_without_b(X)),
    lambda X: graphs.MarkedMetricGraph(X.rank, X.vertices, X.edges,
                                       X.basepoint, X.marking, _without_b(X)),
], ids=["make_graph", "replace", "constructor"])
def test_a_graph_without_a_label_is_not_built(build):
    assert_outcome(lambda: build(theta_left()),
                   InvalidInputError("edge B has no inverse label"))


def test_labels_none_misses_the_least_edge():
    assert_outcome(lambda: replace(theta_left(), labels=None),
                   InvalidInputError("edge A has no inverse label"))


def test_make_graph_derives_omitted_labels():
    X = theta_left()
    assert make_graph(2, X.edges, "u", X.marking) == X


# -- conjugacy and powers -----------------------------------------------------------

def test_translation_length_conjugacy_invariant():
    rng = random.Random(31)
    for _ in range(40):
        G = random_graph(rng)
        w = random_word(rng, 2, 6)
        u = random_word(rng, 2, 6)
        assert translation_length(G, u * w * u.inverse()) == \
            translation_length(G, w)


def test_translation_length_powers():
    rng = random.Random(32)
    for _ in range(20):
        G = random_graph(rng)
        w = random_word(rng, 2, 5)
        for k in (1, 2, 3):
            assert translation_length(G, w ** k) == k * translation_length(G, w)


# -- volume -----------------------------------------------------------------------

def test_volume_theta_is_one():
    assert volume(theta_left()) == 1
    assert volume(theta_right()) == 1


def test_normalize_scale():
    k = 3
    G = rose([k + 1, k + 1])
    H, scale = normalize_volume(G)
    assert scale == F(1, 2 * k + 2)
    assert volume(H) == 1
    H2, scale2 = normalize_volume(H)
    assert H2 == H and scale2 == 1


def test_normalize_scales_translation_lengths():
    rng = random.Random(41)
    G = random_graph(rng)
    H, scale = normalize_volume(G)
    for _ in range(10):
        w = random_word(rng, 2, 6)
        assert translation_length(H, w) == translation_length(G, w) * scale


# -- interpolation -------------------------------------------------------------------

def test_interpolate_endpoints_and_midpoint():
    A = barbell(1, 1, 1)
    B = barbell(2, F(1, 2), 1)  # circle lengths (2, 1/2), separating edge 1
    assert interpolate_in_simplex(A, B, F(0)) == A
    assert interpolate_in_simplex(A, B, F(1)) == B
    mid = interpolate_in_simplex(A, B, F(1, 2))
    assert mid.edges["a"][2] == F(3, 2)
    assert mid.edges["c"][2] == F(1)
    assert mid.edges["b"][2] == F(3, 4)


def test_interpolate_rejects_different_simplices():
    with pytest.raises(InvalidInputError):
        interpolate_in_simplex(theta_left(), theta_right(), F(1, 2))


# -- automorphism action ---------------------------------------------------------------

def test_apply_identity_automorphism():
    from outerspace.words import identity_automorphism

    G = theta_left()
    assert apply_automorphism_to_marking(G, identity_automorphism(2)) == G


def test_apply_poly_automorphism_to_rose():
    G = unit_rose(2)
    H = apply_automorphism_to_marking(G, aut_poly())
    assert H.marking[1] == (("b", 1), ("a", 1))
    assert validate_marked_graph(H) == []


def test_twisted_length_identity():
    rng = random.Random(51)
    for _ in range(10):
        G = random_graph(rng)
        phi = random_nielsen_automorphism(rng, 2)
        H = apply_automorphism_to_marking(G, phi)
        assert validate_marked_graph(H) == []
        for _ in range(5):
            w = random_word(rng, 2, 6)
            twisted = apply_endomorphism(w, phi.forward_images)
            assert translation_length(H, w) == translation_length(G, twisted)


def test_automorphism_round_trip_lengths():
    rng = random.Random(52)
    G = theta_left()
    phi = random_nielsen_automorphism(rng, 2, moves=4)
    H = apply_automorphism_to_marking(
        apply_automorphism_to_marking(G, phi), phi.inverse()
    )
    for _ in range(20):
        w = random_word(rng, 2, 8)
        assert translation_length(H, w) == translation_length(G, w)


# -- label derivation --------------------------------------------------------------

def test_derive_labels_rose():
    G = replace(unit_rose(2), labels={"a": identity(2), "b": identity(2)})
    labels = derive_inverse_marking(G)
    assert labels["a"] == generator(1, 2)
    assert labels["b"] == generator(2, 2)


@pytest.mark.parametrize("make", [theta_left, theta_right])
def test_derive_labels_theta(make):
    G = make()
    H = replace(G, labels=derive_inverse_marking(G))
    assert validate_marked_graph(H) == []


def test_derive_labels_after_automorphism():
    rng = random.Random(61)
    for _ in range(10):
        G = random_graph(rng)
        phi = random_nielsen_automorphism(rng, 2)
        H = apply_automorphism_to_marking(G, phi)
        H2 = replace(H, labels=derive_inverse_marking(H))
        assert validate_marked_graph(H2) == []
        for _ in range(10):
            w = random_word(rng, 2, 6)
            assert translation_length(H2, w) == translation_length(H, w)


def test_derive_labels_detects_non_injective_marking():
    # both petals trace the same circle: not a marking isomorphism
    edges = {"a": ("v", "v", F(1)), "b": ("v", "v", F(1))}
    marking = [(("a", 1),), (("a", 1),)]
    G = make_graph(2, edges, "v", marking, dict.fromkeys(edges, identity(2)))
    with pytest.raises(InvalidInputError):
        derive_inverse_marking(G)


def _theta_with_first_petal(petal):
    """theta_left with its first petal replaced (the derivation ignores the
    labels)."""
    return replace(theta_left(), marking=(petal, theta_left().marking[1]))


@pytest.mark.parametrize("petal, message", [
    ((("A", 1),), "marking path 1 is not a loop at the basepoint"),
    ((("A", 1), ("Z", -1)), "marking path 1: unknown oriented edge ('Z', -1)"),
], ids=["not-a-loop", "unknown-dart"])
def test_derive_labels_words_a_bad_petal_as_the_marking_check(petal, message):
    G = _theta_with_first_petal(petal)
    assert marking_issues(G) == [message]
    assert_outcome(lambda: derive_inverse_marking(G),
                   InvalidInputError(message))


def test_derive_labels_rejects_a_petal_that_reduces_to_nothing():
    # A.A~ is a loop at the basepoint, so the marking check passes it
    G = _theta_with_first_petal((("A", 1), ("A", -1)))
    assert marking_issues(G) == []
    with pytest.raises(InvalidInputError, match=r"^marking path 1 "):
        derive_inverse_marking(G)


def test_derive_labels_pinned_on_twisted_barbell():
    # the bridge c carries the gauge at w, which depends on the fold order:
    # absorbing the edge that reaches the basepoint's class gives c = bA
    labels = derive_inverse_marking(twisted_barbell())
    assert {e: format_word(w) for e, w in labels.items()} == \
        {"a": "aaB", "b": "bAAbAAbA", "c": "aaBaaB"}


# -- subdivision ----------------------------------------------------------------------

def test_subdivide_preserves_lengths_and_marking():
    G = theta_left()
    H, expansion = subdivide(G, {"A": [F(1, 12)], "C": [F(1, 4), F(1, 3)]})
    assert validate_marked_graph(H) == []
    assert volume(H) == volume(G)
    rng = random.Random(71)
    for _ in range(20):
        w = random_word(rng, 2, 8)
        assert translation_length(H, w) == translation_length(G, w)


def test_subdivide_names_a_piece_around_a_taken_id():
    """Cutting e while an edge e.1 exists: the first piece is e.1.1."""
    G = make_graph(2, {"e": ("v", "v", 1), "e.1": ("v", "v", 1)}, "v",
                   [(("e", 1),), (("e.1", 1),)],
                   {"e": generator(1, 2), "e.1": generator(2, 2)})
    H, expansion = subdivide(G, {"e": [F(1, 3)]})
    assert expansion[("e", 1)] == (("e.1.1", 1), ("e.2", 1))
    assert sorted(H.edges) == ["e.1", "e.1.1", "e.2"]
    assert H.length("e.1.1") == F(1, 3)
    assert validate_marked_graph(H) == []


def test_subdivide_names_pieces_around_taken_ids_of_every_depth():
    """The first piece of a steps past the taken ``a.1`` and ``a.1.1`` to
    ``a.1.2``, and the pieces of the later cut of a.1 step past those."""
    G = rose([1, 1, 1], names=["a", "a.1", "a.1.1"])
    H, expansion = subdivide(G, {"a": [F(1, 2)], "a.1": [F(1, 3)]})
    assert sorted(H.edges) == ["a.1.1", "a.1.1.1", "a.1.2", "a.1.2.1", "a.2"]
    assert expansion[("a", 1)] == (("a.1.2", 1), ("a.2", 1))
    assert expansion[("a.1", 1)] == (("a.1.1.1", 1), ("a.1.2.1", 1))
    assert sorted(H.vertices) == ["a.1:v1", "a:v1", "v"]
    assert validate_marked_graph(H) == []


# -- branches of input checking ----------------------------------------------------------

@pytest.mark.parametrize("call, expect", [
    (lambda: is_cyclically_reduced(theta_left(), (("A", 1), ("A", -1))),
     False),
    (lambda: scale_graph(theta_left(), 0),
     InvalidInputError("scale factor must be positive")),
    (lambda: interpolate_in_simplex(theta_left(), theta_left(), 2),
     InvalidInputError("interpolation parameter 2 outside [0, 1]")),
    (lambda: subdivide(theta_left(), {"A": [F(1, 6)]}),
     InvalidInputError("cut offsets for edge A not interior")),
    (lambda: apply_automorphism_to_marking(theta_left(),
                                           identity_automorphism(3)),
     RankMismatchError("automorphism rank 3 != graph rank 2")),
    (lambda: apply_automorphism_to_marking(theta_left(), AutomorphismPair(
        (generator(1, 2) * generator(2, 2), generator(2, 2)),
        (generator(1, 2), generator(2, 2)), 2)),
     InvalidInputError("invalid automorphism pair: "
                       "inverse(forward(a_1)) = (1, 2), not a_1")),
], ids=["backtracking-loop", "scale-0", "interpolate-2", "cut-at-end",
        "automorphism-rank", "automorphism-pair"])
def test_input_checks(call, expect):
    assert_outcome(call, expect)


def missing_petal():
    """A rank-2 rose whose marking has one petal."""
    return make_graph(2, {"a": ("v", "v", 1), "b": ("v", "v", 1)}, "v",
                      [(("a", 1),)])


@pytest.mark.parametrize("call", [
    lambda B: translation_length(B, generator(2, 2)),
    lambda B: realize_word_as_path(B, generator(1, 2)),
    lambda B: realize_word_as_loop(B, generator(2, 2)),
    lambda B: apply_automorphism_to_marking(B, identity_automorphism(2)),
    derive_inverse_marking,
], ids=["translation_length", "realize_word_as_path", "realize_word_as_loop",
        "apply_automorphism_to_marking", "derive_inverse_marking"])
def test_missing_petal_is_an_input_error(call):
    with pytest.raises(InvalidInputError,
                       match=r"^1 marking paths for rank 2$"):
        call(missing_petal())


# theta_right's petals are E.F~ and F.G~; single darts E and F are not loops
_E, _F, _EF = (("E", 1),), (("F", 1),), (("E", 1), ("F", -1))


@pytest.mark.parametrize("petals, call, issue", [
    ((_E, _F), lambda Z: realize_word_as_path(Z, generator(1, 2)
                                                 * generator(2, 2)),
     "marking path 1 is not a loop at the basepoint"),
    ((_E, _F), lambda Z: realize_word_as_path(Z, generator(1, 2)),
     "marking path 1 is not a loop at the basepoint"),
    ((_EF, _F), lambda Z: translation_length(Z, generator(1, 2)),
     "marking path 2 is not a loop at the basepoint"),
], ids=["joined-petals", "one-petal", "unread-petal"])
def test_realization_checks_the_whole_marking(petals, call, issue):
    """Petals that are not loops are rejected with the first marking issue,
    also where the word reads only a bad petal or only good ones."""
    Z = replace(theta_right(), marking=petals)
    assert_outcome(lambda: call(Z), InvalidInputError(issue))


def test_extra_petal_is_counted_before_labels_are_derived():
    """Petals a, b, a on a rank-2 rose: the marking check names the count,
    before the third petal is read as a generator that does not exist."""
    edges = {"a": ("v", "v", 1), "b": ("v", "v", 1)}
    marking = [(("a", 1),), (("b", 1),), (("a", 1),)]
    B = make_graph(2, edges, "v", marking, dict.fromkeys(edges, identity(2)))
    expect = InvalidInputError("3 marking paths for rank 2")
    assert_outcome(lambda: derive_inverse_marking(B), expect)
    assert_outcome(lambda: make_graph(2, edges, "v", marking), expect)
