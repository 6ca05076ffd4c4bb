import hashlib
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import outerspace.plmaps as plmaps
from conftest import (
    assert_outcome,
    fold_times,
    k4_fold_pair,
    pinned_fold_pairs,
    sweep_pair,
)
from outerspace.errors import (
    BudgetExhaustedError,
    InternalInvariantError,
    InvalidInputError,
    RankMismatchError,
)
from outerspace.fixtures import (
    aut_poly,
    barbell,
    poly_twist_pair,
    random_graph,
    random_nielsen_automorphism,
    random_same_simplex_pair,
    random_tree_marked,
    random_word,
    rose,
    shrinking_petal_rose,
    theta_left,
    theta_right,
    unit_rose,
)
from outerspace.folding import fast_fold, point_at, prepare_folding_setup
from outerspace.graphs import (
    apply_automorphism_to_marking,
    path_length,
    realize_word_as_path,
    reduce_darts,
    rev,
    stars,
    translation_length,
    volume,
    word_of_loop,
)
from outerspace.plmaps import (
    PLMap,
    PLPath,
    bounded_cancellation_bound,
    cancellation,
    cut_target_images,
    dart_point,
    dart_segs,
    germ_of_dart,
    initial_pl_map,
    make_plpath,
    next_v,
    optimize_pl_map,
    path_end,
    stretch_analysis,
    validate_pl_map,
)
from outerspace.stretch import lambda_r


def reversed_path(G, p):
    """The PL path p run backward."""
    segs = tuple((rev(d), G.length(d[0]) - b, G.length(d[0]) - a)
                 for (d, a, b) in reversed(p.segs))
    return PLPath(segs, path_end(G, p))


def pushed(images, loop):
    """The tightened image of a source loop, on the cut target."""
    return reduce_darts(x for d in loop for x in images[d])


# -- PL path machinery ----------------------------------------------------------------

def test_cut_target_images_cancel_a_partial_edge():
    """The rose's vertex goes halfway along petal a, so the target is cut
    there; the image of b is b conjugated by the half a.2, and b^-1 after
    a^-1, the second loop pair, cancels that half edge."""
    G = unit_rose(2)
    h = F(1, 2)
    a, b = ("a", 1), ("b", 1)
    f = PLMap(G, G, {"v": ("e", "a", h)}, {
        "a": make_plpath(G, [(a, h, F(1)), (a, F(0), h)]),
        "b": make_plpath(G, [(a, h, F(1)), (b, F(0), F(1)),
                             (rev(a), F(0), h)]),
    })
    assert validate_pl_map(f) == []
    C, images = cut_target_images(f)
    assert C.edges == {"a.1": ("v", "a:v1", h), "a.2": ("a:v1", "v", h),
                       "b": ("v", "v", F(1))}
    assert images[a] == (("a.2", 1), ("a.1", 1))
    assert images[rev(b)] == (("a.2", 1), rev(b), ("a.2", -1))
    assert cancellation(C, images[rev(a)], images[rev(b)]) == h
    assert bcc_or_partial(f, pair_cap=1) == (4, False)
    assert bcc_or_partial(f, pair_cap=2) == (4 + h, False)
    # an image segment that ends at no vertex image splits a piece
    g = replace(f, edge_image={**f.edge_image,
                               "a": make_plpath(G, [(a, F(1, 4), F(1))])})
    with pytest.raises(InternalInvariantError, match="splits a cut piece"):
        cut_target_images(g)


def test_seam_cancellation_matches_translation_length():
    """Images of based loops under optimized (or budget-partial) maps between
    random rank-2 pairs, on the cut target: the cyclic length is the
    translation length of the loop's word, and the cancellation at a seam
    accounts exactly for the length lost by concatenation."""
    rng = random.Random(41)
    cases = interior = partial = 0
    for _ in range(24):
        A = random_graph(rng)
        B, _ = random_same_simplex_pair(rng)
        B = apply_automorphism_to_marking(
            B, random_nielsen_automorphism(rng, 2, moves=2))
        try:
            f = optimize_pl_map(A, B, max_moves=2)
        except BudgetExhaustedError as exc:
            f = exc.partial[0]
            partial += 1
        C, dart_images = cut_target_images(f)
        images = []
        while len(images) < 8:
            loop = realize_word_as_path(A, random_word(rng, 2, 6))
            if loop:
                images.append(pushed(dart_images, loop))
        interior += f.vertex_image[A.basepoint][0] == "e"
        for p in images:
            # a reduced closed path is u.w.u~ with w cyclically reduced,
            # and the seam of p.p cancels exactly u
            assert path_length(C, p) - 2 * cancellation(C, p, p) == \
                translation_length(B, word_of_loop(C, p))
            for q in images[:4]:
                cases += 1
                assert 2 * cancellation(C, p, q) == path_length(C, p) + \
                    path_length(C, q) - path_length(C, reduce_darts(p + q))
    assert cases == 768
    assert interior > 0 and partial > 0


def test_mid_edge_merge():
    G = unit_rose(2)
    p = make_plpath(G, [(("a", 1), F(0), F(1, 2)), (("a", 1), F(1, 2), F(1))])
    assert p.segs == ((("a", 1), F(0), F(1)),)


def reference_plpath(G, segs):
    """The segments of an anchorless path by the rule `make_plpath` used
    to decide junctions with: a junction joins where `dart_point` puts the
    end of one segment and the start of the next at one point."""
    norm = []
    for (d, a, b) in segs:
        l = G.length(d[0])
        if not (0 <= a < b <= l):
            raise InvalidInputError(f"bad segment ({d}, {a}, {b})")
        if norm:
            pd, pa, pb = norm[-1]
            lp = G.length(pd[0])
            if pd == d and pb == a and pb < l:
                norm[-1] = (pd, pa, b)
                continue
            if dart_point(G, pd, pb) != dart_point(G, d, a):
                raise InvalidInputError("segments are not contiguous")
            if pb == lp and d == rev(pd):
                raise InvalidInputError("path backtracks at a vertex")
            if pb < lp:
                raise InvalidInputError("path turns at an interior point")
        norm.append((d, a, b))
    return tuple(norm)


def segments_or_message(build, G, segs):
    try:
        return build(G, segs)
    except InvalidInputError as exc:
        return str(exc)


@pytest.mark.parametrize("G", [theta_left(), barbell(1, 1, 1)],
                         ids=["theta", "barbell"])
def test_junctions_follow_the_dart_point_rule(G):
    """On every ordered pair of segments whose ends lie on the grid 0, 1/3,
    l/2 and l of their edge, `make_plpath` merges, accepts or refuses with
    the message of `reference_plpath`; each of the five outcomes occurs."""
    segs = []
    for d in G.darts():
        l = G.length(d[0])
        grid = sorted({x for x in (F(0), F(1, 3), l / 2, l) if x <= l})
        segs += [(d, a, b) for a in grid for b in grid if a < b]
    seen = set()
    for pair in ([s, t] for s in segs for t in segs):
        got = segments_or_message(lambda G, ss: make_plpath(G, ss).segs,
                                  G, pair)
        assert got == segments_or_message(reference_plpath, G, pair), pair
        seen.add(got if isinstance(got, str) else len(got))
    assert seen == {1, 2, "segments are not contiguous",
                    "path backtracks at a vertex",
                    "path turns at an interior point"}


# -- initial maps -------------------------------------------------------------------

def test_initial_map_identity_on_rose():
    G = unit_rose(2)
    f = initial_pl_map(G, G)
    assert validate_pl_map(f) == []
    ana = stretch_analysis(f)
    assert ana.stretch == 1
    assert ana.a_max == frozenset({"a", "b"})
    assert ana.boundary == ()


def test_initial_map_valid_between_thetas():
    f = initial_pl_map(theta_left(), theta_right())
    assert validate_pl_map(f) == []
    # Lipschitz bound dominates the stretching factor
    assert stretch_analysis(f).stretch >= 2


def test_missing_vertex_image_is_reported():
    f = initial_pl_map(theta_left(), theta_right())
    vertex_image = dict(f.vertex_image)
    del vertex_image["u"]
    assert validate_pl_map(replace(f, vertex_image=vertex_image)) == \
        ["vertex u has no image"]


def test_edge_image_off_its_origin_image_is_reported():
    f = optimize_pl_map(theta_left(), theta_right())
    B = f.target
    assert f.vertex_image["u"] != f.vertex_image["v"]
    edge_image = dict(f.edge_image)
    edge_image["A"] = reversed_path(B, edge_image["A"])
    assert validate_pl_map(replace(f, edge_image=edge_image)) == [
        "image of edge A does not start at the image of u",
        "image of edge A does not end at the image of v",
    ]


def test_twisted_source_marking_is_not_certified():
    """A certified map does not represent the change of marking once its
    source marking is twisted, also when the basepoint's image lies inside
    a target edge."""
    f = optimize_pl_map(theta_left(), theta_right())
    A = apply_automorphism_to_marking(f.source, aut_poly())
    assert validate_pl_map(replace(f, source=A)) == \
        ["pushed petal 2 is not freely homotopic to the target petal"]
    rng = random.Random(10_004)  # the robustness sweep's K4 seed 4
    A = random_tree_marked(rng, "K4")
    moves = rng.randint(1, 4)
    B = apply_automorphism_to_marking(
        random_tree_marked(rng, "K4"),
        random_nielsen_automorphism(rng, A.rank, moves))
    f = optimize_pl_map(A, B)
    assert f.vertex_image[A.basepoint][0] == "e"
    assert validate_pl_map(f) == []
    A = apply_automorphism_to_marking(
        A, random_nielsen_automorphism(random.Random(1), 3, 1))
    assert validate_pl_map(replace(f, source=A)) == \
        ["pushed petal 1 is not freely homotopic to the target petal"]


def test_initial_map_pushes_words_with_bounded_stretch():
    rng = random.Random(3)
    A = theta_left()
    B = theta_right()
    f = initial_pl_map(A, B)
    S = stretch_analysis(f).stretch
    for _ in range(50):
        w = random_word(rng, 2, 8)
        assert translation_length(B, w) <= S * translation_length(A, w)


# -- stretch analysis --------------------------------------------------------------------

def test_stretch_analysis_identity_values():
    A, B = theta_left(), theta_left((F(1, 3), F(1, 3), F(1, 2)))
    g = optimize_pl_map(A, B)
    ana = stretch_analysis(g)
    assert ana.stretch == lambda_r(A, B).value
    assert ana.boundary == ()
    # the cell's least-length optimum leaves C below the maximum
    assert ana.per_edge == {"A": F(4, 3), "B": F(4, 3), "C": F(11, 9)}


def test_next_v_rejects_non_offending_vertex():
    G = unit_rose(2)
    f = initial_pl_map(G, G)
    with pytest.raises(InvalidInputError):
        next_v(f, "v")


# -- optimization -------------------------------------------------------------------------

def test_optimize_identity_pair():
    G = theta_left()
    f = optimize_pl_map(G, G)
    assert stretch_analysis(f).stretch == 1


def test_optimize_X_to_Y_certifies_two():
    X, Y = theta_left(), theta_right()
    f = optimize_pl_map(X, Y)
    ana = stretch_analysis(f)
    assert ana.stretch == 2 == lambda_r(X, Y).value
    assert validate_pl_map(f) == []


def test_optimize_rose_pair():
    A = rose([2, 3])
    B = rose([F(1, 2), 5])
    f = optimize_pl_map(A, B)
    assert stretch_analysis(f).stretch == lambda_r(A, B).value


def test_optimize_poly_twist():
    A, B = poly_twist_pair(3)
    f = optimize_pl_map(A, B)
    ana = stretch_analysis(f)
    assert ana.stretch == lambda_r(A, B).value == 1
    assert validate_pl_map(f) == []


def test_next_v_lexicographic_progress():
    X, Y = theta_left(), theta_right()
    f = initial_pl_map(X, Y)
    for _ in range(200):
        ana = stretch_analysis(f)
        if ana.stretch == 2:
            break
        assert ana.boundary
        g = next_v(f, ana.boundary[0])
        ana2 = stretch_analysis(g)
        assert (ana2.stretch, len(ana2.a_max)) < (ana.stretch, len(ana.a_max)) \
            or ana2.stretch < ana.stretch
        f = g
    assert stretch_analysis(f).stretch == 2


def test_optimize_random_same_simplex_pairs():
    rng = random.Random(29)
    for _ in range(12):
        A, B = random_same_simplex_pair(rng)
        f = optimize_pl_map(A, B)
        assert stretch_analysis(f).stretch == lambda_r(A, B).value
        assert validate_pl_map(f) == []


def test_optimize_random_twisted_pairs():
    rng = random.Random(31)
    for _ in range(8):
        A = random_graph(rng)
        phi = random_nielsen_automorphism(rng, 2, moves=2)
        B, _ = random_same_simplex_pair(rng)  # fresh lengths, maybe new shape
        B = apply_automorphism_to_marking(B, phi)
        f = optimize_pl_map(A, B)
        assert stretch_analysis(f).stretch == lambda_r(A, B).value


def test_optimizer_analyses_each_map_once(monkeypatch):
    """Every map the optimizer builds, cell-LP maps included, is analysed
    once, in full or after a move; its analysis travels with it, also when
    an LP map above the target is adopted."""
    import outerspace.plmaps as plmaps

    analysed = []  # the maps themselves, so no id is reused meanwhile
    finish = plmaps._analysis

    def counting(f, per_edge):
        analysed.append(f)
        return finish(f, per_edge)

    monkeypatch.setattr(plmaps, "_analysis", counting)
    adopted_above = []
    cell_minimum = plmaps._cell_minimum

    def recording(f, target):
        cell = cell_minimum(f, target)
        stretch = max(p.length / f.source.length(e)
                      for e, p in f.edge_image.items())
        if cell is not None and target < cell[1].stretch < stretch:
            adopted_above.append(cell)
        return cell

    monkeypatch.setattr(plmaps, "_cell_minimum", recording)
    rng = random.Random(7)
    pairs = [(theta_left(), theta_right()), poly_twist_pair(3)]
    for _ in range(10):
        A = random_graph(rng)
        B = apply_automorphism_to_marking(
            random_graph(rng), random_nielsen_automorphism(rng, 2, 3))
        pairs.append((A, B))
    maps = [optimize_pl_map(A, B) for A, B in pairs]
    assert adopted_above
    assert len({id(f) for f in analysed}) == len(analysed)
    monkeypatch.undo()
    for f, (A, B) in zip(maps, pairs):
        assert stretch_analysis(f).stretch == lambda_r(A, B).value


def _pinned_optimizer_inputs():
    """(name, source, target, max_moves): seeded K4/K33 tree-marked pairs
    with 2-move Nielsen targets under a small budget, rank-2 random pairs,
    and shrinking-petal roses whose one move truncates a loop edge's image
    at both ends."""
    for seed in range(6):
        family = "K33" if seed % 2 else "K4"
        rng = random.Random(seed)
        A = random_tree_marked(rng, family)
        B = apply_automorphism_to_marking(
            random_tree_marked(rng, family),
            random_nielsen_automorphism(rng, A.rank, 2))
        yield f"{family}-{seed}", A, B, 60
    rng = random.Random(53)
    for i in range(8):
        A = random_graph(rng)
        B = apply_automorphism_to_marking(
            random_graph(rng), random_nielsen_automorphism(rng, 2, 3))
        yield f"rank2-{i}", A, B, 500
    for k, seed in [(2, 4), (2, 8), (3, 11), (3, 17), (5, 21)]:
        rng = random.Random(seed)
        B = apply_automorphism_to_marking(
            random_graph(rng, "barbell"), random_nielsen_automorphism(rng, 2, 2))
        yield f"petal-{k}-{seed}", shrinking_petal_rose(2, k), B, 500


def _optimizer_digest(f) -> str:
    """SHA-256 of the sorted vertex and edge images of a map (the trailing
    empty line once held a budget message)."""
    text = "\n".join([repr(sorted(f.vertex_image.items())),
                      repr(sorted(f.edge_image.items())), ""])
    return hashlib.sha256(text.encode()).hexdigest()


# recorded with the least-recently-moved schedule and the cell-LP finish; the
# rank2-1..4 and petal maps are those of the smallest-id-first schedule; the
# K4-0, K33-1, K33-3, K4-4 and K33-5 maps are least-length cell-LP optima
OPTIMIZER_PINS = {
    "K4-0":
        "e1b23fa8e518338f6150c5876bf874aaa7b0b6cd4d76280d75a56d753835309e",
    "K33-1":
        "b5848ba31b8e18f1d2c435c5b703053fb327b160f395ee151b11b1f03b6e5e50",
    "K4-2":
        "244c735114b16f2237154451f5281fdb88342e1f6c4658822a1e2c41ebc9394a",
    "K33-3":
        "b7cb4ace9eab1ed73f50ab7b1f1e9f0758c69debc36bcb46d3f4749169c36628",
    "K4-4":
        "a6c92cfbf63801dfce551292d3f072eaf7efe5b8a1a419cf43ac0d0feb62cbc2",
    "K33-5":
        "a702a5cb87569defe527423111027f24a7a709a85f1d766eb4eccae510267fea",
    "rank2-0":
        "a3d86f37488e9ff948ebd56ab88e6721e61cb495e350261a3e45999279207ed1",
    "rank2-1":
        "f81045478ec2aaadbb832821980226bcc8b821856ae47d8f48184eb6e0214eaf",
    "rank2-2":
        "18e16db4cafea490750d1dddabf5b9cef902d613b5ca2dcb74dc2507ad7acb5c",
    "rank2-3":
        "69daa68c055bf07632362f0d6830d80728f956b4cc4814467924b9b178581772",
    "rank2-4":
        "70c2d4ea717bb74c2f952e30ac729611a59fa3d5d76c88fc247ddc10fe56e61d",
    "rank2-5":
        "74eb5da253737efababda1dfc7aca13a93262f52f27016cdd9f70dd0e6a7ff07",
    "rank2-6":
        "c9cf6611af816329c9d251a060408cf570cdb7d0378c1167ec3a9826b375a73e",
    "rank2-7":
        "79a37b8dcef4d6b41440719ffb33dac9f7c98de590d2278a5790ff8f90435f02",
    "petal-2-4":
        "1f33616b0e7f2616b33ab4fbd8718010e1f2b573c97e617d6996d05ede66f105",
    "petal-2-8":
        "678e5b2d974bce84615acc2eb5d5d7da4a7de438fef35b133069d2530e0fa09a",
    "petal-3-11":
        "f8e9b289f2ce7880f1ecae3dc3efd6b3619cb8293e086b7bcf72916df9402c5d",
    "petal-3-17":
        "d915b3efb5a97e80e5f12bbc3a2bf811233da9b643e3d35548dc45be5570e215",
    "petal-5-21":
        "220c156ef172a8a6abbf46d7227d2e735399fb14e1def1b74e1fc2b767115886",
}


def test_optimizer_output_pinned():
    """Every pinned input certifies within its budget, and its map is
    pinned."""
    got = {}
    for name, A, B, m in _pinned_optimizer_inputs():
        f = optimize_pl_map(A, B, m)
        assert stretch_analysis(f).stretch == lambda_r(A, B).value, name
        assert validate_pl_map(f) == [], name
        got[name] = _optimizer_digest(f)
    assert got == OPTIMIZER_PINS


# the sweep pairs (`sweep_pair`) whose coordinate denominators grow the most
# while they are optimized (2e8 to 6e9 times the initial map's, on the
# volume-one pairs that `prepare_folding_setup` optimizes), as the optimizer
# in `Fraction`s computed them
SWEEP_OPTIMIZER_PINS = {
    ("K4", 51):
        "a72f9a7bb4b7808a87ede27043257771978eab8765818a79a9370113ebb62c4d",
    ("K33", 73):
        "dd08e5b8e46e67ba819ab90ae1a08424b649714d9977d348f55b46f0a45eecff",
    ("K33", 25):
        "1516d32b44f8460f6be937499d7268299a08e884a237cc9bc748e67fc29b65a1",
    ("prism5", 23):
        "66ad50683364089810a5b021617cd6af6a9380fea2c81164633be8dc5f419660",
}


def test_sweep_optimizer_output_pinned():
    """The optimal maps of the sweep pairs whose denominators grow the
    most, and the budget partial of prism5 seed 23 after 12 moves (two
    cell LPs), map and exact stretch, are those of the optimizer in
    `Fraction`s."""
    got = {key: _optimizer_digest(optimize_pl_map(*sweep_pair(*key)))
           for key in SWEEP_OPTIMIZER_PINS}
    assert got == SWEEP_OPTIMIZER_PINS
    with pytest.raises(BudgetExhaustedError) as info:
        optimize_pl_map(*sweep_pair("prism5", 23), 12)
    f, stretch, target = info.value.partial
    assert (_optimizer_digest(f), stretch, target) == (
        "c74a2d8c903160ab8b61f98d4d416bf796303df8b1ac42dc43cb378e4d1936fa",
        F(117, 10), F(3646, 703))


def assert_written_in_fractions(f):
    """Every vertex-image offset, segment end and anchor offset of f is a
    `Fraction`, not an int equal to one."""
    points = [*f.vertex_image.values(),
              *(p.anchor for p in f.edge_image.values())]
    assert all(type(x[2]) is F for x in points if x[0] == "e")
    assert all(type(a) is F and type(b) is F
               for p in f.edge_image.values() for _, a, b in p.segs)


def test_no_int_leaves_the_optimizer():
    """The optimizer computes in integer units, but what a caller reads is
    written in `Fraction`s: the optimal map of sweep pair prism5 seed 23,
    the setup map built from it, and the map and stretch of the budget
    partial of K33-1 after 7 moves."""
    A, B = sweep_pair("prism5", 23)
    assert_written_in_fractions(optimize_pl_map(A, B))
    assert_written_in_fractions(prepare_folding_setup(A, B).optimal_map)
    (A, B, _), = [x[1:] for x in _pinned_optimizer_inputs() if x[0] == "K33-1"]
    with pytest.raises(BudgetExhaustedError) as info:
        optimize_pl_map(A, B, 7)
    f, stretch, target = info.value.partial
    assert_written_in_fractions(f)
    assert type(stretch) is F and type(target) is F
    assert stretch_analysis(f).stretch == stretch > target
    assert target == lambda_r(A, B).value


def test_optimizer_unit_grows_at_a_fractional_step(monkeypatch):
    """On K4 sweep pair seed 51 every move receives a map whose lengths and
    coordinates are all ints, and the unit of the maps it receives grows
    where a step or a cell-LP point is not a whole number of units.  The
    optimal map is the pinned one."""
    step, units = plmaps._next_v, []

    def recording(f, v, ana, star):
        assert all(type(l) is int for G in (f.source, f.target)
                   for _, _, l in G.edges.values())
        assert all(type(x[2]) is int for x in f.vertex_image.values()
                   if x[0] == "e")
        assert all(type(a) is int and type(b) is int
                   for p in f.edge_image.values() for _, a, b in p.segs)
        units.append(f.unit)
        return step(f, v, ana, star)

    monkeypatch.setattr(plmaps, "_next_v", recording)
    f = optimize_pl_map(*sweep_pair("K4", 51))
    assert _optimizer_digest(f) == SWEEP_OPTIMIZER_PINS[("K4", 51)]
    assert len(units) == 12 and len(set(units)) > 1
    assert all(b % a == 0 for a, b in zip(units, units[1:]))



# every cell LP that optimize_pl_map solves on three pinned inputs, as
# (value, x) of an optimal LPResult: the stretch optimum, then the
# least-length one, at each checkpoint.  A solver that keeps every value may
# still return another optimal vertex, and the least-length one becomes the
# map
CELL_LP_PINS = {
    "K4-0": [
        ("-71/30", "59/90 71/90 71/30"),
        ("-13/9", "59/90 71/90 71/30"),
        ("-2", "17/60 59/60 19/20 101/60 2"),
        ("-10/3", "0 19/15 2/3 7/5 2"),
    ],
    "K33-1": [
        ("-257/150", "71/150 257/150"),
        ("221/300", "221/300 257/150"),
        ("-49/30", "1 1/30 23/60 11/30 49/30"),
        ("13/60", "1 1/30 23/60 11/30 49/30"),
        ("-464/285", "1/2 4/57 11/190 223/570 203/570 464/285"),
        ("-151/114", "128/285 11/570 2/285 42/95 116/285 464/285"),
    ],
    "K33-3": [
        ("-1227/230", "128/115 1227/230"),
        ("-128/115", "128/115 1227/230"),
        ("-45/13", "4/5 60/13 1403/260 45/13"),
        ("-411/260", "4/5 60/13 1403/260 45/13"),
        ("-1315/404", "69439/12120 353/4040 53659/12120 1315/404"),
        ("122039/12120", "69439/12120 353/4040 53659/12120 1315/404"),
    ],
}


def test_cell_lp_results_pinned(monkeypatch):
    """The simplex keeps its pivot path: each cell LP returns the same
    optimal vertex, not only the same value, and every one of them starts
    infeasible, so phase one runs.  Every least-length optimum here is
    provably unique, so no cell is solved again."""
    import outerspace.plmaps as plmaps
    from outerspace.simplex import LPResult

    solve = plmaps.maximize_on_optimum
    solved = []

    def recording(c, then, rows):
        assert min(rhs for _, rhs in rows) < 0  # needs phase one
        first, second, unique = solve(c, then, rows)
        assert unique
        solved.extend((first, second))
        return first, second, unique

    monkeypatch.setattr(plmaps, "maximize_on_optimum", recording)
    got = {}
    for name, A, B, m in _pinned_optimizer_inputs():
        if name in CELL_LP_PINS:
            solved = got[name] = []
            optimize_pl_map(A, B, m)
    assert got == {
        name: [LPResult("optimal", F(v), tuple(F(t) for t in x.split()))
               for v, x in pins]
        for name, pins in CELL_LP_PINS.items()}


def test_tied_least_length_optimum_keeps_its_map(monkeypatch):
    """On Petersen sweep pair seed 8, three of the five cells that the
    optimizer solves have a least-length optimum that is not provably
    unique, and in two of them the one-run solve ends at another optimal
    vertex.  Those three are solved again from scratch, so the optimal map
    stays the one recorded before the one-run solve."""
    import outerspace.plmaps as plmaps

    solve_again = plmaps.maximize
    again = []
    monkeypatch.setattr(plmaps, "maximize",
                        lambda c, rows: again.append(c) or solve_again(c, rows))
    setup = prepare_folding_setup(*sweep_pair("petersen", 8))
    assert _optimizer_digest(setup.optimal_map) == (
        "9d7797638052e79b4282ba86b5889dde8136acea6aa6933cbdd99f3934ab2862")
    assert len(again) == 3


def test_cell_lp_map_keeps_the_images_it_does_not_move(monkeypatch):
    """Every cell-LP map of the pinned optimizer inputs keeps the `PLPath`
    object of each edge neither of whose end images the LP moves: only the
    images of the vertices that slide are edited."""
    cell = plmaps._cell_minimum
    kept = []

    def recording(f, target):
        out = cell(f, target)
        for e, (o, t, _) in f.source.edges.items():
            if out and all(out[0].vertex_image[v] == f.vertex_image[v]
                           for v in (o, t)):
                assert out[0].edge_image[e] is f.edge_image[e], e
                kept.append(e)
        return out

    monkeypatch.setattr(plmaps, "_cell_minimum", recording)
    for name, A, B, m in _pinned_optimizer_inputs():
        optimize_pl_map(A, B, m)
    assert len(kept) == 38


def test_slide_there_and_back_restores_the_images(monkeypatch):
    """Each vertex image inside a target edge of every map that a move
    builds on the K4 and K3,3 sweep pairs 0-9 slides halfway toward either
    end of its edge and back along the reversed head: the map in between is
    valid, and the round trip restores every image.  The images grow,
    shrink, and lose or regain whole segments."""
    step, maps = plmaps._next_v, []

    def recording(*args):
        out = step(*args)
        maps.append(out[0])
        return out

    monkeypatch.setattr(plmaps, "_next_v", recording)
    for family in ("K4", "K33"):
        for seed in range(10):
            optimize_pl_map(*sweep_pair(family, seed))
    monkeypatch.undo()

    def slid(f, v, head):
        (d, _, b), B = head[-1], f.target
        return PLMap(f.source, B, {**f.vertex_image, v: dart_point(B, d, b)},
                     {**f.edge_image, **plmaps.slide_ends(
                         f, dict.fromkeys(stars(f.source)[v], head))})

    trips = 0
    for f in maps:
        B = f.target
        for v, pt in sorted(f.vertex_image.items()):
            if pt[0] != "e":
                continue
            (_, E, x), L = pt, B.length(pt[1])
            for head in ([((E, -1), L - x, L - x / 2)],
                         [((E, 1), x, (x + L) / 2)]):
                g = slid(f, v, head)
                assert validate_pl_map(g) == []
                back = slid(g, v, [(rev(d), L - b, L - a)
                                   for (d, a, b) in head])
                assert back.vertex_image == f.vertex_image
                assert back.edge_image == f.edge_image
                trips += 1
    assert trips == 1282


def test_dart_readers_match_the_reversed_path(monkeypatch):
    """`germ_of_dart` and `dart_segs` agree with the stored path, run
    backward by `reversed_path` for a reversed dart, on every dart of every
    map the optimizer builds and of every snapshot and mid-event map of the
    pinned fold pairs under both strategies."""
    import outerspace.plmaps as plmaps

    maps = []
    step = plmaps._next_v

    def recording(*args):
        out = step(*args)
        maps.append(out[0])
        return out

    monkeypatch.setattr(plmaps, "_next_v", recording)
    for name, A, B, m in _pinned_optimizer_inputs():
        if name in ("K4-0", "K33-1", "K33-3", "K33-5", "rank2-2", "petal-2-4"):
            maps.append(initial_pl_map(A, B))
            optimize_pl_map(A, B, m)
    assert len(maps) > 80
    monkeypatch.undo()
    folded = 0
    for A, B in pinned_fold_pairs().values():
        setup = prepare_folding_setup(A, B)
        for strategy in ("simultaneous", "single-vertex"):
            path = fast_fold(setup, strategy)
            for t in fold_times(path):
                maps.append(point_at(path, t).map)
                folded += 1
    assert folded == 78
    for f in maps:
        for d in f.source.darts():
            p = f.edge_image[d[0]]
            if d[1] < 0:
                p = reversed_path(f.target, p)
            assert germ_of_dart(f, d) == (p.segs[0][0] if p.segs else None)
            assert list(dart_segs(f, d)) == list(p.segs)


def test_move_off_its_stretch_line_is_caught(monkeypatch):
    """A slide shorter than the chosen step leaves the moved edges off the
    predicted stretch lines; the incremental analysis refuses the map."""
    import outerspace.plmaps as plmaps

    slide = plmaps.slide_ends
    monkeypatch.setattr(
        plmaps, "slide_ends",
        lambda f, heads: slide(f, {d: [(y, a, (a + b) / 2)]
                                   for d, [(y, a, b)] in heads.items()}))
    f = initial_pl_map(theta_left(), theta_right())
    with pytest.raises(InternalInvariantError, match="off its stretch line"):
        next_v(f, stretch_analysis(f).boundary[0])


# the outcomes on the pinned K4 and K3,3 inputs of each wrong cell-LP optimum
WRONG_CELL_LP_OUTCOMES = {
    "claims-target": {"InternalInvariantError", "certified"},
    "low": {"InternalInvariantError"},
    "moved-point": {"InternalInvariantError"},
    "off-edge": {"InternalInvariantError"},
}


@pytest.mark.parametrize("fault", WRONG_CELL_LP_OUTCOMES)
def test_wrong_cell_lp_optimum_is_never_returned(fault, monkeypatch):
    """An LP that reports a wrong optimum, for the stretch or for the least
    length (in one run or in a tie's from-scratch solve), makes the
    optimizer raise or keep moving; whatever it returns is still
    certified.  A point off its target edge is an internal error, not an
    input error."""
    import outerspace.plmaps as plmaps
    from outerspace.simplex import LPResult

    solve, solve_again = plmaps.maximize_on_optimum, plmaps.maximize
    calls = []

    def wrong(c, then, rows):
        first, second, unique = solve(c, then, rows)
        calls.append(first)
        return corrupt(first), corrupt(second), unique

    def corrupt(res):
        if res.status != "optimal":  # a wrong value can make it infeasible
            return res
        if fault == "claims-target":  # the cell optimum, reported as target
            return LPResult("optimal", -target, res.x)
        if fault == "low":
            return LPResult("optimal", res.value + F(1, 1000), res.x)
        if fault == "moved-point":
            return LPResult("optimal", res.value,
                            tuple(x / 2 for x in res.x[:-1]) + res.x[-1:])
        return LPResult("optimal", res.value,  # off the target edge
                        tuple(3 * x + 1 for x in res.x[:-1]) + res.x[-1:])

    monkeypatch.setattr(plmaps, "maximize_on_optimum", wrong)
    monkeypatch.setattr(plmaps, "maximize",
                        lambda c, rows: corrupt(solve_again(c, rows)))
    outcomes = set()
    for name, A, B, m in _pinned_optimizer_inputs():
        if not name.startswith("K"):
            continue
        target = lambda_r(A, B).value
        try:
            f = optimize_pl_map(A, B, 500)
        except (InternalInvariantError, BudgetExhaustedError) as exc:
            outcomes.add(type(exc).__name__)
            continue
        outcomes.add("certified")
        assert stretch_analysis(f).stretch == target
        assert validate_pl_map(f) == []
    assert calls
    assert outcomes == WRONG_CELL_LP_OUTCOMES[fault]


# -- bounded cancellation ---------------------------------------------------------------

def bcc_or_partial(f, pair_cap=10 ** 6):
    """The exact bound, or the capped lower bound with a truncation flag."""
    try:
        return bounded_cancellation_bound(f, pair_cap), True
    except BudgetExhaustedError as exc:
        return exc.partial, False


def test_bcc_rank_one_circle_completes():
    G = rose([1])
    f = optimize_pl_map(G, G)
    assert bounded_cancellation_bound(f) == volume(G)


def test_bcc_identity_rose():
    # the identity has zero cancellation on every admissible pair, so even
    # the capped enumeration reports exactly vol(A)
    G = unit_rose(2)
    f = optimize_pl_map(G, G)
    bound, exact = bcc_or_partial(f, pair_cap=20000)
    assert bound == volume(G)


def test_bcc_poly_automorphism():
    G = unit_rose(2)
    H = apply_automorphism_to_marking(G, aut_poly())
    f = optimize_pl_map(G, H)
    bound, _ = bcc_or_partial(f, pair_cap=20000)
    assert bound >= 1 + volume(G)


def test_bcc_capped_partial_follows_sorted_stars():
    # loops are enumerated with a loop edge's (e, -1) before its (e, 1), so
    # the first pairs under a small cap, and the partial bound, are fixed
    A, B = poly_twist_pair(3)
    f = optimize_pl_map(A, B)
    assert bcc_or_partial(f, pair_cap=10) == (8, False)


def test_bcc_builds_one_star_table(monkeypatch):
    # the pair of the golden case bcc-k4: the pair cap stops the enumeration
    # after three of the four source vertices
    f = optimize_pl_map(*k4_fold_pair())
    calls = []

    def counted(G):
        calls.append(G)
        return stars(G)

    monkeypatch.setattr(plmaps, "stars", counted)
    assert not bcc_or_partial(f, pair_cap=2000)[1]
    assert calls == [f.source]


def test_bcc_never_exceeded_by_longer_pairs():
    rng = random.Random(37)
    G = unit_rose(2)
    H = apply_automorphism_to_marking(G, aut_poly())
    f = optimize_pl_map(G, H)
    lam = stretch_analysis(f).stretch
    bound, _ = bcc_or_partial(f, pair_cap=50000)
    K = bound - lam * volume(G)
    C, images = cut_target_images(f)
    checked = 0
    while checked < 200:
        wa = random_word(rng, 2, 12)
        wb = random_word(rng, 2, 12)
        if not wa or not wb:
            continue
        pa = realize_word_as_path(G, wa)
        pb = realize_word_as_path(G, wb)
        if not pa or not pb:
            continue
        if pb[0] == (pa[-1][0], -pa[-1][1]) or pa[0] == (pb[-1][0], -pb[-1][1]):
            continue
        checked += 1
        la = path_length(C, pushed(images, pa))
        lb = path_length(C, pushed(images, pb))
        lab = path_length(C, pushed(images, pa + pb))
        assert (la + lb - lab) / 2 <= K


def theta_segments(*segs):
    """A PL path on `theta_left` (A, B, C from u to v, lengths 1/6, 1/3,
    1/2) through ``(dart, a, b)`` segments."""
    return make_plpath(theta_left(), [(d, F(a), F(b)) for (d, a, b) in segs])


def without_image(e):
    """The initial map from `theta_left` to `theta_right`, less the image
    of edge e."""
    f = initial_pl_map(theta_left(), theta_right())
    return replace(f, edge_image={x: p for x, p in f.edge_image.items()
                                  if x != e})


def one_petal_rose():
    """`unit_rose(2)` with a marking of its first petal only."""
    R = unit_rose(2)
    return replace(R, marking=R.marking[:1])


@pytest.mark.parametrize("call, expect", [
    (lambda: dart_point(theta_left(), ("A", 1), F(1)),
     InvalidInputError("coordinate 1 outside [0, 1/6] on ('A', 1)")),
    (lambda: theta_segments((("A", 1), 0, 1)),
     InvalidInputError("bad segment (('A', 1), 0, 1)")),
    (lambda: theta_segments((("Z", 1), 0, "1/6")),
     InvalidInputError("unknown oriented edge ('Z', 1)")),
    (lambda: theta_segments((("A", 2), 0, "1/6")),
     InvalidInputError("unknown oriented edge ('A', 2)")),
    (lambda: theta_segments((("A", 1), 0, "1/6"), (("B", 1), 0, "1/3")),
     InvalidInputError("segments are not contiguous")),
    (lambda: theta_segments((("A", 1), 0, "1/6"), (("A", -1), 0, "1/6")),
     InvalidInputError("path backtracks at a vertex")),
    (lambda: theta_segments((("A", 1), 0, "1/12"),
                            (("A", -1), "1/12", "1/6")),
     InvalidInputError("path turns at an interior point")),
    (lambda: make_plpath(theta_left(), [(("A", 1), F(0), F(1, 6))],
                         ("v", "v")),
     InvalidInputError("anchor does not match the first segment")),
    (lambda: initial_pl_map(theta_left(), unit_rose(3)),
     RankMismatchError("ranks differ: 2 != 3")),
    (lambda: initial_pl_map(one_petal_rose(), unit_rose(2)),
     InvalidInputError("1 marking paths for rank 2")),
    (lambda: validate_pl_map(without_image("B")),
     ["edge B has no image path"]),
    (lambda: validate_pl_map(replace(initial_pl_map(unit_rose(2),
                                                    unit_rose(2)),
                                     source=one_petal_rose())),
     ["1 marking paths for rank 2"]),
], ids=["dart-point", "bad-segment", "unknown-edge", "unknown-orientation",
        "not-contiguous", "backtrack", "interior-turn", "anchor",
        "initial-ranks", "initial-missing-petal", "missing-edge-image",
        "missing-source-petal"])
def test_input_checks(call, expect):
    assert_outcome(call, expect)
