"""The three workloads: construction from plain data, the timed operation,
and the correctness checks run after timing.

Operations call only the public package namespace ``lib`` (the imported
``outerspace`` package), so the tracer sees every call into a layer.  Checks
compare unique answers with the exact references in ``refs.json`` and
path-dependent answers with the paper's invariants; they run after the timed
batch so that no check warms a cache for a later operation.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction


class CheckFailed(Exception):
    """An output disagrees with its reference or with an invariant."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- construction through public constructors ---------------------------------

def build_graph(lib, g: dict):
    rank = g["rank"]
    return lib.make_graph(
        rank,
        {e: (o, t, length) for e, o, t, length in g["edges"]},
        g["basepoint"],
        [tuple((e, s) for e, s in petal) for petal in g["marking"]],
        {e: lib.Word(tuple(w), rank) for e, w in g["labels"].items()},
    )


def build_automorphism(lib, phi: dict, rank: int):
    return lib.AutomorphismPair(
        tuple(lib.Word(tuple(w), rank) for w in phi["forward"]),
        tuple(lib.Word(tuple(w), rank) for w in phi["inverse"]),
        rank,
    )


def build(lib, inst: dict) -> tuple:
    """(A, B) for one instance; a target with ``phi`` gets its marking
    precomposed with the automorphism."""
    A = build_graph(lib, inst["A"])
    B = build_graph(lib, inst["B"])
    if "phi" in inst:
        phi = build_automorphism(lib, inst["phi"], B.rank)
        B = lib.apply_automorphism_to_marking(B, phi)
    return A, B


# -- timed operations ---------------------------------------------------------

def op_geodesic(lib, A, B):
    setup = lib.prepare_folding_setup(A, B)
    path = lib.fast_fold(setup)
    snaps = path.snapshots
    dR = lib.check_dR_geodesic(snaps)[0] if len(snaps) >= 3 else True
    four = True
    if len(snaps) >= 4:
        four = lib.check_four_point(
            snaps, lambda x, y: lib.stretch_report(x, y).Lambda)[0]
    return setup, path, dR, four


def op_distance(lib, A, B):
    return lib.stretch_report(A, B)


def op_optfold(lib, A, B):
    setup = lib.prepare_folding_setup(A, B)
    return setup, lib.fast_fold(setup)


OPS = {"geodesic-rank2": op_geodesic, "distance-highrank": op_distance,
       "optfold-highrank": op_optfold}


# -- checks -------------------------------------------------------------------

def reference_values(lib, A, B) -> dict:
    """The unique answers of a pair, as exact ``p/q`` strings."""
    rep = lib.stretch_report(A, B)
    return {"lambda_R": str(rep.lambda_R), "lambda_L": str(rep.lambda_L),
            "Lambda": str(rep.Lambda)}


def check_reference(rep, ref: dict, tag: str) -> None:
    for key in ("lambda_R", "lambda_L", "Lambda"):
        require(getattr(rep, key) == Fraction(ref[key]),
                f"{tag}: {key} = {getattr(rep, key)}, reference {ref[key]}")


def check_certificate(lib, A, setup, lam: Fraction, tag: str) -> None:
    """The map the setup came from, read with the source's own (volume-one)
    metric, is Lipschitz with constant exactly lambda_R."""
    An, _ = lib.normalize_volume(A)
    f = setup.optimal_map
    source = replace(f.source, edges={
        e: (o, t, An.length(e)) for e, (o, t, _) in f.source.edges.items()})
    stretch = lib.stretch_analysis(lib.PLMap(
        source, f.target, f.vertex_image, f.edge_image)).stretch
    require(stretch == lam, f"{tag}: certificate stretch {stretch} != {lam}")


def check_path(lib, path, tag: str) -> None:
    """Right-factor triangle equality at every event and a witness loop of
    constant length along the whole fold."""
    snaps, target = path.snapshots, path.target
    total = lib.lambda_r(snaps[0], target).value
    for k, g in enumerate(snaps[1:-1], start=1):
        got = lib.lambda_r(snaps[0], g).value * lib.lambda_r(g, target).value
        require(got == total, f"{tag}: triangle equality fails at event {k}")
    w = lib.word_of_loop(snaps[0], path.witness)
    base = lib.translation_length(snaps[0], w)
    for k, g in enumerate(snaps):
        require(lib.translation_length(g, w) == base,
                f"{tag}: witness length changes at event {k}")


def check_budget(lib, exc, lam: Fraction, tag: str) -> None:
    """An exhausted optimizer reports an exact partial result: a map whose
    stretch is a strict upper bound on the certified target lambda_R."""
    f, stretch, target = exc.partial
    require(target == lam, f"{tag}: budget target {target} != {lam}")
    require(lib.stretch_analysis(f).stretch == stretch > target,
            f"{tag}: budget partial is not an exact upper bound")


def check(lib, workload: str, A, B, out, ref: dict, tag: str) -> None:
    """Raise CheckFailed unless ``out`` (the op's result, or the exception it
    raised) is correct for the pair (A, B)."""
    if workload == "distance-highrank" and not isinstance(out, BaseException):
        check_reference(out, ref, tag)
        return
    rep = lib.stretch_report(A, B)
    check_reference(rep, ref, tag)
    if isinstance(out, lib.errors.BudgetExhaustedError):
        check_budget(lib, out, rep.lambda_R, tag)
    elif not isinstance(out, BaseException):
        setup, path = out[0], out[1]
        check_certificate(lib, A, setup, rep.lambda_R, tag)
        check_path(lib, path, tag)
        if workload == "geodesic-rank2":
            require(out[2] and out[3], f"{tag}: geodesic verdict is false")
