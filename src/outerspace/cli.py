"""Command-line surface.

Commands: validate, tlength, candidates, distance, optmap, foldpath,
checkgeod, orbit, bcc, repro.  Exit codes: 0 ok, 2 invalid input, 3 rank
mismatch, 4 budget exhausted, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import repro as repro_mod
from .docs import (
    Report,
    format_fraction,
    format_log,
    format_path,
    format_word,
    load_graph,
    parse_fraction,
    parse_word,
)
from .errors import InvalidInputError, OuterspaceError, RankMismatchError
from .fixtures import aut_power, random_word
from .folding import (
    check_dR_geodesic,
    check_four_point,
    check_quasi_geodesic,
    fast_fold,
    pairwise,
    point_at,
    prepare_folding_setup,
    speeds,
    systole_and_thin_test,
)
from .graphs import (
    apply_automorphism_to_marking,
    loop_length,
    translation_length,
    validate_marked_graph,
    volume,
    word_of_loop,
)
from .plmaps import (
    bounded_cancellation_bound,
    optimize_pl_map,
    stretch_analysis,
)
from .stretch import enumerate_candidates, lambda_r, stretch_report
from .words import AutomorphismPair, validate_automorphism_pair


def _load_graphs(*paths):
    """Each graph file loaded and validated, in order; all of one rank."""
    graphs = []
    for path in paths:
        G = load_graph(path)
        if issues := validate_marked_graph(G):
            raise InvalidInputError(f"{path}: {issues[0]}")
        graphs.append(G)
    ranks = {g.rank for g in graphs}
    if len(ranks) > 1:
        raise RankMismatchError(f"graphs have different ranks: {sorted(ranks)}")
    return graphs


def cmd_validate(args) -> Report:
    [G] = _load_graphs(args.file)
    rep = Report(f"validation of {args.file}")
    t = rep.table("result", ["check", "value"])
    t.add("valid", "yes")
    t.add("rank", G.rank)
    t.add("vertices", len(G.vertices))
    t.add("edges", len(G.edges))
    t.add("volume", format_fraction(volume(G)))
    return rep


def cmd_tlength(args) -> Report:
    [G] = _load_graphs(args.file)
    w = parse_word(args.word, G.rank)
    rep = Report(f"translation length in {args.file}")
    t = rep.table("result", ["word", "length"])
    t.add(format_word(w), format_fraction(translation_length(G, w)))
    return rep


def cmd_candidates(args) -> Report:
    [G] = _load_graphs(args.file)
    rep = Report(f"candidate loops of {args.file}")
    t = rep.table("candidates", ["shape", "loop", "word", "length"])
    for cand in enumerate_candidates(G):
        t.add(
            cand.shape.value,
            format_path(cand.loop),
            format_word(word_of_loop(G, cand.loop)),
            format_fraction(loop_length(G, cand.loop)),
        )
    return rep


def cmd_distance(args) -> Report:
    if args.sample_words < 0:
        raise InvalidInputError(
            f"sample word count {args.sample_words} is negative")
    A, B = _load_graphs(args.fileA, args.fileB)
    srep = stretch_report(A, B)
    rep = Report(f"distance between {args.fileA} and {args.fileB}")
    t = rep.table("stretching factors", ["quantity", "exact", "log"])
    t.add("Lambda_R", format_fraction(srep.lambda_R),
          format_log(srep.lambda_R))
    t.add("Lambda_L", format_fraction(srep.lambda_L),
          format_log(srep.lambda_L))
    t.add("Lambda", format_fraction(srep.Lambda), format_log(srep.Lambda))
    chosen = {"d": srep.Lambda, "dR": srep.lambda_R,
              "dL": srep.lambda_L}[args.metric]
    t.add(f"distance ({args.metric})", "-", format_log(chosen))
    if args.witness:
        w = rep.table("witnesses", ["side", "loop", "word"])
        for side, G, cands in (("right", A, srep.witnesses_R),
                               ("left", B, srep.witnesses_L)):
            for cand in cands:
                w.add(side, format_path(cand.loop),
                      format_word(word_of_loop(G, cand.loop)))
    if args.sample_words:
        rng = random.Random(args.seed)
        worst = Fraction(0)
        for _ in range(args.sample_words):
            wd = random_word(rng, A.rank, 10)
            la = translation_length(A, wd)
            lb = translation_length(B, wd)
            if la > 0 and lb > 0:
                worst = max(worst, lb / la)
        worst *= volume(A) / volume(B)
        s = rep.table("sampled-word check", ["max sampled ratio", "Lambda_R",
                                             "bounded"])
        s.add(format_fraction(worst), format_fraction(srep.lambda_R),
              "yes" if worst <= srep.lambda_R else "NO")
    return rep


def cmd_optmap(args) -> Report:
    A, B = _load_graphs(args.fileA, args.fileB)
    f = optimize_pl_map(A, B, max_moves=args.max_moves)
    ana = stretch_analysis(f)
    rep = Report(f"optimal map {args.fileA} -> {args.fileB}")
    t = rep.table("summary", ["quantity", "value"])
    t.add("stretch", format_fraction(ana.stretch))
    t.add("certified", "yes")
    t.add("maximal edges", " ".join(sorted(ana.a_max)))
    t.add("boundary vertices", " ".join(ana.boundary) or "-")
    pe = rep.table("per-edge stretch", ["edge", "stretch"])
    for e in sorted(ana.per_edge):
        pe.add(e, format_fraction(ana.per_edge[e]))
    return rep


def cmd_foldpath(args) -> Report:
    if args.samples < 0:
        raise InvalidInputError(f"sample count {args.samples} is negative")
    eps = parse_fraction(args.eps)
    if eps <= 0:
        raise InvalidInputError(
            f"thin-part threshold {format_fraction(eps)} must be positive")
    A, B = _load_graphs(args.fileA, args.fileB)
    setup = prepare_folding_setup(A, B, max_moves=args.max_moves)
    path = fast_fold(setup, strategy=args.strategy)
    rep = Report(f"fast folding path {args.fileA} -> {args.fileB}")

    times = list(path.events)
    if args.samples > 0 and path.end_time > 0:
        step = path.end_time / (args.samples + 1)
        times += [step * i for i in range(1, args.samples + 1)]
    times = sorted(set(times))

    # raw right factors: volumes cancel in the triangle residual, and the
    # setup normalizes the target to volume one, so vol(G) * lambda_r(G, B)
    # is the right-factor distance from G to the target
    source, target = path.source_prepared, path.target
    total = lambda_r(source, target).value
    t = rep.table(
        "trace",
        ["time", "volume", "systole", "local_speed", "toward_speed",
         "d_R_to_target", "triangle_residual", "thin(eps)"],
    )
    for tt in times:
        point = point_at(path, tt)
        G = point.graph
        sys_v, _, thin = systole_and_thin_test(G, eps)
        if tt < path.end_time:
            sp = speeds(path, point)
            local = format_fraction(sp.local_speed)
            toward = format_fraction(sp.toward_speed)
        else:
            local = toward = "-"
        vol = volume(G)
        to_target = lambda_r(G, target).value
        residual = lambda_r(source, G).value * to_target / total - 1
        t.add(
            format_fraction(tt), format_fraction(vol),
            format_fraction(sys_v), local, toward,
            format_fraction(vol * to_target), format_fraction(residual),
            "yes" if thin else "no",
        )
    s = rep.table("summary", ["quantity", "value"])
    s.add("events", len(path.events) - 1)
    s.add("end time", format_fraction(path.end_time))
    s.add("witness loop", format_path(path.witness))
    s.add("strategy", path.strategy)
    end = path.snapshots[-1]
    s.add("final edge lengths",
          " ".join(format_fraction(end.length(e)) for e in sorted(end.edges)))
    if args.trace:
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(rep.render(args.format))
        except OSError as exc:
            raise InvalidInputError(f"cannot write {args.trace}: {exc}")
        rep.note(f"trace written to {args.trace}")
    return rep


def cmd_checkgeod(args) -> Report:
    graphs = _load_graphs(*args.files)
    rep = Report("geodesic diagnostics")
    t = rep.table("checks", ["check", "result", "detail"])
    if len(graphs) >= 3:
        ok, failure = check_dR_geodesic(graphs)
        detail = "-" if ok else \
            f"triple {failure[:3]}: product {format_fraction(failure[3])}" \
            f" != {format_fraction(failure[4])}"
        t.add("right-factor triangle equality", "yes" if ok else "NO", detail)
    # one stretch report per pair of files, shared by the symmetric checks
    S = pairwise(graphs, stretch_report)
    indices = range(len(graphs))
    if len(graphs) >= 4:
        ok4, viol = check_four_point(indices, lambda i, j: S(i, j).Lambda)
        t.add("4-point property", "yes" if ok4 else "NO",
              "-" if ok4 else f"indices {viol[:4]}")
    if args.qg is not None:
        lam, K = map(parse_fraction, args.qg)
        field = "Lambda" if args.metric == "d" else "lambda_R"
        okq, worst = check_quasi_geodesic(
            indices, lambda i, j: getattr(S(i, j), field), lam, K)
        t.add(
            f"({format_fraction(lam)}, {format_fraction(K)}) quasi-geodesic "
            f"({args.metric})",
            "yes" if okq else "NO", f"worst margin {worst[0]:.6g}")
    return rep


def _parse_automorphism(spec: str, inverse_spec: str, rank: int
                        ) -> AutomorphismPair:
    def parse_side(s):
        images = {}
        for part in s.split(","):
            lhs, eq, rhs = part.partition("=")
            if not eq:
                raise InvalidInputError(
                    f"bad image {part!r}: expected generator=word")
            lhs = lhs.strip()
            w = parse_word(lhs, rank)
            if len(w.letters) != 1 or w.letters[0] < 0:
                raise InvalidInputError(f"bad generator {lhs!r}")
            if w.letters[0] in images:
                raise InvalidInputError(
                    "every generator needs exactly one image")
            images[w.letters[0]] = parse_word(rhs.strip(), rank)
        if sorted(images) != list(range(1, rank + 1)):
            raise InvalidInputError("every generator needs exactly one image")
        return tuple(images[i] for i in range(1, rank + 1))

    pair = AutomorphismPair(parse_side(spec), parse_side(inverse_spec), rank)
    if issues := validate_automorphism_pair(pair):
        raise InvalidInputError(f"automorphism pair invalid: {issues[0]}")
    return pair


def cmd_orbit(args) -> Report:
    [G] = _load_graphs(args.file)
    phi = _parse_automorphism(args.aut, args.inv, G.rank)
    rep = Report(f"orbit of {args.file} under {args.aut}")
    t = rep.table(
        "distances to the base point of the orbit",
        ["h", "Lambda_R", "Lambda_L", "Lambda", "d"],
    )
    for h in range(args.hmin, args.hmax + 1):
        Gh = apply_automorphism_to_marking(G, aut_power(phi, h))
        srep = stretch_report(Gh, G)
        t.add(h, format_fraction(srep.lambda_R), format_fraction(srep.lambda_L),
              format_fraction(srep.Lambda), format_log(srep.Lambda))
    return rep


def cmd_bcc(args) -> Report:
    A, B = _load_graphs(args.fileA, args.fileB)
    f = optimize_pl_map(A, B, max_moves=args.max_moves)
    bound = bounded_cancellation_bound(f, pair_cap=args.pair_cap)
    rep = Report(f"bounded cancellation constant for {args.fileA} -> "
                 f"{args.fileB}")
    t = rep.table("result", ["quantity", "value"])
    t.add("bound", format_fraction(bound))
    t.add("lipschitz constant", format_fraction(stretch_analysis(f).stretch))
    t.add("volume", format_fraction(volume(A)))
    return rep


def cmd_repro(args) -> Report:
    return repro_mod.REPRO_NAMES[args.name]()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="outerspace",
        description="Exact stretching-factor metrics, optimal maps and "
                    "folding paths on marked metric graphs.",
    )
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized diagnostics")
    sub = p.add_subparsers(dest="command", required=True)
    # the two graph files of distance, optmap, foldpath and bcc
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("fileA")
    pair.add_argument("fileB")

    q = sub.add_parser("validate", help="check a graph document")
    q.add_argument("file")
    q.set_defaults(fn=cmd_validate)

    q = sub.add_parser("tlength", help="translation length of a word")
    q.add_argument("file")
    q.add_argument("word")
    q.set_defaults(fn=cmd_tlength)

    q = sub.add_parser("candidates", help="list the candidate loops")
    q.add_argument("file")
    q.set_defaults(fn=cmd_candidates)

    q = sub.add_parser("distance", parents=[pair],
                      help="stretching factors and distances")
    q.add_argument("--metric", choices=["d", "dR", "dL"], default="d")
    q.add_argument("--witness", action="store_true")
    q.add_argument("--sample-words", type=int, default=0,
                   help="falsification check on random words")
    q.set_defaults(fn=cmd_distance)

    q = sub.add_parser("optmap", parents=[pair],
                      help="certified optimal PL map")
    q.add_argument("--max-moves", type=int, default=500)
    q.set_defaults(fn=cmd_optmap)

    q = sub.add_parser("foldpath", parents=[pair],
                      help="fast folding path and trace")
    q.add_argument("--samples", type=int, default=0)
    q.add_argument("--trace", default=None)
    q.add_argument("--strategy",
                   choices=["simultaneous", "single-vertex"],
                   default="simultaneous")
    q.add_argument("--max-moves", type=int, default=500)
    q.add_argument("--eps", default="1/100",
                   help="thin-part threshold (rational)")
    q.set_defaults(fn=cmd_foldpath)

    q = sub.add_parser("checkgeod", help="geodesic and quasi-geodesic checks")
    q.add_argument("files", nargs="+")
    q.add_argument("--metric", choices=["d", "dR"], default="d")
    q.add_argument("--qg", nargs=2, metavar=("LAMBDA", "K"), default=None)
    q.set_defaults(fn=cmd_checkgeod)

    q = sub.add_parser("orbit", help="automorphism orbit distances")
    q.add_argument("file")
    q.add_argument("--aut", required=True, help='e.g. "a=ab,b=a"')
    q.add_argument("--inv", required=True, help='images under the inverse')
    q.add_argument("--hmin", type=int, default=-4)
    q.add_argument("--hmax", type=int, default=4)
    q.set_defaults(fn=cmd_orbit)

    q = sub.add_parser("bcc", parents=[pair],
                      help="bounded cancellation constant")
    q.add_argument("--pair-cap", type=int, default=10 ** 6)
    q.add_argument("--max-moves", type=int, default=500)
    q.set_defaults(fn=cmd_bcc)

    q = sub.add_parser("repro", help="reproduce a worked example")
    q.add_argument("name", choices=sorted(repro_mod.REPRO_NAMES))
    q.set_defaults(fn=cmd_repro)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.fn(args)
    except OuterspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(getattr(exc, "partial", None), Fraction):
            try:
                partial = format_fraction(exc.partial)
            except InvalidInputError as too_long:
                partial = f"not printed: {too_long}"
            print(f"partial lower bound: {partial}", file=sys.stderr)
        return exc.exit_code
    sys.stdout.write(report.render(args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
