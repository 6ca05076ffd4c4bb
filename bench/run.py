"""Benchmark for the ``outerspace`` library (standard library only).

One workload, one fresh interpreter:

    python3 bench/run.py --workload distance-highrank --seed 1 --seconds 15 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``); the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without ``--workload`` it runs every workload, untraced and then traced, each
in its own interpreter, one at a time, and writes every result with the
per-op outcomes and latencies to ``--out``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402  (benchmark-owned, standard library only)
import speed  # noqa: E402
import workloads as W  # noqa: E402

WORKLOADS = ["geodesic-rank2", "distance-highrank", "optfold-highrank"]
# A run's batch is its workload's whole pool (gen.POOL_SIZE), sized so that
# at the baseline commit each batch ran for at most about this many seconds;
# the batches are fixed, so --seconds accepts only this value.
BATCH_SECONDS = 15
# An op still running after this many reference seconds is stopped and
# counts as failed.  No geodesic or distance op comes near a minute at the
# baseline; optfold ops take at most about 2 s there unless label
# re-derivation runs away (one pool member would fold for minutes).
OP_LIMIT_S = {"geodesic-rank2": 60.0, "distance-highrank": 60.0,
              "optfold-highrank": 5.0}
LIMIT_POLL_S = 0.1
LIMIT_RETRY_S = 0.001
SETUPS = 9


class OpTimeLimit(BaseException):
    """Raised inside an op that ran past its workload's time limit.

    A BaseException, so that no ``except Exception`` in the library can
    swallow it.
    """


class OpLimit:
    """Stops the running op once it has run for ``seconds`` reference
    seconds.

    `poll` is the SIGALRM handler.  Over the limit, it raises OpTimeLimit
    only when the interrupted frame is library code, and only once per op.
    In any other frame (the tracer's span records, the probe samples, the
    batch loop) it polls again after LIMIT_RETRY_S instead, so that the
    exception never leaves a record of the benchmark half written.
    """

    def __init__(self, meter, seconds: float, lib_dir: str):
        self.meter, self.seconds = meter, seconds
        self.lib_dir = os.path.join(lib_dir, "")
        self.start = None

    def arm(self, start: float) -> None:
        self.start = start
        signal.setitimer(signal.ITIMER_REAL, LIMIT_POLL_S, LIMIT_POLL_S)

    def disarm(self) -> None:
        self.start = None
        signal.setitimer(signal.ITIMER_REAL, 0)

    def poll(self, signum, frame) -> None:
        start = self.start
        meter = self.meter
        if start is None or \
                meter.ref_seconds(start, meter.mark()) < self.seconds:
            return
        if frame is not None and \
                frame.f_code.co_filename.startswith(self.lib_dir):
            self.start = None
            raise OpTimeLimit()
        signal.setitimer(signal.ITIMER_REAL, LIMIT_RETRY_S, LIMIT_POLL_S)


def fresh_import():
    """Import the library from source, dropping any earlier import, so that
    no state of an earlier set-up survives."""
    for name in [n for n in sys.modules
                 if n == "outerspace" or n.startswith("outerspace.")]:
        del sys.modules[name]
    import outerspace
    return outerspace


def set_up(meter, workload: str, seed: int):
    """Generate the batch as plain data, import, and build the graphs; the
    plain data exists before the import, so it cannot depend on the
    library.  Returns the library, the (pool index, A, B) pairs, the input
    digest and the set-up time in reference seconds."""
    t0 = meter.mark()
    batch = gen.draw(workload, seed)
    data_digest = gen.digest(batch)
    lib = fresh_import()
    pairs = [(k, *W.build(lib, inst)) for k, inst in batch]
    t1 = meter.mark()
    ref_s = meter.ref_seconds(t0, t1)
    print(f"set-up wall clock {t1 - t0:.4f} s, {ref_s:.4f} reference s")
    return lib, pairs, data_digest, ref_s


def timed_batch(meter, lib, workload: str, pairs, limited=None, tracer=None):
    """Run every op once, cold, in batch order.

    The workload's time limit applies to every op, or only to the pool
    indices in ``limited`` when given.  Returns per op its latency in
    reference seconds and its output or exception.
    """
    op = W.OPS[workload]
    limit = OpLimit(meter, OP_LIMIT_S[workload],
                    os.path.dirname(lib.__file__))
    latencies, outputs = [], []
    previous = signal.signal(signal.SIGALRM, limit.poll)
    start = meter.mark()
    try:
        for i, (k, A, B) in enumerate(pairs):
            if tracer is not None:
                tracer.op_id = i
            t0 = meter.mark()
            if limited is None or k in limited:
                limit.arm(t0)
            try:
                out = op(lib, A, B)
            except OpTimeLimit as exc:
                out = exc
            except Exception as exc:  # counted as a failed op, reported
                out = exc
            finally:
                limit.disarm()
            latencies.append(meter.ref_seconds(t0, meter.mark()))
            outputs.append(out)
        end = meter.mark()
    finally:
        signal.signal(signal.SIGALRM, previous)
    print(f"batch wall clock {end - start:.4f} s, "
          f"{meter.ref_seconds(start, end):.4f} reference s")
    return latencies, outputs


def run_checks(lib, workload: str, pairs, outputs) -> list[str]:
    """Check every output; returns the failures (empty when all pass)."""
    with open(os.path.join(BENCH_DIR, "refs.json")) as fh:
        refs = json.load(fh)[workload]
    members = gen.pool(workload)
    problems = []
    for (k, A, B), out in zip(pairs, outputs):
        tag = f"{workload}[{k}]"
        ref = refs[k] if k < len(refs) else None
        if ref is None or ref["digest"] != gen.digest(members[k]):
            problems.append(f"{tag}: no reference for this pool member")
            continue
        try:
            W.check(lib, workload, A, B, out, ref, tag)
        except W.CheckFailed as exc:
            problems.append(str(exc))
    return problems


def central_ms(latencies) -> float:
    """The median op latency in ms, estimated as the geometric mean of the
    sorted latencies from the 30th to the 70th percentile: with a few dozen
    heterogeneous ops the single middle value jumps between neighbours that
    differ by a third, and the latencies near it double within a tenth of
    the ranks."""
    ordered = sorted(latencies)
    lo = int(0.3 * len(ordered))
    hi = max(lo + 1, math.ceil(0.7 * len(ordered)))
    return statistics.geometric_mean(ordered[lo:hi]) * 1000


def outcome(out) -> str:
    if isinstance(out, OpTimeLimit):
        return "time-limit"
    if isinstance(out, BaseException):
        return type(out).__name__
    return "ok"


def measure(meter, args):
    """Untraced: SETUPS set-ups, then the batch on the last one."""
    setup_times = [set_up(meter, args.workload, args.seed)[3]
                   for _ in range(SETUPS - 1)]
    lib, pairs, data_digest, setup_s = set_up(meter, args.workload, args.seed)
    setup_times.append(setup_s)
    print(f"workload {args.workload} seed {args.seed} ops {len(pairs)} "
          f"input-digest {data_digest}")
    latencies, outputs = timed_batch(meter, lib, args.workload, pairs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcomes = [(k, outcome(o)) for (k, _, _), o in zip(pairs, outputs)]
    problems = run_checks(lib, args.workload, pairs, outputs)
    metrics = {
        "wall_s": (sum(latencies), "s"),
        "op_p50_ms": (central_ms(latencies), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, outcomes, latencies, problems


def measure_traced(meter, args):
    """One untraced cold batch, then one traced cold batch; ops stopped by
    the time limit untraced get the same limit traced, and no other op is
    limited, so tracing overhead cannot turn an op into a failure."""
    lib, pairs, data_digest, _ = set_up(meter, args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} ops {len(pairs)} "
          f"input-digest {data_digest}")
    untraced, outputs = timed_batch(meter, lib, args.workload, pairs)
    problems = run_checks(lib, args.workload, pairs, outputs)
    stopped = {k for (k, _, _), o in zip(pairs, outputs)
               if isinstance(o, OpTimeLimit)}
    del outputs

    import tracing

    lib, pairs, _, _ = set_up(meter, args.workload, args.seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        latencies, outputs = timed_batch(
            meter, lib, args.workload, pairs, limited=stopped, tracer=tracer)
    finally:
        tracer.uninstall()
    spans_path = f"bench-spans-{args.workload}.tsv.gz"
    with gzip.open(spans_path, "wt") as fh:
        fh.write("name\tstart\tend\tparent\top\n")
        for span in tracer.spans():
            fh.write("\t".join(map(str, span)) + "\n")
    print(f"spans written to {spans_path}")
    problems += run_checks(lib, args.workload, pairs, outputs)
    outcomes = [(k, outcome(o)) for (k, _, _), o in zip(pairs, outputs)]
    failed = sum(1 for _, o in outcomes if o != "ok")
    metrics = tracer.layer_metrics(meter.ref_seconds)
    # how far the ops stopped by the time limit got before the stop
    progress = tracer.calls_in_ops(
        {i for i, o in enumerate(outputs) if isinstance(o, OpTimeLimit)})
    for name in ("folding.fold_step", "graphs.derive_inverse_marking"):
        metrics[f"time_limit.{name}.calls"] = (progress[name], "count")
    metrics["trace.overhead_s"] = (sum(latencies) - sum(untraced), "s")
    metrics["fail_share"] = (failed / len(pairs), "ratio")
    return metrics, outcomes, latencies, problems


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC_DIR, "outerspace", "__init__.py")):
        print(f"error: library sources not found under {SRC_DIR}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    meter = speed.Speedometer()
    meter.start()
    try:
        metrics, outcomes, latencies, problems = (
            measure_traced if args.trace else measure)(meter, args)
    finally:
        meter.stop()
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    failed = sum(1 for _, o in outcomes if o != "ok")

    for name, (value, unit) in metrics.items():
        if name != "fail_share":
            print(f"{name} {value:.6g} {unit}")
    counts = {o: sum(1 for _, x in outcomes if x == o)
              for o in sorted({o for _, o in outcomes})}
    print(f"fail_share {failed / len(outcomes):.4f} ratio ({failed}/"
          f"{len(outcomes)} ops failed; outcomes {counts})")
    print("outcomes " + json.dumps(outcomes))
    print("op_latencies_ms " + json.dumps(
        [round(x * 1000, 3) for x in latencies]))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


def child(args, workload: str, trace: int) -> dict:
    """Run one workload in a fresh interpreter and parse what it printed."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("outcomes", "op_latencies_ms"):
            result[key] = json.loads(rest)
    return result


def run_all(args) -> int:
    results = {}
    for workload in WORKLOADS:
        results[workload] = {"untraced": child(args, workload, 0),
                             "traced": child(args, workload, 1)}
        for mode, res in results[workload].items():
            print(f"{workload} ({mode}, {res['attempted']} ops, "
                  f"{res['failed']} failed, correct={res['correct']})")
            for name, m in res["metrics"].items():
                print(f"  {name} {m['value']:.6g} {m['unit']}")
    with open(args.out, "w") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "python": sys.version.split()[0], "results": results},
                  fh, indent=1)
        fh.write("\n")
    print(f"results written to {args.out}")
    return 0 if all(r[m]["correct"] for r in results.values()
                    for m in r) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, choices=[BATCH_SECONDS],
                    default=BATCH_SECONDS,
                    help="the fixed batches' length; no other value is "
                    "accepted")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default="bench-results.json",
                    help="results file when running every workload")
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
