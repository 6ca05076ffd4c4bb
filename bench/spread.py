"""Spread of the end-to-end metrics over seeds.

    python3 bench/spread.py --seeds 1-10 --out bench/spread-a.json

Runs every workload untraced once per seed, one run at a time, each in a
fresh interpreter, and writes per run its metrics together with the
wall-clock and reference times of its set-ups and its batch, so that the
probe scaling of speed.py can be checked against the raw clock.  Per workload
and metric it also writes the median and the quartile spread: Q3 - Q1 over
the median, with the quartiles of ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

CLOCK = re.compile(
    r"^(set-up|batch) wall clock ([\d.]+) s, ([\d.]+) reference s$")


def one_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(run.BATCH_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    clocks: dict[str, list] = {"set-up": [], "batch": []}
    for line in lines:
        m = CLOCK.match(line)
        if m:
            clocks[m[1]].append([float(m[2]), float(m[3])])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "setups_clock_ref_s": clocks["set-up"],
            "batch_clock_ref_s": clocks["batch"][0]}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "quartile_spread": (q3 - q1) / median}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                    help="inclusive range, as in 1-10")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out = {"python": sys.version.split()[0], "seeds": args.seeds,
           "workloads": {}}
    for workload in run.WORKLOADS:
        runs = []
        for seed in args.seeds:
            runs.append(one_run(workload, seed))
            print(workload, json.dumps(runs[-1]), flush=True)
        names = runs[0]["metrics"]
        summary = {name: spread([r["metrics"][name] for r in runs])
                   for name in names}
        summary["batch_clock_s"] = spread(
            [r["batch_clock_ref_s"][0] for r in runs])
        for name, s in summary.items():
            print(f"{workload} {name} median {s['median']:.6g} "
                  f"quartile spread {s['quartile_spread']:.2%}")
        out["workloads"][workload] = {"summary": summary, "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0 if all(r["correct"] for w in out["workloads"].values()
                    for r in w["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
