"""Write refs.json: the exact unique answers (lambda_R, lambda_L, Lambda of
each source/target pair) for every pool member of every workload, keyed by
pool index and guarded by the digest of the member's plain data.

    python3 bench/make_refs.py

Run it only when a pool changes; the stored values are what every later
version of the library must reproduce.
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import gen  # noqa: E402
import workloads as W  # noqa: E402
import outerspace as lib  # noqa: E402


def main() -> None:
    refs = {}
    for workload in gen.POOL_SIZE:
        refs[workload] = [
            {"digest": gen.digest(member),
             **W.reference_values(lib, *W.build(lib, member))}
            for member in gen.pool(workload)
        ]
    with open(os.path.join(BENCH_DIR, "refs.json"), "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
