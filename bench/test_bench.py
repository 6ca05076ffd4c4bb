"""Self-tests of the benchmark (standard library only).

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, SRC_DIR)

import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def bindings():
    """Every binding the tracer may replace, as (owner, name) -> object."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "outerspace" or name.startswith("outerspace."):
            for _, fn in tracing.TRACED:
                if hasattr(mod, fn):
                    out[(name, fn)] = getattr(mod, fn)
    cls = sys.modules["outerspace.graphs"].MarkedMetricGraph
    out[("MarkedMetricGraph", "star")] = cls.star
    return out


def copy_benchmark(dest: str, with_library: bool) -> str:
    shutil.copytree(BENCH_DIR, os.path.join(dest, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_library:
        shutil.copytree(SRC_DIR, os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    return os.path.join(dest, "bench", "run.py")


class GeneratorTest(unittest.TestCase):
    def test_seed_determines_inputs(self):
        for workload in gen.POOL_SIZE:
            first = gen.digest(gen.draw(workload, 7))
            self.assertEqual(first, gen.digest(gen.draw(workload, 7)))
            self.assertNotEqual(first, gen.digest(gen.draw(workload, 8)))

    def test_references_match_pools(self):
        with open(os.path.join(BENCH_DIR, "refs.json")) as fh:
            refs = json.load(fh)
        for workload in gen.POOL_SIZE:
            digests = [gen.digest(m) for m in gen.pool(workload)]
            self.assertEqual(digests, [r["digest"] for r in refs[workload]])


class TracerTest(unittest.TestCase):
    def test_restores_bindings_and_self_time_fits(self):
        import outerspace as lib

        before = bindings()
        A, B = W.build(lib, gen.pool("optfold-highrank")[0])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(lib.prepare_folding_setup,
                             before[("outerspace", "prepare_folding_setup")])
            start = time.perf_counter()
            try:
                W.op_optfold(lib, A, B)
            except lib.errors.OuterspaceError:
                pass
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, obj in before.items():
            self.assertIs(after[key], obj, key)
        self.assertGreater(len(tracer.span_name), 0)
        self.assertLessEqual(sum(tracer.self_times()), wall)
        metrics = tracer.layer_metrics()
        self.assertEqual(metrics["plmaps.optimize_pl_map.calls"][0], 1)


class TimeLimitTest(unittest.TestCase):
    def test_defers_outside_library_code(self):
        meter = speed.Speedometer()
        meter.start()
        try:
            limit = run.OpLimit(meter, 0.0, SRC_DIR)
            limit.arm(meter.mark() - 1.0)
            try:
                bench_frame = SimpleNamespace(f_code=SimpleNamespace(
                    co_filename=os.path.join(BENCH_DIR, "tracing.py")))
                limit.poll(None, bench_frame)  # defers: no exception
                lib_frame = SimpleNamespace(f_code=SimpleNamespace(
                    co_filename=os.path.join(SRC_DIR, "outerspace", "x.py")))
                with self.assertRaises(run.OpTimeLimit):
                    limit.poll(None, lib_frame)
                limit.poll(None, lib_frame)  # at most once per op
            finally:
                limit.disarm()
        finally:
            meter.stop()

    def test_stop_inside_traced_call_keeps_records_whole(self):
        """Pool member 12 folds for minutes; stopped inside traced library
        calls, it must leave the tracer and the probe samples consistent
        for the op after it."""
        import outerspace as lib

        members = gen.pool("optfold-highrank")
        pairs = [(k, *W.build(lib, members[k])) for k in (12, 3)]
        meter = speed.Speedometer()
        tracer = tracing.Tracer()
        meter.start()
        tracer.install()
        try:
            with mock.patch.dict(run.OP_LIMIT_S, {"optfold-highrank": 0.5}):
                latencies, outputs = run.timed_batch(
                    meter, lib, "optfold-highrank", pairs, tracer=tracer)
        finally:
            tracer.uninstall()
            meter.stop()
        self.assertIsInstance(outputs[0], run.OpTimeLimit)
        self.assertNotIsInstance(outputs[1], BaseException)
        self.assertEqual(tracer.stack, [])
        n = len(tracer.span_name)
        for column in (tracer.span_parent, tracer.span_op,
                       tracer.span_start, tracer.span_end):
            self.assertEqual(len(column), n)
        for name, start, end, parent, op in tracer.spans():
            self.assertLessEqual(start, end, name)
            self.assertGreater(start, 0.0, name)
            self.assertLess(parent, n)
        progress = tracer.calls_in_ops({0})
        self.assertGreater(progress["folding.fold_step"], 0)
        self.assertTrue(all(len(x) == 2 for x in meter.samples))
        self.assertLess(latencies[0], 1.5)


class CommandTest(unittest.TestCase):
    def run_copy(self, run_py):
        return subprocess.run(
            [sys.executable, run_py, "--workload", "distance-highrank",
             "--seed", "1", "--seconds", str(run.BATCH_SECONDS),
             "--trace", "0"],
            capture_output=True, text=True, timeout=170, check=False)

    def test_corrupted_reference_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            run_py = copy_benchmark(tmp, with_library=True)
            refs_path = os.path.join(tmp, "bench", "refs.json")
            with open(refs_path) as fh:
                refs = json.load(fh)
            entry = refs["distance-highrank"][0]
            entry["Lambda"] = str(Fraction(entry["Lambda"]) + 1)
            with open(refs_path, "w") as fh:
                json.dump(refs, fh)
            proc = self.run_copy(run_py)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIn("CHECK FAILED distance-highrank[0]", proc.stderr)

    def test_fails_without_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = self.run_copy(copy_benchmark(tmp, with_library=False))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
