"""Benchmark of the darksteady CLI experiments.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  One run is one process: it imports
darksteady from ./src, measures the cold start in separate processes, runs
then sends operations one after another for --seconds (a closed loop with
one client), starting with the workload's fixed operation.  An operation is one in-process ``darksteady.cli.main`` call.
Outputs are checked between operations, outside the timed calls.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced operations and prints the per-layer metrics (see tracing.py).  The
last line of stdout is the result object; the line before it is the run
record (machine facts, output hash, per-operation figures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / ".runs"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _import_darksteady():
    sys.path.insert(0, str(SRC))
    try:
        import darksteady
        import darksteady.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import darksteady from {SRC}: {exc}")
    if Path(darksteady.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: darksteady imported from {darksteady.__file__}, not {SRC}")
    return darksteady


def machine_facts():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def measure_setup(workload, seed, run_dir):
    """Median cold start over SETUP_REPEATS fresh processes, and all samples."""
    samples = []
    for i in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), workload, str(seed),
             str(run_dir / f"setup{i}")],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: cold start failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - start)
        shutil.rmtree(run_dir / f"setup{i}")
    return statistics.median(samples), samples


class Runner:
    """Runs operations of one workload and checks their outputs."""

    def __init__(self, cli, workload, seed, run_dir):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.inputs = workloads.write_inputs(
            workload, seed, range(workloads.PREGENERATED), run_dir / "inputs")
        self.failures = Counter()
        self.reference_passed = 0

    def run(self, k, wrap=None, reference=False):
        """Operation k: returns (wall s, cpu s, data.csv bytes or None, failed)."""
        if k not in self.inputs:
            self.inputs.update(workloads.write_inputs(
                self.workload, self.seed, [k], self.run_dir / "inputs"))
        op, config = self.inputs[k]
        out = self.run_dir / f"op{k}"
        argv = op.argv(config, out)

        def call():
            # Looked up per call, so a traced operation runs the wrapped main.
            return self.cli.main(argv)

        start, cpu = time.perf_counter(), time.process_time()
        try:
            code = wrap(k, call) if wrap else call()
        except Exception:  # a crash of the program is a failed operation
            traceback.print_exc()
            code = None
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        if code != 0:
            self.failures["exit_code"] += 1
            shutil.rmtree(out, ignore_errors=True)
            return wall, cpu, None, True
        data = (out / "data.csv").read_bytes()
        shutil.rmtree(out)
        text = data.decode("utf-8")
        found = checks.property_failures(op, text)
        if reference:
            ref = checks.reference_failures(op, text)
            self.reference_passed += not ref
            found += ref
        for name, message in found:
            print(f"perfbench: {self.workload} op {k}: {name}: {message}", file=sys.stderr)
        self.failures.update({name for name, _ in found})
        return wall, cpu, data, bool(found)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    darksteady = _import_darksteady()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = RUNS / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup_s, setup_samples = measure_setup(args.workload, args.seed, run_dir)
    runner = Runner(darksteady.cli, args.workload, args.seed, run_dir)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(darksteady)
    # Operation 0 is the fixed operation: the same inputs in every run, so
    # the hash of its data.csv tracks the program's output.  Operations 0
    # and 1 are also checked against the reference.
    min_ops = 2 if tracer else 1
    ops = []  # (wall, cpu, traced, failed)
    fixed_sha = None
    loop_start = time.perf_counter()
    k = 0
    while len(ops) < min_ops or time.perf_counter() - loop_start < args.seconds:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, cpu, data, failed = runner.run(
                k, wrap=tracer.run_op if traced else None, reference=k < 2)
        finally:
            if traced:
                tracer.uninstall()
        if k == 0 and data is not None:
            fixed_sha = hashlib.sha256(data).hexdigest()
        ops.append((wall, cpu, traced, failed))
        k += 1

    attempted = len(ops)
    failed = sum(1 for op in ops if op[3])
    plain = [op for op in ops if not op[2]]
    if tracer:
        overhead = (statistics.median(op[0] for op in ops if op[2])
                    - statistics.median(op[0] for op in plain))
        metrics = tracer.per_layer(overhead)
        tracer.write_spans(run_dir / "spans.csv")
    else:
        metrics = {
            "op_s": {"value": statistics.median(op[0] for op in plain), "unit": "s"},
            "op_cpu_s": {"value": statistics.median(op[1] for op in plain), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(),
        "fixed_op_sha256": fixed_sha,
        "setup_s_samples": setup_samples,
        "op_wall_s": [op[0] for op in ops],
        "op_cpu_s": [op[1] for op in ops],
        "op_traced": [op[2] for op in ops],
        "check_failures": dict(runner.failures),
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(run_dir / "inputs")
    print(json.dumps({"record": record}))
    print(json.dumps({
        # Every operation not counted in failed passed every check; at least
        # one output also matched the independent reference.
        "correct": runner.reference_passed > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
