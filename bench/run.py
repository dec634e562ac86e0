"""Benchmark of the projbounds command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload battery --seed 0 --seconds 30 --trace 0

One op is one in-process call of ``projbounds.cli.main`` on a generated
input (see workloads.py).  The load is a closed loop with one caller: the
next op starts when the previous one has returned and been checked.  Every
op is checked (exit code, verdicts, reference values, byte identity with
its warm-up); a failed check counts the op as failed.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes over the op pool and
reports the per-layer metrics, per traced op, from spans recorded by
tracing.py.  End-to-end numbers come only from untraced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment, and a full result file is written under
``bench/_work``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
SPEC_PATH = ROOT / "BENCHMARK.json"

# BLAS threads, pinned before numpy loads and at most nproc.  The thread
# count changes both the timings and the report bytes.  One thread is the
# steadiest on a shared machine and was also the fastest on the battery
# (100 instances: 2.0 s at one thread, 2.5-2.8 s at two, on 2 CPUs).
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is measured this many times per run (this process plus fresh
# processes), and the median is reported.
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120
# Ops per pass in a traced run.
TRACE_POOL = 4
# The keys of workloads.WORKLOADS, known here before numpy may be imported.
WORKLOAD_NAMES = ("battery", "family", "affine_pair")


def bootstrap() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the path.

    Must run before numpy is imported.  Exits non-zero, printing no
    result, when the checkout holds no projbounds sources.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    if not (SRC / "projbounds" / "__init__.py").is_file():
        sys.exit(f"error: no projbounds sources under {SRC}; run from a checkout")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def workdir_for(workload: str, seed: int, trace: int, size: str) -> Path:
    """Where a run writes its inputs, reports, spans and result.json."""
    return WORK / f"{workload}-seed{seed}-trace{trace}-{size}"


def import_program():
    """Import projbounds and the benchmark modules that depend on it."""
    import projbounds

    if Path(projbounds.__file__).resolve().parent != (SRC / "projbounds").resolve():
        sys.exit(f"error: projbounds was imported from {projbounds.__file__}, not {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "workload_seed": seed,
    }


class Run:
    """State of one benchmark run: its inputs, warm-up outputs and failures."""

    def __init__(self, args) -> None:
        self.args = args
        self.failures: list[str] = []
        self.warmup_failures: list[str] = []
        self.tracer = None
        self.workdir = workdir_for(args.workload, args.seed, args.trace, args.size)
        if args.setup_probe:
            self.workdir = self.workdir / f"probe{args.setup_probe}"

    def setup(self) -> float:
        """Import, generate and write the inputs, and warm up one op.

        Returns the set-up time.  The main process warms up the first pool
        entry, set-up probe k the k-th.  Other entries are warmed up before
        their first timed op.  In a traced run, input generation is traced.
        """
        start = self.started = time.perf_counter()
        self.workloads, tracing = import_program()
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.args.trace:
            self.tracer = tracing.Tracer()
            self.tracer.install()
        try:
            self.inputs = self.workloads.WORKLOADS[self.args.workload](
                self.args.seed, self.workdir, self.args.size
            )
        finally:
            if self.tracer:
                self.tracer.uninstall()
        self.warm: dict[int, bytes | None] = {}
        self._warm_up(self.args.setup_probe % len(self.inputs))
        return time.perf_counter() - start

    def _call(self, op, op_id: str | None) -> tuple[float, int | None, str | None]:
        """Run one op, traced when ``op_id`` is given.

        Returns the op's wall time, its exit code and any exception it
        raised; checking the report happens outside that time.
        """
        op.out.unlink(missing_ok=True)
        scope = contextlib.nullcontext()
        if op_id is not None:
            self.tracer.op_id = op_id
            self.tracer.install()
            scope = self.tracer.span("op")
        start = time.perf_counter()
        try:
            with scope:
                code, error = self.workloads.run_op(op), None
        except (Exception, SystemExit) as exc:  # an op that raises is a failed op
            code, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            if op_id is not None:
                self.tracer.uninstall()
        return elapsed, code, error

    def _check(self, op, code, error, warm: bytes | None) -> tuple[bytes | None, str | None]:
        if error is not None:
            return None, error
        if not op.out.is_file():
            return None, f"exit code {code} and no report written"
        output = op.out.read_bytes()
        return output, self.workloads.gate(op, code, output, warm)

    def _warm_up(self, index: int) -> None:
        op = self.inputs[index]
        _, code, error = self._call(op, None)
        output, failure = self._check(op, code, error, None)
        if failure:
            self.warmup_failures.append(f"warm-up {' '.join(op.argv)}: {failure}")
        self.warm[index] = output

    def timed_op(self, index: int, op_id: str | None = None) -> float:
        """Run and check pool entry ``index``; return its wall time.

        The entry is warmed up first, untimed, if it has not been yet; its
        report must then repeat the warm-up's bytes exactly.
        """
        if index not in self.warm:
            self._warm_up(index)
        op = self.inputs[index]
        elapsed, code, error = self._call(op, op_id)
        _, failure = self._check(op, code, error, self.warm[index])
        if failure:
            self.failures.append(f"{' '.join(op.argv)}: {failure}")
        return elapsed


def setup_probes(args) -> list[float]:
    """Set-up times measured in fresh processes, which pay the cold costs.

    Each probe warms up a different pool entry, so that one costly input
    does not set every sample.
    """
    samples = []
    for k in range(1, SETUP_REPEATS):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size, "--setup-probe", str(k),
        ]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"error: set-up probe failed ({done.returncode}): {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(run: Run, seconds: float) -> list[float]:
    """Closed loop over the op pool until ``seconds`` of wall time have
    passed, warm-ups included; returns the timed ops' latencies."""
    latencies = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        latencies.append(run.timed_op(len(latencies) % len(run.inputs)))
    return latencies


def measure_traced(run: Run, seconds: float) -> tuple[list[float], list[float], list[str]]:
    """Passes over the first ``TRACE_POOL`` ops until ``seconds`` have
    passed; each pass runs every op untraced, then traced.

    Whole passes over a fixed op set, so per-op call counts repeat exactly
    between runs with the same seed.
    """
    untraced, traced, op_ids = [], [], []
    pool = range(min(TRACE_POOL, len(run.inputs)))
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for index in pool:
            untraced.append(run.timed_op(index))
        for index in pool:
            op_ids.append(f"op{len(op_ids)}")
            traced.append(run.timed_op(index, op_ids[-1]))
    return untraced, traced, op_ids


def layer_metrics(run: Run, op_ids: list[str], untraced, traced, names) -> dict[str, float]:
    """Per-traced-op values of the named metrics, ``<span name>.<kind>``."""
    totals = run.tracer.aggregate(op_ids)
    generated = run.tracer.aggregate(["setup"]).get("scenario.generate")
    per_op = len(op_ids)
    fields = {"calls": "calls", "s": "s", "self_s": "self_s", "gflop_computed": "flops"}
    special = {
        "trace.untraced_op_p50_s": statistics.median(untraced),
        "trace.traced_op_p50_s": statistics.median(traced),
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
        "scenario.generate.s": generated["s"] / generated["calls"] if generated else 0.0,
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        layer, kind = name.rsplit(".", 1)
        if layer not in run.tracer.span_names:
            raise ValueError(f"metric {name!r} names no traced function")
        entry = totals.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0, "flops": 0.0})
        value = entry[fields[kind]] / per_op
        values[name] = value / 1e9 if kind == "gflop_computed" else value
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same code paths on small inputs (self-test)")
    parser.add_argument("--setup-probe", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bootstrap()
    run = Run(args)
    setup_s = run.setup()
    if args.setup_probe:
        if run.warmup_failures:
            sys.exit("error: " + "; ".join(run.warmup_failures))
        print(json.dumps({"setup_s": setup_s}))
        return 0
    spec = json.loads(SPEC_PATH.read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    env = environment(args.seed)
    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "size": args.size, "env": env}

    if args.trace:
        untraced, traced, op_ids = measure_traced(run, args.seconds)
        values = layer_metrics(run, op_ids, untraced, traced, units)
        attempted = len(untraced) + len(traced)
        spans_path = run.workdir / "spans.csv.gz"
        run.tracer.write(spans_path, run.started)
        result.update(calls_by_target=run.tracer.calls_by_target, spans=str(spans_path),
                      untraced_latencies=untraced, traced_latencies=traced)
        summary = (f"traced {len(traced)} ops, untraced {len(untraced)}: op p50 "
                   f"{values['trace.traced_op_p50_s']:.4f} s traced vs "
                   f"{values['trace.untraced_op_p50_s']:.4f} s untraced")
    else:
        setups = [setup_s] + setup_probes(args)
        latencies = measure(run, args.seconds)
        attempted = len(latencies)
        failed_ratio = len(run.failures) / attempted
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": attempted / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_p90_s": p90(latencies),
            "ok_op_ratio": 1.0 - failed_ratio,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        beyond = sum(1 for x in latencies if x > values["op_p90_s"])
        result.update(setup_samples=setups, latencies=latencies, failed_op_ratio=failed_ratio)
        summary = "; ".join(
            f"{name} {values[name]:.6g} {unit}" for name, unit in units.items()
            if name != "ok_op_ratio"
        ) + (f"; failed_op_ratio {failed_ratio:g} ({len(run.failures)}/{attempted}); "
             f"op_p90_s from {attempted} samples, {beyond} beyond it; "
             f"setup_s median of {len(setups)}")

    failures = run.warmup_failures + run.failures
    for line in failures[:5]:
        print(f"failed op: {line}", file=sys.stderr)
    final = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    result.update(final, failures=failures)
    (run.workdir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"{args.workload} seed {args.seed}: {summary}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
