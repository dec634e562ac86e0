"""Smoke test of the benchmark itself, on tiny inputs.

Usage, from the root of a checkout:

    python3 bench/selftest.py

Runs every workload for one second at ``--size tiny``, untraced and
traced, and fails unless:

* each run exits 0, reports ``correct`` and emits exactly the metrics
  BENCHMARK.json names for its mode, with their units;
* every wrapped function recorded at least one call on some workload.  A
  rebinding that missed an importing module would otherwise read as zero.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def main() -> int:
    spec = json.loads(run.SPEC_PATH.read_text())
    calls: dict[str, int] = {}
    problems = []
    for workload in run.WORKLOAD_NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            command = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
                       "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            done = subprocess.run(command, capture_output=True, text=True, timeout=170,
                                  check=False)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()}")
                continue
            final = json.loads(done.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {name: m["unit"] for name, m in final["metrics"].items()}
            if emitted != expected:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(emitted.items()) ^ set(expected.items()))}")
            if not final["correct"] or final["failed"]:
                problems.append(f"{label}: {final['failed']} failed ops: {done.stderr.strip()}")
            if trace:
                result = run.workdir_for(workload, 0, 1, "tiny") / "result.json"
                for target, count in json.loads(result.read_text())["calls_by_target"].items():
                    calls[target] = calls.get(target, 0) + count
    never = sorted(target for target, count in calls.items() if count == 0)
    if never:
        problems.append(f"wrapped functions never called on any workload: {never}")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {len(problems)} problem(s), {len(calls)} wrapped functions")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
