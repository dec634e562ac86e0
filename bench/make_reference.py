"""Regenerate reference.json: Friedrichs values and q for every instance.

Usage, from the root of a checkout:

    python3 bench/make_reference.py

Values come from the program itself, at the pinned BLAS thread count, for
each generator seed in the workloads' universe and at both sizes.  The
benchmark compares every op's report against them, so regenerate only when
a change is meant to alter these numbers, and say so.
"""

from __future__ import annotations

import json

import run


def main() -> int:
    run.bootstrap()
    workloads, _ = run.import_program()
    from projbounds.runner import report_to_dict, run_scenario
    from projbounds.scenario import format_scenario, parse_scenario

    env = {k: v for k, v in run.environment(seed=0).items() if k != "workload_seed"}
    doc = {"produced_with": env, "tolerance": workloads.REFERENCE_TOL}
    builders = {"family": workloads.family_scenario, "affine_pair": workloads.pair_scenario}
    for size_name, size in workloads.SIZES.items():
        for key, build in builders.items():
            table = {}
            for index in range(workloads.UNIVERSE):
                scenario = parse_scenario(format_scenario(build(index, size)))
                rep = report_to_dict(run_scenario(scenario, include_traces=False,
                                                  checks_override=()))
                table[str(index)] = {
                    "friedrichs": {route: (entry or {}).get("value")
                                   for route, entry in rep["friedrichs"].items()},
                    "q": rep["q"],
                }
            doc[key if size_name == "full" else f"{key}_{size_name}"] = table
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
