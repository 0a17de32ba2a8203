"""Check the traced kernel counts of the 8x10 scripted benchmark.

Runs all eight scenarios on trial seeds 0-9 (full ablation) twice under the
tracer and exits 1 unless both runs give exactly the counts below, which
were measured on the parent of the commit that added this benchmark. A
change that alters these counts on purpose updates them here and says so.

    python3 perfbench/check_counts.py
"""

import sys

from run import SRC, run_pass

EXPECTED = {
    "twin.settle.calls": 8767,
    "twin.support_cells.calls": 57532,
    "control.support_height_below.calls": 35819,
    "control.assess_grasp.calls": 660,
    "twin.place_at.calls": 3663,
    "twin.apply_push.calls": 4804,
}


def traced_counts(harness, jobs) -> dict[str, int]:
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        run_pass(harness, jobs, "full", tracer)
    counts = dict(tracer.counts)
    counts["control.assess_grasp.calls"] = tracer.calls()["control.assess_grasp"]
    return {name: counts.get(name, 0) for name in EXPECTED}


def main() -> int:
    sys.path.insert(0, str(SRC))
    from tabletamp import harness
    from tabletamp.scenarios import SCENARIO_IDS, build_scenario

    jobs = [(build_scenario(name), seed) for name in SCENARIO_IDS for seed in range(10)]
    runs = [traced_counts(harness, jobs) for _ in range(2)]
    ok = True
    for name, expected in EXPECTED.items():
        got = [r[name] for r in runs]
        verdict = "ok" if got == [expected, expected] else "MISMATCH"
        ok &= verdict == "ok"
        print(f"{name:<40} expected {expected:>6}  runs {got[0]:>6} {got[1]:>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
