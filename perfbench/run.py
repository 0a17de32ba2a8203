"""Episode benchmark for tabletamp.

Runs episodes serially in this process through ``harness.run_episode``
with the scripted planner and rendering off, as ``tabletamp bench`` does,
and times each call from outside. Every episode's verdict is re-derived
from its final scene, and the episode traces are hashed into a digest
that must not change between passes, or between runs of the same source.

    python3 perfbench/run.py --workload overhang --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` one untraced
and one traced pass with per-layer self times and counts. The last line of
standard output is one JSON object; the lines before it name every metric
with its unit. See perfbench/README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from reference import NOMINAL_S, reference_seconds
from stats import MIN_BEYOND, beyond, qualified_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
MIN_PASSES = 2
# episodes on each side whose reference times set one episode's scale
WINDOW = 5


@dataclass(frozen=True)
class Workload:
    scenarios: tuple[str, ...]
    ablation: str
    seeds: int  # trial seeds per scenario, counting up from the workload seed


WORKLOADS = {
    "overhang": Workload(("edge", "wall", "slope", "slot"), "full", 10),
    "open-table": Workload(("box", "book", "tool_hook", "tool_pusher"), "full", 30),
    "no-pose": Workload(("box", "book", "edge", "wall", "slope", "slot",
                         "tool_hook", "tool_pusher"), "no_pose", 30),
}


@dataclass
class Outcome:
    scenario: object
    seed: int
    seconds: float
    reference: float  # reference kernel seconds just before the episode
    raised: str = ""  # exception type name, if the episode raised
    success: bool = False
    result: object = None  # the EpisodeResult, until check_pass releases it

    @property
    def key(self) -> str:
        return f"{self.scenario.id}:{self.seed}"


def episodes(workload: Workload, seed: int, build_scenario) -> list[tuple]:
    return [(sc, s) for sc in map(build_scenario, workload.scenarios)
            for s in range(seed, seed + workload.seeds)]


def run_pass(harness, jobs, ablation: str, tracer=None,
             reference: bool = False) -> list[Outcome]:
    """Run every episode once; an episode that raises is recorded, not fatal.
    With ``reference``, time the reference kernel before each episode."""
    clock = time.perf_counter
    out = []
    for scenario, seed in jobs:
        if tracer is not None:
            tracer.episode = f"{scenario.id}:{seed}"
        ref = reference_seconds() if reference else 0.0
        t0 = clock()
        try:
            result = harness.run_episode(scenario, seed, ablation=ablation)
        except Exception as exc:  # counted as a failed episode
            out.append(Outcome(scenario, seed, clock() - t0, ref, type(exc).__name__))
            continue
        out.append(Outcome(scenario, seed, clock() - t0, ref,
                           success=result.success, result=result))
    return out


def scales(outcomes: list[Outcome]) -> list[float]:
    """Per episode, the factor that brings its times to nominal machine
    speed: NOMINAL_S over the median reference time of the episodes around
    it in the same pass."""
    refs = [o.reference for o in outcomes]
    return [NOMINAL_S / statistics.median(refs[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(len(outcomes))]


def normalized(outcomes: list[Outcome]) -> list[float]:
    """Each episode's seconds at nominal machine speed."""
    return [o.seconds * f for o, f in zip(outcomes, scales(outcomes))]


def check_pass(harness, outcomes: list[Outcome]) -> tuple[str, list[str]]:
    """Digest of the pass's traces without wall time, and the episodes whose
    recorded verdict disagrees with one re-derived from the final scene.
    Releases the results, so that passes kept for timing hold no scenes."""
    digest = hashlib.sha256()
    wrong = []
    for o in outcomes:
        if o.raised:
            digest.update(f"{o.key} raised {o.raised}\n".encode())
            continue
        trace = json.loads(harness.episode_trace_json(o.result, indent=None))
        del trace["wall_ms"]
        digest.update(json.dumps(trace, sort_keys=True).encode() + b"\n")
        verdict = harness.check_success(o.result.final_scene, o.result.goal,
                                        o.scenario.primary_object)
        if verdict != o.success:
            wrong.append(o.key)
        o.result = None
    return digest.hexdigest(), wrong


def run_key(workload: Workload, seed: int) -> str:
    """Identifies the episodes of a run and the source that ran them."""
    h = hashlib.sha256(f"{workload!r} {seed}".encode())
    for path in sorted((SRC / "tabletamp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def digest_agrees(workload: Workload, seed: int, digest: str) -> bool:
    """Record the digest for these episodes and this source; False when an
    earlier run of the same episodes and source recorded another one."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    previous = known.setdefault(run_key(workload, seed), digest)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return previous == digest


def measure_setup(workload: Workload) -> float:
    """Median seconds, at nominal machine speed, to import tabletamp and
    build the scenarios, each time in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *workload.scenarios],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, ref = map(float, done.stdout.split())
        times.append(seconds * NOMINAL_S / ref)
    return statistics.median(times)


def summarize(outcomes: list[Outcome]) -> dict:
    done = [o for o in outcomes if not o.raised]
    raised: dict[str, list[str]] = {}
    for o in outcomes:
        if o.raised:
            raised.setdefault(o.raised, []).append(o.key)
    return {
        "attempted": len(outcomes),
        "completed": len(done),
        "successful": [o.key for o in done if o.success],
        "unsuccessful": [o.key for o in done if not o.success],
        "raised": raised,
    }


def report_line(name: str, value: float | None, unit: str, note: str = "") -> None:
    shown = "-" if value is None else f"{value:.6f}"
    print(f"  {name:<44} {shown:>14} {unit:<6} {note}".rstrip())


def measure(args, harness, jobs, workload: Workload):
    """The untraced run: whole passes over the episode set, starting another
    while time is left, at least MIN_PASSES.

    Times are at nominal machine speed (see reference.py), and each
    episode's time is the median of its passes.
    """
    setup_s = measure_setup(workload)
    passes, checks = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(harness, jobs, workload.ablation, reference=True))
        checks.append(check_pass(harness, passes[-1]))
    summary = summarize(passes[0])
    per_pass = [normalized(p) for p in passes]
    seconds = [statistics.median(p[i] for p in per_pass) for i in range(len(jobs))]
    done_ms = [t * 1000.0 for t, o in zip(seconds, passes[0]) if not o.raised]
    n, k = len(done_ms), len(passes)
    speed = NOMINAL_S / statistics.median(o.reference for p in passes for o in p)
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_PROBES} fresh interpreters"),
        "episodes_per_s": (n / sum(seconds), "1/s",
                           f"{n} episodes, each the median of {k} passes"),
        "episode_p50_ms": (statistics.median(done_ms), "ms", f"n={n}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", ""),
    }
    p90 = qualified_percentile(done_ms, 0.9)
    printed = {
        "episode_p90_ms": (p90, "ms", f"n={n}, {beyond(n, 0.9)} beyond")
        if p90 is not None else
        (None, "ms", f"not reported: n={n} leaves {beyond(n, 0.9)} beyond, "
                     f"needs {MIN_BEYOND}"),
        "machine_speed": (speed, "x", "nominal reference time / measured"),
    }
    return passes, checks, summary, metrics, printed


def layer_metrics(tracer, plain: list[Outcome], traced_pass: list[Outcome],
                  summary: dict) -> dict:
    """Per-layer metrics of a traced pass, by name: (value, unit, note).
    Times are at nominal machine speed, like the end-to-end ones."""
    from tabletamp.control import ErrorKind
    from tracer import COUNTED, SPANNED, span_name

    scale = {o.key: f for o, f in zip(traced_pass, scales(traced_pass))}
    busy, calls, counts = tracer.busy(scale), tracer.calls(), tracer.counts
    metrics = {}
    for module, path in SPANNED:
        name = span_name(module, path)
        metrics[f"{name}.busy_s"] = (busy.get(name, 0.0), "s", "self time")
        metrics[f"{name}.calls"] = (calls[name], "count", "")
    for _, _, metric in COUNTED:
        metrics[metric] = (counts[metric], "count", "")
    sampled, kept = counts["subgoal.candidates_sampled"], counts["subgoal.candidates_kept"]
    metrics.update({
        "twin.place_at.collisions": (counts["twin.place_at.collisions"], "count", ""),
        "subgoal.candidates_sampled": (sampled, "count", ""),
        "subgoal.candidates_kept": (kept, "count", ""),
        "subgoal.kept_ratio": (kept / sampled if sampled else 0.0, "ratio",
                               f"{kept}/{sampled}"),
        "subgoal.no_feasible_pose": (counts["subgoal.no_feasible_pose"], "count", ""),
        "control.exec_push.iterations": (counts["control.exec_push.iterations"],
                                         "count", ""),
    })
    for kind in ErrorKind:
        metric = f"control.errors.{kind.value}"
        metrics[metric] = (counts[metric], "count", "")
    plain_s, traced_s = sum(normalized(plain)), sum(normalized(traced_pass))
    metrics.update({
        "harness.success_rate": (len(summary["successful"]) / summary["attempted"], "ratio",
                                 f"{len(summary['successful'])}/{summary['attempted']}"),
        "trace.untraced_wall_s": (plain_s, "s", ""),
        "trace.traced_wall_s": (traced_s, "s", ""),
        "trace.overhead_s": (traced_s - plain_s, "s", "traced minus untraced"),
        "trace.spans": (len(tracer.spans), "count", ""),
    })
    return metrics


def traced(args, harness, jobs, workload: Workload):
    """One untraced pass, then one traced pass; the per-layer metrics come
    from the traced one and the overhead is the difference in wall time."""
    from tracer import Tracer

    plain = run_pass(harness, jobs, workload.ablation, reference=True)
    tracer = Tracer()
    with tracer:
        traced_pass = run_pass(harness, jobs, workload.ablation, tracer, reference=True)
    passes = [plain, traced_pass]
    checks = [check_pass(harness, p) for p in passes]
    summary = summarize(traced_pass)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans_{args.workload}_seed{args.seed}.jsonl")
    return passes, checks, summary, layer_metrics(tracer, plain, traced_pass, summary), {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tabletamp" / "__init__.py").is_file():
        print(f"error: no tabletamp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tabletamp import harness
    from tabletamp.scenarios import build_scenario

    if Path(harness.__file__).resolve().parent != SRC / "tabletamp":
        print(f"error: imported tabletamp from {harness.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    jobs = episodes(workload, args.seed, build_scenario)
    # warm-up: one episode per scenario, so that lazy set-up is not timed
    for scenario, seed in jobs[::workload.seeds]:
        run_pass(harness, [(scenario, seed)], workload.ablation)

    run = traced if args.trace else measure
    passes, checks, summary, metrics, printed = run(args, harness, jobs, workload)

    digests = {digest for digest, _ in checks}
    wrong = sorted({key for _, keys in checks for key in keys})
    repeatable = len(digests) == 1  # raised episodes are part of the digest
    agrees = repeatable and digest_agrees(workload, args.seed, checks[0][0])
    correct = repeatable and agrees and not wrong

    last = args.seed + workload.seeds - 1
    print(f"workload {args.workload}: {', '.join(workload.scenarios)}; "
          f"ablation {workload.ablation}; trial seeds {args.seed}..{last}; "
          f"{summary['attempted']} episodes x {len(passes)} passes"
          f"{' (untraced, traced)' if args.trace else ''}")
    for name, (value, unit, note) in {**metrics, **printed}.items():
        report_line(name, value, unit, note)
    report_line("success_rate", len(summary["successful"]) / summary["attempted"], "ratio",
                f"{len(summary['successful'])}/{summary['attempted']}")
    if len(summary["unsuccessful"]) * 2 <= summary["completed"]:
        print(f"  unsuccessful: {' '.join(summary['unsuccessful']) or '-'}")
    else:
        print(f"  successful: {' '.join(summary['successful']) or '-'}")
    for kind, keys in sorted(summary["raised"].items()):
        print(f"  raised {kind}: {len(keys)} ({' '.join(keys)})")
    print(f"  pass seconds: {' '.join(f'{sum(o.seconds for o in p):.2f}' for p in passes)}")
    print(f"  digest sha256:{checks[0][0]}")
    if not repeatable:
        print("  FAIL: passes over the same episodes disagree", file=sys.stderr)
    elif not agrees:
        print("  FAIL: digest differs from an earlier run of the same source",
              file=sys.stderr)
    if wrong:
        print(f"  FAIL: verdict disagrees with the final scene: {' '.join(wrong)}",
              file=sys.stderr)

    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["attempted"] - summary["completed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
