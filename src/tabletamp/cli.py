"""Command-line entry point.

Subcommands:
    run       one episode of a scenario, writing the trace (and SVGs)
    bench     seeded trials over all or selected scenarios, CSV summary
    sample    the candidates run ranks for one plan step, after the steps before it
    validate  symbolically validate a plan-skeleton file against a scenario
    export    write the built-in scenario definitions as JSON files

Exit codes: 0 success, 1 task failure, 2 bad argument value, input error,
infeasible scenario or an --out that cannot be created or written (a
regular file, or a path under one), 3 no feasible sub-goal pose. Every
subcommand but validate writes under --out.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .domain import NEEDS_TARGET, SkeletonParseError, parse_skeleton, validate_skeleton
from .harness import (
    ABLATIONS,
    RandomizationFailure,
    _execute_plan,
    benchmark_csv,
    episode_trace_json,
    observe,
    randomized_goal,
    run_benchmark,
    run_episode,
    start_episode,
)
from .planner import PlannerConfig, PlannerUnavailable
from .render import render_candidates, render_goal
from .scenarios import (
    SCENARIO_IDS,
    all_scenarios,
    build_scenario,
    dump_scenario,
    load_scenario,
)
from .subgoal import UnknownRegion

EXIT_OK = 0
EXIT_TASK_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_FEASIBLE_POSE = 3


class InputError(Exception):
    """A scenario or skeleton argument that cannot be read; exit code 2."""


def _load_scenario_arg(value: str):
    if value in SCENARIO_IDS:
        return build_scenario(value)
    path = Path(value)
    if not path.exists():
        raise InputError(f"no such scenario: {value!r} (not a built-in "
                         f"name or readable file)")
    try:
        return load_scenario(str(path))
    except (OSError, KeyError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _out_dir(path) -> Path:
    """The output directory ``path``, created with its parents if missing."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {str(path)!r}: "
                         f"{exc.strerror or exc}") from exc
    return path


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc


def cmd_run(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    out_dir = _out_dir(args.out)
    result = run_episode(scenario, args.seed, args.planner_cfg,
                         ablation=args.ablation, render=args.render)
    trace_path = out_dir / f"{scenario.id}_seed{args.seed}.json"
    _write_text(trace_path, episode_trace_json(result))
    if args.render:
        episode_dir = out_dir / f"{scenario.id}_seed{args.seed}"
        for revision, step_idx, svgs in result.step_renderings:
            step_dir = _out_dir(episode_dir / f"rev{revision}_step{step_idx}")
            for k, svg in enumerate(svgs):
                _write_text(step_dir / f"cand_{k}.svg", svg)
        svg = render_goal(result.final_scene, result.goal, scenario.primary_object,
                          f"{scenario.id} seed {args.seed} "
                          f"{'success' if result.success else 'failure'}")
        _write_text(out_dir / f"{scenario.id}_seed{args.seed}_final.svg", svg)
    verdict = "success" if result.success else "failure"
    print(f"{scenario.id} seed {args.seed}: {verdict} "
          f"(replans {result.replans_used}, {result.wall_ms:.0f} ms) "
          f"-> {trace_path}")
    return EXIT_OK if result.success else EXIT_TASK_FAILURE


def cmd_bench(args) -> int:
    if args.scenarios:
        scenarios = [_load_scenario_arg(s) for s in args.scenarios]
    else:
        scenarios = all_scenarios()
    ids = [sc.id for sc in scenarios]
    repeated = next((i for i in ids if ids.count(i) > 1), None)
    if repeated is not None:
        # rows are keyed by scenario id, so a repeat would count twice
        raise InputError(f"scenario {repeated!r} is given more than once")
    out_dir = _out_dir(args.out)
    rows, results = run_benchmark(scenarios, args.trials, args.planner_cfg,
                                  ablation=args.ablation)
    csv_text = benchmark_csv(rows)
    _write_text(out_dir / "benchmark.csv", csv_text)
    if args.traces:
        traces_dir = _out_dir(out_dir / "traces")
        for r in results:
            _write_text(traces_dir / f"{r.scenario_id}_seed{r.seed}.json",
                        episode_trace_json(r))
    print(csv_text, end="")
    return EXIT_OK


def cmd_sample(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    scene, goal, registry, _, plan = start_episode(scenario, args.seed,
                                                   args.planner_cfg)
    if isinstance(plan, PlannerUnavailable):
        # run ends the episode with the same failure and exit code
        print(f"error: {plan}", file=sys.stderr)
        return EXIT_TASK_FAILURE
    if not 0 <= args.step < len(plan.steps):
        print(f"error: step index {args.step} out of range for "
              f"{len(plan.steps)} steps", file=sys.stderr)
        return EXIT_INPUT_ERROR
    step = plan.steps[args.step]
    if step.kind not in NEEDS_TARGET:
        print(f"error: step {args.step} is {step.kind.value}; only push, "
              f"rotate, and moveto take sub-goal poses", file=sys.stderr)
        return EXIT_INPUT_ERROR
    # run's first attempt through this step: the earlier steps pick their
    # sub-goals as in run, and this step is rehearsed in the scene they leave
    records = []
    _, error = _execute_plan(scene, replace(plan, steps=plan.steps[:args.step + 1]),
                             goal, args.seed, "full", registry, records)
    if len(records) <= args.step:  # run stops at the same step
        if not isinstance(error, UnknownRegion):
            error = (f"step {len(records) - 1} {error.step.describe()} failed with "
                     f"{error.kind.value}, so step {args.step} is never reached")
        print(f"error: {error}", file=sys.stderr)
        return EXIT_TASK_FAILURE
    cset = records[args.step].cset
    if cset is None:  # no candidate survived, which run reflects on
        print(f"no-feasible-pose: {records[args.step].error['message']}",
              file=sys.stderr)
        return EXIT_NO_FEASIBLE_POSE
    out_dir = _out_dir(args.out)
    manifest = []
    svgs = render_candidates(records[args.step].twin, step.object_id, cset)
    for k, (cand, svg) in enumerate(zip(cset.candidates, svgs)):
        svg_path = out_dir / f"cand_{k}.svg"
        _write_text(svg_path, svg)
        manifest.append({
            "index": k,
            "xyz": [round(c, 6) for c in cand.pose.position],
            "quat_wxyz": [round(c, 9) for c in cand.pose.orientation],
            "reachability": round(cand.reachability_score, 4),
            "stability_margin": round(cand.stability_margin, 4),
            "rendering": svg_path.name,
        })
    _write_text(out_dir / "candidates.json", json.dumps(manifest, indent=2))
    print(f"{len(manifest)} candidates for {step.describe()} -> {out_dir}")
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    try:
        document = Path(args.skeleton).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(str(exc)) from exc
    try:
        skeleton = parse_skeleton(document)
    except SkeletonParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    scene = scenario.scene_template
    goal = randomized_goal(scenario, 0)
    state = observe(scene, goal, scenario).symbolic_state()
    violations = validate_skeleton(skeleton, state)
    if not violations:
        print("ok")
        return EXIT_OK
    for v in violations:
        print(str(v))
    return EXIT_TASK_FAILURE


def cmd_export(args) -> int:
    out_dir = _out_dir(args.out)
    for scenario in all_scenarios():
        path = out_dir / f"{scenario.id}.json"
        try:
            dump_scenario(scenario, str(path))
        except OSError as exc:
            raise InputError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc
        print(path)
    return EXIT_OK


def _int_at_least(low: int):
    """An argparse type for an integer no smaller than ``low``."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low} (got {value})")
        return value
    return convert


def _positive_float(text: str) -> float:
    """An argparse type for a finite float greater than 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0 (got {value})")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabletamp",
        description="Desk-scale hybrid pick/push task-and-motion-planning sandbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_planner=True):
        p.add_argument("--out", default="out", help="output directory")
        if with_planner:
            p.add_argument("--planner", choices=("scripted", "http"),
                           default="scripted")
            p.add_argument("--endpoint", default="",
                           help="chat-completions URL for the http planner")
            p.add_argument("--model", default="", help="model name")
            p.add_argument("--timeout", type=_positive_float, default=30.0,
                           help="seconds per http planner request")
            p.add_argument("--max-retries", dest="max_retries",
                           type=_int_at_least(0), default=2)

    p_run = sub.add_parser("run", help="run one episode")
    p_run.add_argument("--scenario", required=True,
                       help="built-in name or scenario JSON path")
    p_run.add_argument("--seed", type=_int_at_least(0), default=0)
    p_run.add_argument("--ablation", choices=ABLATIONS, default="full")
    p_run.add_argument("--render", action="store_true")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="run the seeded benchmark")
    p_bench.add_argument("--scenarios", nargs="*", default=None,
                         help="subset of scenarios (default: all eight)")
    p_bench.add_argument("--trials", type=_int_at_least(1), default=10)
    p_bench.add_argument("--ablation", choices=ABLATIONS, default="full")
    p_bench.add_argument("--traces", action="store_true",
                         help="also write per-episode trace JSON")
    common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_sample = sub.add_parser("sample", help="inspect sub-goal candidates")
    p_sample.add_argument("--scenario", required=True)
    p_sample.add_argument("--seed", type=_int_at_least(0), default=0)
    p_sample.add_argument("--step", type=int, default=0,
                          help="plan step index to sample for")
    common(p_sample)
    p_sample.set_defaults(func=cmd_sample)

    p_val = sub.add_parser("validate", help="validate a skeleton file")
    p_val.add_argument("--scenario", required=True)
    p_val.add_argument("--skeleton", required=True, help="skeleton JSON path")
    p_val.set_defaults(func=cmd_validate)

    p_exp = sub.add_parser("export", help="write built-in scenarios as JSON")
    common(p_exp, with_planner=False)
    p_exp.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "planner", None) is not None:
        if args.planner == "http" and not args.endpoint:
            parser.error("--planner http needs --endpoint")
        try:
            args.planner_cfg = PlannerConfig(
                backend=args.planner,
                endpoint=args.endpoint,
                model=args.model,
                timeout_s=args.timeout,
                max_retries=args.max_retries,
            )
        except ValueError as exc:  # an endpoint that is not an http(s) URL
            parser.error(str(exc))
    try:
        return args.func(args)
    except (InputError, RandomizationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
