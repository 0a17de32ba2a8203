"""Episode loop, initial-condition randomization, success evaluation, and
benchmark aggregation.

An episode follows the plan / rehearse / execute / reflect loop: the
planner proposes a skeleton, each step gets a sub-goal pose rehearsed in a
twin snapshot of the current execution scene, controllers execute in the
execution scene, and typed errors feed the reflector for a revised plan.
The loop ends on a fully executed plan, an exhausted replan budget, or an
exhausted fallback list; the verdict is always re-derived from the final
scene snapshot.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .control import (
    ErrorKind,
    ExecError,
    assess_grasp,
    exec_grasp,
    exec_moveto,
    exec_push,
    exec_release,
    exec_rotate,
    flip_orientation_about,
)
from .domain import PlanSkeleton, PrimitiveInstance, PrimitiveKind, skeleton_to_dict
from .geometry import Pose6D, geodesic_angle, point_in_polygon, quat_from_axis_angle
from .planner import (
    NoMorePlans,
    Observation,
    PlannerConfig,
    PlannerUnavailable,
    ReflectionInput,
    make_planner,
)
from .render import render_scene
from .scenarios import Goal, Scenario, build_region_registry, fallback_builders
from .subgoal import (
    NoFeasiblePose,
    UnknownRegion,
    filter_and_rank,
    resolve_anchor,
    sample_candidates,
    select_subgoal,
)
from .twin import (
    ROBOT_BASE,
    TwinScene,
    cell_under,
    flat_pose_on_support,
    rest_on_support,
    settle,
)

REPLAN_BUDGET = 3
ABLATIONS = ("full", "no_pose", "no_reflection")


class RandomizationFailure(Exception):
    """No feasible jittered initial state found within the resample budget."""


@dataclass
class EpisodeResult:
    scenario_id: str
    seed: int
    success: bool
    attempts: list[dict]
    replans_used: int
    wall_ms: float
    final_scene: TwinScene | None = None
    goal: Goal | None = None
    # (plan revision, step index, candidate SVGs), populated when rendering
    step_renderings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "seed": self.seed,
            "success": self.success,
            "replans_used": self.replans_used,
            "attempts": self.attempts,
            "wall_ms": round(self.wall_ms, 3),
        }


def _scenario_rng(scenario: Scenario, seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(
        [seed, zlib.crc32(scenario.id.encode()) & 0x7FFFFFFF, stream]
    )


def _standing_orientation():
    # long local axis up
    return quat_from_axis_angle((0.0, 1.0, 0.0), -math.pi / 2)


def _jittered_rests(rng: np.random.Generator, scene: TwinScene, object_id: str,
                    base: Pose6D, jitter: float, yaw_jitter_deg: float):
    """The feasible rests among 100 jittered draws about ``base``, in draw
    order, as (pose drawn, rested scene, outcome).

    Each draw offsets x and y uniformly within ``jitter`` and the yaw within
    ``yaw_jitter_deg``, puts the object flat on its support there, and keeps
    the draw when ``rest_on_support`` does.
    """
    obj = scene.object(object_id)
    for _ in range(100):
        dx, dy = rng.uniform(-jitter, jitter, size=2)
        dyaw = math.radians(rng.uniform(-yaw_jitter_deg, yaw_jitter_deg))
        pose = flat_pose_on_support(
            scene, obj, base.x + dx, base.y + dy, base.yaw + dyaw,
            base_orientation=base.orientation,
        )
        rest = rest_on_support(scene, object_id, pose)
        if rest is not None:
            yield (pose, *rest)


def randomize(scenario: Scenario, seed: int) -> TwinScene:
    """Jittered execution scene for one trial; deterministic in the seed.

    The primary object's pose is perturbed uniformly within the scenario's
    position and yaw jitter; infeasible draws (collisions, unstable rests)
    are resampled up to 100 times. The box scenario alternates standing and
    lying initial states across seeds.
    """
    rng = _scenario_rng(scenario, seed, 0)
    scene = scenario.scene_template.as_execution()
    obj = scene.object(scenario.primary_object)

    base_pose = obj.pose
    if scenario.special.get("initial_states"):
        states = scenario.special["initial_states"]
        state = states[seed % len(states)]
        if state == "standing":
            base_pose = flat_pose_on_support(
                scene, obj, base_pose.x, base_pose.y, 0.0,
                base_orientation=_standing_orientation(),
            )

    rest = next(_jittered_rests(rng, scene, obj.id, base_pose,
                                scenario.pos_jitter, scenario.yaw_jitter_deg), None)
    if rest is None:
        raise RandomizationFailure(
            f"no feasible initial pose for {scenario.id} seed {seed} in 100 draws"
        )
    return rest[1]


def randomized_goal(scenario: Scenario, seed: int) -> Goal:
    """Per-trial goal jitter, from an rng stream independent of the scene's."""
    rng = _scenario_rng(scenario, seed, 7)
    jitter = scenario.special.get("goal_jitter", scenario.pos_jitter)
    template = scenario.goal_template
    if template.kind == "region":
        dx, dy = rng.uniform(-jitter, jitter, size=2)
        return Goal("region", zone=template.zone.translated(dx, dy))

    for pose, _, outcome in _jittered_rests(rng, scenario.scene_template.as_twin(),
                                            scenario.primary_object, template.target,
                                            jitter, scenario.yaw_jitter_deg):
        if abs(outcome.final_pose.z - pose.z) <= 1e-6:
            return Goal("pose", target=outcome.final_pose)  # rests exactly where stated
    raise RandomizationFailure(
        f"no feasible goal pose for {scenario.id} seed {seed} in 100 draws"
    )


def check_success(scene: TwinScene, goal: Goal, primary_object: str) -> bool:
    """Strict success criteria: pose goals need position error < 3 cm and
    orientation geodesic < 10 degrees; region goals need the object's COM
    inside the zone and a stable rest."""
    obj = scene.object(primary_object)
    if goal.kind == "pose":
        target = goal.target
        d = math.hypot(obj.pose.x - target.x, obj.pose.y - target.y)
        ang = geodesic_angle(obj.pose.orientation, target.orientation)
        return d < 0.03 and ang < 10.0
    inside = point_in_polygon((obj.pose.x, obj.pose.y), goal.zone)
    outcome = settle(scene, primary_object)
    return inside and outcome.status == "stable"


# ---------------------------------------------------------------------------
# observation
# ---------------------------------------------------------------------------

def observe(scene: TwinScene, goal: Goal, scenario: Scenario,
            render: bool = True) -> Observation:
    objects = {}
    for obj in scene.objects:
        under = cell_under(scene.terrain.cells, (obj.pose.x, obj.pose.y))
        entry = {
            "xyz": [round(c, 6) for c in obj.pose.position],
            "quat_wxyz": [round(c, 9) for c in obj.pose.orientation],
            "half_extents": list(obj.half_extents),
            "on_feature": under.kind if under is not None else None,
            "held": scene.held_id == obj.id,
            "is_tool": obj.tool_spec is not None,
            "graspable": assess_grasp(scene, obj.id).ok,
        }
        if obj.tool_spec is not None:
            entry["tool_kind"] = obj.tool_spec.kind
            entry["tool_tip_offset"] = list(obj.tool_spec.tip_offset)
            entry["tool_length"] = obj.tool_spec.effective_length
        objects[obj.id] = entry
    goal_info: dict = {"kind": goal.kind}
    if goal.kind == "pose":
        goal_info["xyz"] = [round(c, 6) for c in goal.target.position]
        goal_info["quat_wxyz"] = [round(c, 9) for c in goal.target.orientation]
        goal_info["zone_centroid"] = list(scenario.nominal_zone.centroid)
    else:
        goal_info["zone"] = [list(v) for v in goal.zone.vertices]
        goal_info["zone_centroid"] = list(goal.zone.centroid)
    summary = {
        "objects": objects,
        "goal": goal_info,
        "robot_base": list(ROBOT_BASE),
        "gripper_free": scene.held_id is None,
    }
    svg = ""
    if render:
        svg = render_scene(
            scene,
            goal_pose=(scenario.primary_object, goal.target)
            if goal.kind == "pose" else None,
            goal_zone=goal.zone if goal.kind == "region" else None,
            caption=scenario.id,
        )
    return Observation(rendering=svg, summary=summary, instruction=scenario.instruction)


# ---------------------------------------------------------------------------
# ablation sub-goals
# ---------------------------------------------------------------------------

def _crude_subgoal(step: PrimitiveInstance, anchor, scene: TwinScene,
                   goal: Goal) -> Pose6D:
    """The no-pose ablation: 2D anchor plus depth, no rehearsal.

    Pushes and placements keep the object's current orientation at the
    anchor point; rotations become a fixed 90-degree flip toward the target.
    """
    obj = scene.object(step.object_id)
    if step.kind is PrimitiveKind.ROTATE:
        if goal.kind == "pose":
            gx, gy = goal.target.x, goal.target.y
        else:
            gx, gy = goal.zone.centroid
        edges = obj.world_obb().bottom_edges()

        def outwardness(edge):
            mx = 0.5 * (edge[0][0] + edge[1][0]) - obj.pose.x
            my = 0.5 * (edge[0][1] + edge[1][1]) - obj.pose.y
            n = math.hypot(mx, my) or 1.0
            return (mx * (gx - obj.pose.x) + my * (gy - obj.pose.y)) / n

        edge = max(edges, key=outwardness)
        return Pose6D(obj.pose.position, flip_orientation_about(obj.pose, edge))
    # depth comes from the terrain under the keypoint, never from smart
    # stacking on other objects
    return flat_pose_on_support(
        scene, obj, anchor[0], anchor[1], obj.pose.yaw,
        base_orientation=obj.pose.orientation, objects_as_support=False,
    )


# ---------------------------------------------------------------------------
# episode loop
# ---------------------------------------------------------------------------

@dataclass
class _StepRecord:
    step: str
    error: dict | None = None
    iterations: int = 0
    candidates: int | None = None
    subgoal: list | None = None
    snapshots: list | None = None  # [first, last] scene snapshot id
    # kept out of the JSON trace
    snapshot_count: int = 0
    candidate_svgs: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "error": self.error,
            "iterations": self.iterations,
            "candidates": self.candidates,
            "subgoal": self.subgoal,
            "snapshots": self.snapshots,
        }


def subgoal_seed(seed: int, revision: int, step_index: int) -> int:
    """The sampling seed of one step of one plan revision in an episode."""
    return (seed * 1000003 + revision * 101 + step_index) & 0x7FFFFFFF


def _execute_plan(
    scene: TwinScene,
    plan: PlanSkeleton,
    goal: Goal,
    seed: int,
    ablation: str,
    registry,
    records: list[_StepRecord],
    render: bool = False,
) -> tuple[TwinScene, ExecError | UnknownRegion | None]:
    for i, step in enumerate(plan.steps):
        record = _StepRecord(step=step.describe())
        records.append(record)
        try:
            if step.kind in (PrimitiveKind.PUSH, PrimitiveKind.ROTATE,
                             PrimitiveKind.MOVETO):
                # the no-pose ablation grounds on 2D regions only and never
                # sees the planner's 6D pose hints
                use_region = step.region is not None and (
                    ablation == "no_pose" or step.target_pose_hint is None
                )
                if use_region:
                    anchor = resolve_anchor(step.region, scene, registry,
                                            object_id=step.object_id)
                else:
                    anchor = step.target_pose_hint.position
                if ablation == "no_pose":
                    subgoal = _crude_subgoal(step, anchor, scene, goal)
                else:
                    twin = scene.as_twin()
                    samples = sample_candidates(
                        step, anchor, twin, rng_seed=subgoal_seed(seed, plan.revision, i)
                    )
                    cset = filter_and_rank(samples, step.object_id, twin,
                                           render=render)
                    record.candidates = len(cset.candidates)
                    if render:
                        record.candidate_svgs = tuple(
                            c.rendering for c in cset.candidates
                        )
                    nxt = plan.steps[i + 1] if i + 1 < len(plan.steps) else None
                    chosen = select_subgoal(cset, step, nxt, twin)
                    subgoal = chosen.pose
                record.subgoal = (
                    [round(c, 6) for c in subgoal.position]
                    + [round(c, 9) for c in subgoal.orientation]
                )
                if step.kind is PrimitiveKind.PUSH:
                    scene, trace = exec_push(scene, step.object_id, subgoal)
                elif step.kind is PrimitiveKind.ROTATE:
                    scene, trace = exec_rotate(scene, step.object_id, subgoal)
                else:
                    scene, trace = exec_moveto(scene, subgoal)
            elif step.kind is PrimitiveKind.GRASP:
                scene, trace = exec_grasp(scene, step.object_id)
            else:
                scene, trace = exec_release(scene)
        except UnknownRegion as exc:
            # the plan itself cannot be grounded, so there is nothing to
            # reflect on; the caller ends the episode
            records.pop()
            return scene, exc
        except NoFeasiblePose as exc:
            # rehearsal lost the object in every candidate; reflect on it
            error = ExecError(ErrorKind.OBJECT_LOST, str(exc), step)
            record.error = error.to_dict()
            return scene, error
        record.iterations = trace.iterations
        record.snapshot_count = trace.snapshots
        if not trace.ok:
            error = replace(trace.result, step=step)
            record.error = error.to_dict()
            return scene, error
    return scene, None


def run_episode(
    scenario: Scenario,
    seed: int,
    planner_cfg: PlannerConfig | None = None,
    ablation: str = "full",
    render: bool = False,
) -> EpisodeResult:
    """One full plan / rehearse / execute / reflect episode."""
    if ablation not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablation!r}")
    planner_cfg = planner_cfg or PlannerConfig()
    t0 = time.perf_counter()

    scene = randomize(scenario, seed)
    goal = randomized_goal(scenario, seed)
    registry = build_region_registry(scenario, goal)
    planner = make_planner(planner_cfg, fallbacks=fallback_builders(scenario))
    # the model planner reads the rendering; the scripted one never does
    see = render or planner_cfg.backend == "http"
    snapshot = 0  # the id of the episode's next scene snapshot

    attempts: list[dict] = []
    replans_used = 0
    history: list[str] = []

    try:
        plan = planner.plan(observe(scene, goal, scenario, render=see))
    except PlannerUnavailable as exc:
        return EpisodeResult(
            scenario.id, seed, False,
            [{"skeleton": None, "outcomes": [], "insight": None,
              "planner_error": str(exc)}],
            0, (time.perf_counter() - t0) * 1000.0, scene, goal,
        )

    step_renderings: list[tuple[int, int, tuple[str, ...]]] = []
    while True:
        records: list[_StepRecord] = []
        scene, error = _execute_plan(
            scene, plan, goal, seed, ablation, registry, records, render=render,
        )
        for i, r in enumerate(records):
            if r.snapshot_count:
                r.snapshots = [snapshot, snapshot + r.snapshot_count - 1]
                snapshot += r.snapshot_count
            if r.candidate_svgs:
                step_renderings.append((plan.revision, i, r.candidate_svgs))
        attempt = {
            "skeleton": skeleton_to_dict(plan),
            "outcomes": [r.to_dict() for r in records],
            "insight": None,
        }
        attempts.append(attempt)
        if error is None:
            break  # all executions succeeded; the final check decides
        if isinstance(error, UnknownRegion):
            attempt["planner_error"] = str(error)
            break
        if ablation == "no_reflection" or replans_used >= REPLAN_BUDGET:
            break
        try:
            insight, plan = planner.reflect(
                ReflectionInput(
                    error=error,
                    observation=observe(scene, goal, scenario, render=see),
                    failed_plan=plan,
                    history=tuple(history),
                )
            )
        except (NoMorePlans, PlannerUnavailable) as exc:
            attempt["insight"] = f"(no revision: {exc})"
            break
        attempt["insight"] = insight
        history.append(insight)
        replans_used += 1

    success = check_success(scene, goal, scenario.primary_object)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    result = EpisodeResult(scenario.id, seed, success, attempts, replans_used,
                           wall_ms, scene, goal)
    result.step_renderings = step_renderings
    return result


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaskRow:
    task: str
    trials: int
    successes: int
    mean_replans: float
    mean_wall_ms: float


def run_benchmark(
    scenarios: list[Scenario],
    trials_per_task: int,
    planner_cfg: PlannerConfig | None = None,
    ablation: str = "full",
) -> tuple[list[TaskRow], list[EpisodeResult]]:
    """Seeded trials for every scenario; deterministic with the scripted
    planner (results sort by scenario, seed)."""
    if trials_per_task < 1:
        raise ValueError("need at least one trial per task")
    results = [run_episode(sc, seed, planner_cfg, ablation)
               for sc in scenarios for seed in range(trials_per_task)]
    results.sort(key=lambda r: (r.scenario_id, r.seed))
    rows = []
    for sc in scenarios:
        eps = [r for r in results if r.scenario_id == sc.id]
        rows.append(
            TaskRow(
                task=sc.id,
                trials=len(eps),
                successes=sum(1 for r in eps if r.success),
                mean_replans=sum(r.replans_used for r in eps) / len(eps),
                mean_wall_ms=sum(r.wall_ms for r in eps) / len(eps),
            )
        )
    rows.sort(key=lambda r: r.task)
    return rows, results


def benchmark_csv(rows: list[TaskRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["task", "trials", "successes", "mean_replans", "mean_wall_ms"])
    for row in rows:
        writer.writerow([
            row.task, row.trials, row.successes,
            f"{row.mean_replans:.3f}", f"{row.mean_wall_ms:.1f}",
        ])
    return buf.getvalue()


def episode_trace_json(result: EpisodeResult, indent: int | None = 2) -> str:
    return json.dumps(result.to_dict(), indent=indent, sort_keys=True)
