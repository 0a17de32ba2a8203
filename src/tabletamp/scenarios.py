"""The eight benchmark scenarios: scene templates, goals, region registries,
and ordered fallback plans for the scripted planner.

Every scenario shares a 0.8 x 0.8 m table at height 0.4 m with the robot
base 0.25 m in front of the near edge. Dimensions are chosen so each task's
defining feature holds at spawn under the full initial-state randomization:
cards and books are too thin or too wide to grasp directly, tool-task
objects or targets sit outside the bare-hand reach annulus, and enclosures
block the naive approach.

Fallback plans are ordered naive first. Each plan is a template whose steps
may bind the episode's randomized goal pose ("goal") or a computed tool
approach pose ("tool_approach") at plan time, from the observation summary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .domain import (
    NEEDS_TARGET,
    PlanSkeleton,
    PrimitiveInstance,
    PrimitiveKind,
    RegionDescriptor,
)
from .geometry import (
    Polygon2,
    Pose6D,
    Vec3,
    point_in_polygon,
    quat_from_axis_angle,
    quat_from_yaw,
    rect_polygon,
)
from .planner import Observation
from .subgoal import RegionRegistry
from .twin import (
    REACH_MAX,
    REACH_MIN,
    ROBOT_BASE,
    RigidObject,
    TerrainFeature,
    ToolSpec,
    TwinScene,
    _is_number,
    _json_object,
    _json_polygon,
    _json_pose,
    _json_string,
    scene_from_dict,
    scene_to_dict,
)

TABLE_HEIGHT = 0.4
TABLE_HALF = 0.4
RAIL_HEIGHT = 0.03
RAIL_THICKNESS = 0.01

SCENARIO_IDS = (
    "box", "book", "edge", "wall", "slope", "slot", "tool_hook", "tool_pusher",
)


@dataclass(frozen=True)
class Goal:
    kind: str  # "pose" | "region"
    target: Pose6D | None = None
    zone: Polygon2 | None = None

    def __post_init__(self):
        if self.kind not in ("pose", "region"):
            raise ValueError(f"unknown goal kind {self.kind!r}")
        if self.kind == "pose" and self.target is None:
            raise ValueError("pose goal needs a target pose")
        if self.kind == "region" and self.zone is None:
            raise ValueError("region goal needs a zone polygon")


@dataclass(frozen=True)
class Scenario:
    id: str
    instruction: str
    primary_object: str
    scene_template: TwinScene
    goal_template: Goal
    nominal_zone: Polygon2  # used for anchoring even when the goal is a pose
    fallback_templates: tuple[tuple[dict, ...], ...]
    pos_jitter: float = 0.05
    yaw_jitter_deg: float = 30.0
    special: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# shared scene pieces
# ---------------------------------------------------------------------------

def _base_terrain(extra: tuple[TerrainFeature, ...] = ()) -> tuple[TerrainFeature, ...]:
    return (
        TerrainFeature("ground", rect_polygon(0.0, 0.0, 1.2, 1.2), 0.0, name="ground"),
        TerrainFeature("table_surface",
                       rect_polygon(0.0, 0.0, TABLE_HALF, TABLE_HALF),
                       TABLE_HEIGHT, name="table"),
    ) + extra


def _rails() -> tuple[TerrainFeature, ...]:
    t = RAIL_THICKNESS / 2
    inner = TABLE_HALF - t
    return tuple(
        TerrainFeature("wall", fp, TABLE_HEIGHT, {"height": RAIL_HEIGHT}, name=name)
        for name, fp in (
            ("rail_front", rect_polygon(0.0, -inner, TABLE_HALF, t)),
            ("rail_back", rect_polygon(0.0, inner, TABLE_HALF, t)),
            ("rail_left", rect_polygon(-inner, 0.0, t, TABLE_HALF)),
            ("rail_right", rect_polygon(inner, 0.0, t, TABLE_HALF)),
        )
    )


def _card(x: float, y: float, yaw: float = 0.0) -> RigidObject:
    return RigidObject(
        id="card",
        half_extents=(0.05, 0.03, 0.004),
        pose=Pose6D((x, y, TABLE_HEIGHT + 0.004), quat_from_yaw(yaw)),
    )


def _scene(objects, extra_terrain=()) -> TwinScene:
    return TwinScene(
        terrain=_base_terrain(tuple(extra_terrain)),
        objects=tuple(objects),
        role="execution",
    )


def _pose_goal(x, y, yaw=0.0, orientation=None, half_z=0.0):
    q = orientation if orientation is not None else quat_from_yaw(yaw)
    return Goal("pose", target=Pose6D((x, y, TABLE_HEIGHT + half_z), q))


def _step(kind, obj, region=None, hint=None):
    d = {"kind": kind, "object_id": obj}
    if region:
        d["region"] = region
    if hint:
        d["hint"] = hint
    return d


# ---------------------------------------------------------------------------
# scenario definitions
# ---------------------------------------------------------------------------

def _box_scenario() -> Scenario:
    lying_q = quat_from_yaw(0.0)
    box = RigidObject(
        id="box",
        half_extents=(0.06, 0.045, 0.045),
        pose=Pose6D((0.0, -0.05, TABLE_HEIGHT + 0.045), lying_q),
    )
    goal = _pose_goal(0.16, 0.06, yaw=0.0, half_z=0.045)
    return Scenario(
        id="box",
        instruction="align the box with the translucent target pose",
        primary_object="box",
        scene_template=_scene([box]),
        goal_template=goal,
        nominal_zone=rect_polygon(0.16, 0.06, 0.08, 0.08),
        fallback_templates=(
            (
                _step("rotate", "box", region="target_zone", hint="goal"),
                _step("push", "box", region="target_zone", hint="goal"),
            ),
            (_step("push", "box", region="target_zone", hint="goal"),),
        ),
        special={"initial_states": ("standing", "lying")},
    )


def _book_scenario() -> Scenario:
    shelf = TerrainFeature(
        "shelf", rect_polygon(-0.15, 0.17, 0.12, 0.10), TABLE_HEIGHT,
        {"clearance": 0.20, "open_face": (0.0, -1.0)}, name="shelf",
    )
    book = RigidObject(
        id="book",
        half_extents=(0.06, 0.02, 0.09),
        pose=Pose6D((-0.15, 0.13, TABLE_HEIGHT + 0.09)),
    )
    # the goal orientation is the cover-down class a forward flip produces
    # (tipping about the front bottom edge rolls the spine toward the robot)
    flip_q = quat_from_axis_angle((1.0, 0.0, 0.0), math.pi / 2)
    goal = _pose_goal(0.16, -0.04, orientation=flip_q, half_z=0.02)
    return Scenario(
        id="book",
        instruction="take the book out of the shelf and lay it at the target pose",
        primary_object="book",
        scene_template=_scene([book], extra_terrain=[shelf]),
        goal_template=goal,
        nominal_zone=rect_polygon(0.16, -0.04, 0.08, 0.08),
        fallback_templates=(
            (
                _step("grasp", "book"),
                _step("moveto", "book", region="target_zone", hint="goal"),
                _step("release", "book"),
            ),
            (
                _step("rotate", "book", region="shelf_front", hint="goal"),
                _step("grasp", "book"),
                _step("moveto", "book", region="target_zone", hint="goal"),
                _step("release", "book"),
            ),
            (
                _step("rotate", "book", region="shelf_front", hint="goal"),
                _step("push", "book", region="table_edge_nearest"),
                _step("grasp", "book"),
                _step("moveto", "book", region="target_zone", hint="goal"),
                _step("release", "book"),
            ),
        ),
    )


def _edge_scenario() -> Scenario:
    pad = TerrainFeature(
        "table_surface", rect_polygon(0.24, 0.10, 0.06, 0.06),
        TABLE_HEIGHT + 0.05, name="pad",
    )
    goal = _pose_goal(0.24, 0.10, yaw=0.0, half_z=0.05 + 0.004)
    return Scenario(
        id="edge",
        instruction="place the thin card on top of the raised pad",
        primary_object="card",
        scene_template=_scene([_card(0.0, -0.18)], extra_terrain=[pad]),
        goal_template=goal,
        nominal_zone=rect_polygon(0.24, 0.10, 0.06, 0.06),
        pos_jitter=0.05,
        fallback_templates=(
            (
                _step("grasp", "card"),
                _step("moveto", "card", region="target_zone", hint="goal"),
                _step("release", "card"),
            ),
            (_step("push", "card", region="target_zone", hint="goal"),),
            (
                _step("push", "card", region="table_edge_nearest"),
                _step("grasp", "card"),
                _step("moveto", "card", region="target_zone", hint="goal"),
                _step("release", "card"),
            ),
        ),
        special={"goal_jitter": 0.02},
    )


def _wall_scenario() -> Scenario:
    goal = _pose_goal(0.18, 0.02, yaw=0.0, half_z=0.004)
    return Scenario(
        id="wall",
        instruction="stand the card up against a rail, grasp it, and place it "
                    "at the target pose",
        primary_object="card",
        scene_template=_scene([_card(0.0, -0.15)], extra_terrain=_rails()),
        goal_template=goal,
        nominal_zone=rect_polygon(0.18, 0.02, 0.08, 0.08),
        fallback_templates=(
            (
                _step("grasp", "card"),
                _step("moveto", "card", region="target_zone", hint="goal"),
                _step("release", "card"),
            ),
            (
                _step("push", "card", region="table_edge_nearest"),
                _step("grasp", "card"),
                _step("moveto", "card", region="target_zone", hint="goal"),
                _step("release", "card"),
            ),
            (
                _step("push", "card", region="wall_base"),
                _step("rotate", "card", region="wall_base"),
                _step("grasp", "card"),
                _step("moveto", "card", region="target_zone", hint="goal"),
                _step("release", "card"),
            ),
        ),
    )


def _slope_scenario() -> Scenario:
    # wedge rising toward +y: crest 6 cm above the table, foot flush with it
    span = 0.06 / math.tan(math.radians(20.0))
    cy = 0.05 - span / 2
    slope = TerrainFeature(
        "slope", rect_polygon(0.0, cy, 0.12, span / 2), TABLE_HEIGHT + 0.06,
        {"angle_deg": 20.0, "downhill": (0.0, -1.0)}, name="wedge",
    )
    goal = _pose_goal(0.24, -0.18, yaw=0.0, half_z=0.004)
    return Scenario(
        id="slope",
        instruction="push the card up the wedge until it juts over the crest, "
                    "then grasp it and place it at the target pose",
        primary_object="card",
        scene_template=_scene([_card(0.0, -0.25)], extra_terrain=_rails() + (slope,)),
        goal_template=goal,
        nominal_zone=rect_polygon(0.24, -0.18, 0.08, 0.08),
        fallback_templates=(
            (
                _step("grasp", "card"),
                _step("moveto", "card", region="target_zone", hint="goal"),
                _step("release", "card"),
            ),
            (
                _step("push", "card", region="table_edge_nearest"),
                _step("grasp", "card"),
                _step("moveto", "card", region="target_zone", hint="goal"),
                _step("release", "card"),
            ),
            (
                _step("push", "card", region="slope_crest"),
                _step("grasp", "card"),
                _step("moveto", "card", region="target_zone", hint="goal"),
                _step("release", "card"),
            ),
        ),
    )


def _slot_scenario() -> Scenario:
    slot = TerrainFeature(
        "slot", rect_polygon(0.0, 0.02, 0.15, 0.02), TABLE_HEIGHT,
        {"depth": 0.025}, name="groove",
    )
    goal = _pose_goal(0.24, -0.12, yaw=0.0, half_z=0.004)
    return Scenario(
        id="slot",
        instruction="push the card so it juts over the groove, then grasp it "
                    "and place it at the target pose",
        primary_object="card",
        scene_template=_scene([_card(0.0, -0.22)], extra_terrain=_rails() + (slot,)),
        goal_template=goal,
        nominal_zone=rect_polygon(0.24, -0.12, 0.08, 0.08),
        fallback_templates=(
            (
                _step("grasp", "card"),
                _step("moveto", "card", region="target_zone", hint="goal"),
                _step("release", "card"),
            ),
            (
                _step("push", "card", region="table_edge_nearest"),
                _step("grasp", "card"),
                _step("moveto", "card", region="target_zone", hint="goal"),
                _step("release", "card"),
            ),
            (
                _step("push", "card", region="slot_lip"),
                _step("grasp", "card"),
                _step("moveto", "card", region="target_zone", hint="goal"),
                _step("release", "card"),
            ),
        ),
    )


def _tool_body(tool_id: str, kind: str, x: float, y: float) -> RigidObject:
    return RigidObject(
        id=tool_id,
        half_extents=(0.15, 0.0125, 0.0175),
        pose=Pose6D((x, y, TABLE_HEIGHT + 0.0175), quat_from_yaw(math.pi / 2)),
        tool_spec=ToolSpec(kind, 0.30, (0.15, 0.0, 0.0)),
    )


def _puck(x: float, y: float) -> RigidObject:
    return RigidObject(
        id="puck",
        half_extents=(0.03, 0.03, 0.02),
        pose=Pose6D((x, y, TABLE_HEIGHT + 0.02)),
    )


def _tool_hook_scenario() -> Scenario:
    zone = rect_polygon(0.0, -0.05, 0.08, 0.08)
    return Scenario(
        id="tool_hook",
        instruction="the puck is out of reach: use the hook to pull it back "
                    "into the yellow zone",
        primary_object="puck",
        scene_template=_scene([_puck(0.0, 0.36), _tool_body("hook", "hook", 0.25, -0.35)]),
        goal_template=Goal("region", zone=zone),
        nominal_zone=zone,
        fallback_templates=(
            (
                _step("grasp", "puck"),
                _step("moveto", "puck", region="target_zone"),
                _step("release", "puck"),
            ),
            (
                _step("grasp", "hook"),
                _step("moveto", "hook", region="behind_object", hint="tool_approach"),
                _step("push", "puck", region="target_zone"),
            ),
        ),
    )


def _tool_pusher_scenario() -> Scenario:
    zone = rect_polygon(0.0, 0.345, 0.07, 0.07)
    return Scenario(
        id="tool_pusher",
        instruction="the yellow zone is out of reach: use the pusher to drive "
                    "the puck into it",
        primary_object="puck",
        scene_template=_scene([_puck(0.0, -0.08), _tool_body("pusher", "pusher", -0.25, -0.35)]),
        goal_template=Goal("region", zone=zone),
        nominal_zone=zone,
        special={"goal_jitter": 0.03},
        fallback_templates=(
            (
                _step("grasp", "puck"),
                _step("moveto", "puck", region="target_zone"),
                _step("release", "puck"),
            ),
            (
                _step("release", "puck"),
                _step("grasp", "pusher"),
                _step("moveto", "pusher", region="behind_object", hint="tool_approach"),
                _step("push", "puck", region="target_zone"),
            ),
        ),
    )


_BUILDERS = {
    "box": _box_scenario,
    "book": _book_scenario,
    "edge": _edge_scenario,
    "wall": _wall_scenario,
    "slope": _slope_scenario,
    "slot": _slot_scenario,
    "tool_hook": _tool_hook_scenario,
    "tool_pusher": _tool_pusher_scenario,
}


def build_scenario(scenario_id: str) -> Scenario:
    try:
        return _BUILDERS[scenario_id]()
    except KeyError:
        raise KeyError(f"unknown scenario {scenario_id!r}") from None


def all_scenarios() -> list[Scenario]:
    return [build_scenario(sid) for sid in SCENARIO_IDS]


# ---------------------------------------------------------------------------
# region registry
# ---------------------------------------------------------------------------

def _table_of(scene: TwinScene) -> TerrainFeature:
    return next(t for t in scene.terrain if t.kind == "table_surface"
                and t.name == "table")


def _push_path_clear(scene: TwinScene, object_id: str, target) -> bool:
    """Rough straight-line clearance check for a planar push route."""
    obj = scene.object(object_id)
    margin = max(obj.half_extents[0], obj.half_extents[1]) + 0.005
    table_h = _table_of(scene).height
    sx, sy = obj.pose.x, obj.pose.y
    dist = math.hypot(target[0] - sx, target[1] - sy)
    steps = max(2, int(dist / 0.02))
    blockers = [
        s for s in scene.terrain.solids
        if s.z1 > table_h + 0.005 and s.z0 < table_h + 0.05
    ]
    slopes = scene.terrain.slopes
    for i in range(steps + 1):
        t = i / steps
        if t * dist < 0.08:
            continue  # escaping from contact with a blocker is fine
        px, py = sx + (target[0] - sx) * t, sy + (target[1] - sy) * t
        for solid in blockers:
            ring = solid.polygon
            if ring.boundary_distance((px, py)) < margin or point_in_polygon((px, py), ring):
                return False
        for cell in slopes:
            ring = cell.polygon
            if ring.boundary_distance((px, py)) < margin or point_in_polygon((px, py), ring):
                return False
    return True


def build_region_registry(scenario: Scenario, goal: Goal | None = None) -> RegionRegistry:
    """Named geometric resolvers for one episode.

    When the episode's randomized goal is supplied, target-relative regions
    anchor on it; otherwise they fall back to the scenario's nominal zone.
    """
    if goal is not None and goal.kind == "region":
        zone_centroid = goal.zone.centroid
    elif goal is not None and goal.kind == "pose":
        zone_centroid = (goal.target.x, goal.target.y)
    else:
        zone_centroid = scenario.nominal_zone.centroid

    def table_edge_nearest(scene: TwinScene, object_id: str) -> Vec3:
        # nearest boundary point per table side, preferring routes that are
        # clear to push and leave the follow-up grasp contact in reach
        obj = scene.object(object_id)
        table = _table_of(scene)
        xs = [v[0] for v in table.footprint.vertices]
        ys = [v[1] for v in table.footprint.vertices]
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        px = min(max(obj.pose.x, x0), x1)
        py = min(max(obj.pose.y, y0), y1)
        options = [(px, y0), (px, y1), (x0, py), (x1, py)]
        options.sort(key=lambda p: math.hypot(p[0] - obj.pose.x, p[1] - obj.pose.y))

        def reachable(p) -> bool:
            cx, cy = table.footprint.centroid
            ix, iy = cx - p[0], cy - p[1]
            L = math.hypot(ix, iy) or 1.0
            extent = max(obj.half_extents[0], obj.half_extents[1])
            trailing = (p[0] + 2.0 * extent * ix / L, p[1] + 2.0 * extent * iy / L)
            d_anchor = math.hypot(p[0] - ROBOT_BASE[0], p[1] - ROBOT_BASE[1])
            d_trail = math.hypot(trailing[0] - ROBOT_BASE[0], trailing[1] - ROBOT_BASE[1])
            return (
                REACH_MIN + 0.05 <= d_anchor <= REACH_MAX
                and d_trail <= REACH_MAX - 0.02
            )

        for p in options:
            if reachable(p) and _push_path_clear(scene, obj.id, p):
                return (p[0], p[1], table.height)
        for p in options:
            if reachable(p):
                return (p[0], p[1], table.height)
        p = options[0]
        return (p[0], p[1], table.height)

    def target_zone(scene: TwinScene, object_id: str) -> Vec3:
        return (zone_centroid[0], zone_centroid[1], TABLE_HEIGHT)

    def wall_base(scene: TwinScene, object_id: str) -> Vec3:
        obj = scene.object(object_id)
        walls = [t for t in scene.terrain if t.kind == "wall"]
        if not walls:
            raise KeyError("scene has no walls")
        best, best_d = None, math.inf
        for w in walls:
            p = w.footprint.closest_boundary_point((obj.pose.x, obj.pose.y))
            d = math.hypot(p[0] - obj.pose.x, p[1] - obj.pose.y)
            if d < best_d:
                best, best_d = p, d
        cx, cy = _table_of(scene).footprint.centroid
        ix, iy = cx - best[0], cy - best[1]
        L = math.hypot(ix, iy) or 1.0
        # deep enough that any yawed footprint clears the rail at the anchor
        return (best[0] + 0.07 * ix / L, best[1] + 0.07 * iy / L, TABLE_HEIGHT)

    def slope_crest(scene: TwinScene, object_id: str) -> Vec3:
        slope = next(t for t in scene.terrain if t.kind == "slope")
        d = slope.extra["downhill"]
        verts = slope.footprint.vertices
        s = [v[0] * d[0] + v[1] * d[1] for v in verts]
        s_min = min(s)
        crest = [v for v, si in zip(verts, s) if si < s_min + 1e-9]
        mx = sum(v[0] for v in crest) / len(crest)
        my = sum(v[1] for v in crest) / len(crest)
        return (mx, my, slope.height)

    def slot_lip(scene: TwinScene, object_id: str) -> Vec3:
        slot = next(t for t in scene.terrain if t.kind == "slot")
        obj = scene.object(object_id)
        p = slot.footprint.closest_boundary_point((obj.pose.x, obj.pose.y))
        return (p[0], p[1], slot.height)

    def shelf_front(scene: TwinScene, object_id: str) -> Vec3:
        shelf = next(t for t in scene.terrain if t.kind == "shelf")
        open_face = shelf.extra.get("open_face", (0.0, -1.0))
        cx, cy = shelf.footprint.centroid
        p = shelf.footprint.closest_boundary_point(
            (cx + open_face[0], cy + open_face[1])
        )
        return (p[0] + 0.1 * open_face[0], p[1] + 0.1 * open_face[1], shelf.height)

    def behind_object(scene: TwinScene, object_id: str) -> Vec3:
        target = scene.object(scenario.primary_object)
        dx = zone_centroid[0] - target.pose.x
        dy = zone_centroid[1] - target.pose.y
        L = math.hypot(dx, dy) or 1.0
        bx = target.pose.x - 0.055 * dx / L
        by = target.pose.y - 0.055 * dy / L
        return (bx, by, TABLE_HEIGHT)

    return {
        "table_edge_nearest": table_edge_nearest,
        "target_zone": target_zone,
        "wall_base": wall_base,
        "slope_crest": slope_crest,
        "slot_lip": slot_lip,
        "shelf_front": shelf_front,
        "behind_object": behind_object,
    }


# ---------------------------------------------------------------------------
# fallback template binding
# ---------------------------------------------------------------------------

def _goal_pose_from_summary(summary: dict) -> Pose6D | None:
    goal = summary.get("goal", {})
    if goal.get("kind") != "pose":
        return None
    return Pose6D(tuple(goal["xyz"]), tuple(goal["quat_wxyz"]))


def _tool_approach_pose(summary: dict, tool_id: str, target_id: str) -> Pose6D:
    """Tool placement with the tip beside the point behind the target.

    The shaft runs from the tip back toward the robot base, laterally offset
    so it clears the target's footprint; the gripper end stays in reach.
    """
    objs = summary["objects"]
    target = objs[target_id]
    tool = objs[tool_id]
    zone = summary["goal"].get("zone_centroid") or summary["goal"].get("xyz")
    tx, ty = target["xyz"][0], target["xyz"][1]
    dx, dy = zone[0] - tx, zone[1] - ty
    L = math.hypot(dx, dy) or 1.0
    bx, by = tx - 0.055 * dx / L, ty - 0.055 * dy / L
    base = summary["robot_base"]
    sx, sy = base[0] - bx, base[1] - by
    sL = math.hypot(sx, sy) or 1.0
    sx, sy = sx / sL, sy / sL
    tip_len = tool["tool_tip_offset"][0]
    cx = bx + tip_len * sx - 0.07 * sy
    cy = by + tip_len * sy + 0.07 * sx
    yaw = math.atan2(-sy, -sx)  # local +x (the tip axis) points away from base
    return Pose6D((cx, cy, tool["xyz"][2]), quat_from_yaw(yaw))


def bind_template(template: tuple[dict, ...], obs: Observation) -> PlanSkeleton:
    """Instantiate a fallback template against the current observation."""
    summary = obs.summary
    steps = []
    for raw in template:
        kind = PrimitiveKind(raw["kind"])
        region = RegionDescriptor(raw["region"]) if raw.get("region") else None
        hint = None
        binding = raw.get("hint")
        if binding == "goal":
            hint = _goal_pose_from_summary(summary)
        elif binding == "tool_approach":
            target = next(
                (s["object_id"] for s in template
                 if s["kind"] == "push" and s["object_id"] != raw["object_id"]),
                raw["object_id"],
            )
            hint = _tool_approach_pose(summary, raw["object_id"], target)
        elif binding is not None:
            raise ValueError(f"unknown hint binding {binding!r}")
        steps.append(PrimitiveInstance(kind, raw["object_id"], region=region,
                                       target_pose_hint=hint))
    return PlanSkeleton(tuple(steps))


def fallback_builders(scenario: Scenario):
    return [
        lambda obs, t=template: bind_template(t, obs)
        for template in scenario.fallback_templates
    ]


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def scenario_to_dict(scenario: Scenario) -> dict:
    goal: dict = {"kind": scenario.goal_template.kind}
    if scenario.goal_template.target is not None:
        goal["target"] = {
            "xyz": list(scenario.goal_template.target.position),
            "quat_wxyz": list(scenario.goal_template.target.orientation),
        }
    if scenario.goal_template.zone is not None:
        goal["zone"] = [list(v) for v in scenario.goal_template.zone.vertices]
    return {
        "id": scenario.id,
        "instruction": scenario.instruction,
        "primary_object": scenario.primary_object,
        "scene": scene_to_dict(scenario.scene_template),
        "goal": goal,
        "nominal_zone": [list(v) for v in scenario.nominal_zone.vertices],
        "fallback_plans": [list(t) for t in scenario.fallback_templates],
        "randomization": {
            "pos_jitter": scenario.pos_jitter,
            "yaw_jitter_deg": scenario.yaw_jitter_deg,
        },
        "special": dict(scenario.special),
    }


def scenario_from_dict(data: dict) -> Scenario:
    data = _json_object(data, "a scenario file")
    goal_raw = _json_object(data["goal"], "goal")
    target = None
    zone = None
    if "target" in goal_raw:
        target = _json_pose(goal_raw["target"], "goal target")
    if "zone" in goal_raw:
        zone = _json_polygon(goal_raw["zone"], "goal zone")
    randomization = _json_object(data.get("randomization", {}), "randomization")
    scenario = Scenario(
        id=_json_string(data["id"], "id"),
        instruction=_json_string(data["instruction"], "instruction"),
        primary_object=_json_string(data["primary_object"], "primary_object"),
        scene_template=scene_from_dict(_json_object(data["scene"], "scene")),
        goal_template=Goal(goal_raw["kind"], target=target, zone=zone),
        nominal_zone=_json_polygon(data["nominal_zone"], "nominal_zone"),
        fallback_templates=_fallback_templates(data["fallback_plans"]),
        pos_jitter=randomization.get("pos_jitter", 0.05),
        yaw_jitter_deg=randomization.get("yaw_jitter_deg", 30.0),
        special=dict(_json_object(data.get("special", {}), "special")),
    )
    _check_fallback_plans(scenario)
    return scenario


def _fallback_templates(plans) -> tuple[tuple[dict, ...], ...]:
    """The file's fallback_plans, which must be a list of lists of step objects."""
    if not isinstance(plans, list):
        raise ValueError(f"fallback_plans must be a list of plans (got {plans!r})")
    for i, plan in enumerate(plans):
        if not isinstance(plan, list):
            raise ValueError(f"fallback plan {i} must be a list of steps (got {plan!r})")
        for j, raw in enumerate(plan):
            if not isinstance(raw, dict):
                raise ValueError(f"fallback plan {i} step {j} must be an object "
                                 f"(got {raw!r})")
    return tuple(tuple(t) for t in plans)


def _check_fallback_plans(scenario: Scenario):
    """Reject a scenario file that would fail mid-episode: a scene that
    starts with an object held, a primary object missing from the scene, an
    unknown ``special`` key, negative jitter, an initial state other than
    standing or lying, no fallback plan or an empty one, or a step with an
    unknown primitive, object or hint binding, a push, rotate or moveto
    step that binds no target, a grasp or release step that binds one, or a
    region the scene cannot resolve.
    Membership is tested in tuples, which need no hashable value."""
    held = scenario.scene_template.held_id
    if held is not None:
        raise ValueError(f"scene held_id must be null (got {held!r}): an episode "
                         f"starts with nothing held")
    object_ids = tuple(o.id for o in scenario.scene_template.objects)
    if scenario.primary_object not in object_ids:
        raise ValueError(f"primary object {scenario.primary_object!r} is not "
                         f"in the scene")
    for key in scenario.special:
        if key not in ("goal_jitter", "initial_states"):
            raise ValueError(f"unknown special key {key!r}")
    for name, value in (("pos_jitter", scenario.pos_jitter),
                        ("yaw_jitter_deg", scenario.yaw_jitter_deg),
                        ("goal_jitter", scenario.special.get("goal_jitter", 0.0))):
        if not _is_number(value) or value < 0:
            raise ValueError(f"{name} must be a number >= 0 (got {value!r})")
    states = scenario.special.get("initial_states", [])
    if not isinstance(states, (list, tuple)) or not all(
            s in ("standing", "lying") for s in states):
        raise ValueError(f"initial_states must be a list of 'standing' or 'lying' "
                         f"(got {states!r})")
    if not scenario.fallback_templates:
        raise ValueError("fallback_plans needs at least one plan")
    kinds = tuple(k.value for k in PrimitiveKind)
    needs_target = tuple(k.value for k in NEEDS_TARGET)
    target_hints = ("tool_approach",)
    if scenario.goal_template.kind == "pose":
        target_hints += ("goal",)  # a region goal gives a goal hint no pose
    registry = build_region_registry(scenario)
    for i, template in enumerate(scenario.fallback_templates):
        if not template:
            raise ValueError(f"fallback plan {i} has no steps")
        for j, raw in enumerate(template):
            where = f"fallback plan {i} step {j}"
            if raw.get("object_id") not in object_ids:
                raise ValueError(f"{where}: no object {raw.get('object_id')!r} "
                                 f"in the scene")
            if raw.get("kind") not in kinds:
                raise ValueError(f"{where}: unknown primitive {raw.get('kind')!r}")
            if raw.get("hint") not in (None, "goal", "tool_approach"):
                raise ValueError(f"{where}: unknown hint binding {raw['hint']!r}")
            region = raw.get("region")
            if raw["kind"] not in needs_target and (region or raw.get("hint") is not None):
                raise ValueError(f"{where}: {raw['kind']} takes no region or hint")
            if not region:
                if raw["kind"] in needs_target and raw.get("hint") not in target_hints:
                    raise ValueError(f"{where}: {raw['kind']} needs a region or a hint "
                                     f"that binds a target pose")
                continue
            if region not in tuple(registry):
                raise ValueError(f"{where}: unknown region {region!r}")
            try:
                registry[region](scenario.scene_template, raw["object_id"])
            except (KeyError, StopIteration) as exc:
                raise ValueError(f"{where}: region {region!r} cannot be resolved "
                                 f"in the scene ({exc!r})") from exc


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def dump_scenario(scenario: Scenario, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
