"""Oracle tests for the swept-motion broad phase: the quarter-turn bound that
``pivot_rotate`` derives, the ``sweep_is_clear`` test it and ``exec_moveto``
make, and both callers compared call for call with verbatim copies of the
bodies that built a box at every increment and waypoint."""

import math

import numpy as np
import pytest

from tabletamp import control, harness, subgoal, twin
from tabletamp.control import (
    _HOVER,
    IK_FAILURE_MESSAGE,
    ErrorKind,
    ExecTrace,
    _grip_point_for,
    _reach_ok,
    current_tool,
    exec_grasp,
)
from tabletamp.geometry import (
    Pose6D,
    quat_from_axis_angle,
    quat_from_yaw,
    quat_mul,
    rect_polygon,
)
from tabletamp.scenarios import SCENARIO_IDS, build_scenario
from tabletamp.twin import (
    SWEEP_MARGIN,
    PlacementCollision,
    SettleOutcome,
    SweptCollision,
    TerrainFeature,
    _balance_angle,
    _dist3,
    _quarter_turn_bound,
    _rotate_pose_about_line,
    box_hits_solids,
    overlapping_object,
    place_at,
    settle_in_place,
    slope_orientation,
    support_cells,
    support_height_at,
    sweep_is_clear,
)

from tests.test_twin import TABLE_H, base_scene, make_box


# ---------------------------------------------------------------------------
# the bodies the broad phase went into, copied verbatim
# ---------------------------------------------------------------------------

def ref_pivot_rotate(scene, object_id, pivot_edge, angle, swept_clear=None):
    obj = scene.object(object_id)
    if abs(angle) > math.pi / 2 + 1e-9:
        raise ValueError("pivot angle magnitude must be <= pi/2")
    p0, p1 = pivot_edge
    box = obj.world_obb()
    edge_ok = False
    for a, b in box.bottom_edges():
        if (_dist3(p0, a) < 5e-3 and _dist3(p1, b) < 5e-3) or (
            _dist3(p0, b) < 5e-3 and _dist3(p1, a) < 5e-3
        ):
            edge_ok = True
            break
    if not edge_ok:
        raise ValueError("pivot_edge is not a bottom edge of the object's box")
    support = support_height_at(scene.terrain.cells,
                                (0.5 * (p0[0] + p1[0]), 0.5 * (p0[1] + p1[1])))
    edge_z = 0.5 * (p0[2] + p1[2])
    if support is None or abs(edge_z - support) > 5e-3:
        # a lip: the support under one of the edge's ends carries it
        cells = support_cells(scene, exclude_id=object_id)
        ends = [support_height_at(cells, (p[0], p[1])) for p in (p0, p1)]
        if not any(h is not None and abs(edge_z - h) <= 5e-3 for h in ends):
            raise ValueError("pivot edge is not in contact with a surface or lip")

    if abs(angle) < 1e-12:
        return scene, SettleOutcome("stable", obj.pose)

    axis = (p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2])
    L = math.sqrt(axis[0] ** 2 + axis[1] ** 2 + axis[2] ** 2)
    if L < 1e-9:
        raise ValueError("degenerate pivot edge")
    axis = (axis[0] / L, axis[1] / L, axis[2] / L)

    # choose the rotation sign that lifts the COM side over the edge
    probe = _rotate_pose_about_line(obj.pose, p0, axis, math.copysign(0.01, angle))
    if probe.z < obj.pose.z - 1e-9:
        angle = -angle  # requested direction would drive the object into the support

    steps = max(1, int(math.ceil(abs(angle) / math.radians(5.0))))
    for i in range(1, steps + 1):
        a = angle * i / steps
        if swept_clear is not None and a in swept_clear:
            continue
        pose_i = _rotate_pose_about_line(obj.pose, p0, axis, a)
        box_i = obj.at_pose(pose_i).world_obb()
        solid = box_hits_solids(scene, box_i, tol=2e-3)
        if solid is not None:
            raise SweptCollision(
                f"pivot sweep of {object_id} hits {solid.label or 'terrain'} at "
                f"{math.degrees(a):.0f} deg"
            )
        other = overlapping_object(scene, box_i, object_id)
        if other is not None:
            raise SweptCollision(f"pivot sweep of {object_id} hits {other.id}")
        if swept_clear is not None:
            swept_clear.add(a)

    balance = _balance_angle(obj, p0, axis)
    if abs(angle) + 1e-9 < balance:
        return settle_in_place(scene, object_id)

    flipped = _rotate_pose_about_line(obj.pose, p0, axis, math.copysign(math.pi / 2, angle))
    return settle_in_place(scene.replace_object(obj.at_pose(flipped)), object_id)


def ref_exec_moveto(scene, subgoal):
    trace = ExecTrace()
    if scene.held_id is None:
        raise ValueError("no object is held")
    object_id = scene.held_id
    obj = scene.object(object_id)
    tool = current_tool(scene)

    grip = _grip_point_for(subgoal, tool)
    if not _reach_ok(grip):
        return scene, trace.fail(ErrorKind.IK_FAILURE, IK_FAILURE_MESSAGE)

    # hover sweep along the straight line against walls and other objects
    start = obj.pose
    hover_z = max(start.z, subgoal.z) + _HOVER
    dist = math.hypot(subgoal.x - start.x, subgoal.y - start.y)
    steps = max(2, int(dist / 0.02))
    for i in range(steps + 1):
        t = i / steps
        x = start.x + (subgoal.x - start.x) * t
        y = start.y + (subgoal.y - start.y) * t
        hover_pose = Pose6D((x, y, hover_z), subgoal.orientation)
        hover_box = obj.at_pose(hover_pose).world_obb()
        solid = box_hits_solids(scene, hover_box, include_slopes=False)
        if solid is not None:
            return scene, trace.fail(
                ErrorKind.COLLISION,
                f"transport path crosses {solid.label or 'terrain'}",
            )
        other = overlapping_object(scene, hover_box, object_id)
        if other is not None:
            return scene, trace.fail(ErrorKind.COLLISION,
                                     f"transport path crosses {other.id}")
        trace.snapshots += 1

    try:
        lowered = place_at(scene, object_id, subgoal)
    except PlacementCollision as exc:
        return scene, trace.fail(ErrorKind.COLLISION,
                                 f"lowering onto the sub-goal collides: {exc}")
    trace.snapshots += 1
    return lowered, trace


def outcome_of(call):
    """A call's return value as its repr, or its exception's type and text."""
    try:
        return "ok", repr(call())
    except (SweptCollision, ValueError) as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# the quarter-turn bound
# ---------------------------------------------------------------------------

def seeded_boxes(rng, n):
    """Boxes lying flat on the table, standing on a side face, and tilted on
    the ``slope`` scenario's incline, with seeded sizes, places and yaws."""
    slope = next(t for t in build_scenario("slope").scene_template.terrain
                 if t.kind == "slope")
    stand = quat_from_axis_angle((1.0, 0.0, 0.0), math.pi / 2)
    for _ in range(n):
        half = tuple(rng.uniform(0.004, 0.12, 3))
        x, y = rng.uniform(-0.3, 0.3, 2)
        yaw = quat_from_yaw(rng.uniform(-math.pi, math.pi))
        yield make_box(half=half, x=x, y=y, orientation=yaw)
        yield make_box(half=half, x=x, y=y, z=TABLE_H + half[1],
                       orientation=quat_mul(yaw, stand))
        yield make_box(half=half, x=x, y=y, z=slope.height + half[2],
                       orientation=slope_orientation(yaw, slope))


def pivot_axis(edge):
    """pivot_rotate's unit axis along a bottom edge."""
    p0, p1 = edge
    axis = (p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2])
    L = math.sqrt(axis[0] ** 2 + axis[1] ** 2 + axis[2] ** 2)
    return (axis[0] / L, axis[1] / L, axis[2] / L)


def increment_boxes(obj, p0, axis, angle):
    """The boxes pivot_rotate builds for a sweep to ``angle``."""
    steps = max(1, int(math.ceil(abs(angle) / math.radians(5.0))))
    for i in range(1, steps + 1):
        pose_i = _rotate_pose_about_line(obj.pose, p0, axis, angle * i / steps)
        yield obj.at_pose(pose_i).world_obb()


def inside(point, bound):
    x, y, z = point
    xlo, xhi, ylo, yhi, zlo, zhi = bound
    return xlo <= x <= xhi and ylo <= y <= yhi and zlo <= z <= zhi


class TestQuarterTurnBound:
    def test_holds_every_corner_of_every_increment_box(self):
        rng = np.random.default_rng(307)
        requested = [math.radians(5.0 * k) for k in range(1, 19)]
        requested += [math.pi / 2 + 1e-9] + list(rng.uniform(1e-6, math.pi / 2, 6))
        checked = 0
        for obj in seeded_boxes(rng, 25):
            for edge in obj.world_obb().bottom_edges():
                p0, axis = edge[0], pivot_axis(edge)
                for sign in (1.0, -1.0):
                    bound = _quarter_turn_bound(obj.world_obb(), p0, axis, sign)
                    for angle in requested:
                        for box in increment_boxes(obj, p0, axis, sign * angle):
                            for c in box.corners():
                                assert inside(c, bound), (obj, edge, sign, angle, c)
                                checked += 1
        assert checked > 1_000_000

    def test_is_the_exact_arc_range(self):
        # corners sampled at 721 angles, ends included, lie within the chord
        # sag between samples (under 5e-7 m here) of every extreme, so the
        # bound is the arcs' range and not a looser one
        rng = np.random.default_rng(311)
        phis = np.linspace(0.0, math.pi / 2, 721)
        for obj in seeded_boxes(rng, 4):
            box = obj.world_obb()
            for edge in box.bottom_edges():
                p0, axis = edge[0], pivot_axis(edge)
                for sign in (1.0, -1.0):
                    bound = _quarter_turn_bound(box, p0, axis, sign)
                    corners = np.array([
                        c for phi in phis
                        for c in obj.at_pose(_rotate_pose_about_line(
                            obj.pose, p0, axis, sign * phi)).world_obb().corners()
                    ])
                    lo, hi = corners.min(axis=0), corners.max(axis=0)
                    for j in range(3):
                        assert abs(lo[j] - (bound[2 * j] + SWEEP_MARGIN)) <= 5e-7
                        assert abs(hi[j] - (bound[2 * j + 1] - SWEEP_MARGIN)) <= 5e-7


# ---------------------------------------------------------------------------
# sweep_is_clear
# ---------------------------------------------------------------------------

class TestSweepIsClear:
    def test_a_clear_bound_clears_every_box_inside_it(self):
        # boxes of every pose and size across the eight scenario scenes; a
        # bound grown from the box by a seeded amount holds the box
        rng = np.random.default_rng(313)
        verdicts = set()
        for name in SCENARIO_IDS:
            scene = build_scenario(name).scene_template
            obj = scene.objects[0]
            for _ in range(300):
                q = tuple(rng.normal(size=4))
                n = math.sqrt(sum(c * c for c in q))
                pose = Pose6D((rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45),
                               TABLE_H + rng.uniform(-0.05, 0.3)),
                              tuple(c / n for c in q))
                moved = twin.RigidObject(obj.id, tuple(rng.uniform(0.003, 0.1, 3)), pose)
                box = moved.world_obb()
                grow = rng.uniform(0.0, 0.05, 6) * (rng.uniform() < 0.5)
                xlo, xhi, ylo, yhi = box.xy_bounds
                bound = (xlo - grow[0], xhi + grow[1], ylo - grow[2], yhi + grow[3],
                         box.bottom_z() - grow[4], box.top_z() + grow[5])
                for tol, slopes in ((2e-3, True), (1e-6, False)):
                    clear = sweep_is_clear(scene, obj.id, bound, tol, slopes)
                    verdicts.add(clear)
                    if clear:
                        assert box_hits_solids(scene, box, tol=tol,
                                               include_slopes=slopes) is None
                        assert overlapping_object(scene, box, obj.id) is None
        assert verdicts == {True, False}

    def test_each_kind_of_body_is_met(self):
        wall = TerrainFeature("wall", rect_polygon(0.2, 0.0, 0.01, 0.1), TABLE_H,
                              {"height": 0.05}, name="rail")
        slope = TerrainFeature("slope", rect_polygon(-0.2, 0.0, 0.05, 0.05),
                               TABLE_H + 0.02, {"angle_deg": 10.0, "downhill": (0.0, -1.0)})
        other = make_box("other", half=(0.02, 0.02, 0.02), y=0.2)
        scene = base_scene([make_box(), other], terrain_extra=[wall, slope])
        rail_x0 = next(s for s in scene.terrain.solids if s.label == "rail").polygon.bounds[0]

        def clear(xlo, xhi, ylo, yhi, zlo=TABLE_H, zhi=TABLE_H + 0.1, tol=1e-6,
                  slopes=True, scene=scene):
            return sweep_is_clear(scene, "box", (xlo, xhi, ylo, yhi, zlo, zhi), tol, slopes)

        # the moved object and the table under it are never met
        assert clear(-0.05, 0.05, -0.05, 0.05)
        # the rail: bounds that touch are not apart
        assert not clear(0.0, rail_x0, -0.05, 0.05)
        assert clear(0.0, math.nextafter(rail_x0, 0.0), -0.05, 0.05)
        # above the rail's top, by the solid z test and its tolerance
        assert clear(0.0, 0.3, -0.05, 0.05, zlo=TABLE_H + 0.05 - 1e-6)
        assert not clear(0.0, 0.3, -0.05, 0.05, zlo=TABLE_H + 0.05 - 2e-3, tol=1e-3)
        # the slope cell, when slopes count
        assert not clear(-0.3, -0.1, -0.05, 0.05)
        assert clear(-0.3, -0.1, -0.05, 0.05, slopes=False)
        # the other object, met in xy and z, and never while it is held
        assert not clear(-0.05, 0.05, 0.15, 0.25)
        assert clear(-0.05, 0.05, 0.15, 0.25, zlo=TABLE_H + 0.04)
        assert clear(-0.05, 0.05, 0.15, 0.25, scene=scene.with_held("other"))


# ---------------------------------------------------------------------------
# the callers against their old bodies
# ---------------------------------------------------------------------------

def episode_calls(monkeypatch, seeds=range(3)):
    """Every pivot_rotate and exec_moveto call that the episodes of all eight
    scenarios make under the full and the no-pose ablation, with the sweep's
    clear angles before and after and the call's outcome; and each caller's
    broad-phase verdicts."""
    pivots, moves = [], []
    verdicts = {"pivot": [], "moveto": []}

    def pivot_rotate(scene, object_id, edge, angle, sweep=None, original=twin.pivot_rotate):
        before = None if sweep is None else set(sweep.clear)
        result = None

        def call():
            nonlocal result
            result = original(scene, object_id, edge, angle, sweep)
            return result

        outcome = outcome_of(call)
        after = None if sweep is None else set(sweep.clear)
        pivots.append((scene, object_id, edge, angle, before, outcome, after))
        if result is None:
            raise {"SweptCollision": SweptCollision, "ValueError": ValueError}[
                outcome[0]](outcome[1])
        return result

    def exec_moveto(scene, goal, original=control.exec_moveto):
        result = original(scene, goal)
        moves.append((scene, goal, result))
        return result

    def counted(kind, original=twin.sweep_is_clear):
        def sweep_is_clear(*args, **kwargs):
            verdicts[kind].append(original(*args, **kwargs))
            return verdicts[kind][-1]
        return sweep_is_clear

    monkeypatch.setattr(control, "pivot_rotate", pivot_rotate)
    monkeypatch.setattr(subgoal, "pivot_rotate", pivot_rotate)
    monkeypatch.setattr(harness, "exec_moveto", exec_moveto)
    monkeypatch.setattr(twin, "sweep_is_clear", counted("pivot"))
    monkeypatch.setattr(control, "sweep_is_clear", counted("moveto"))
    for ablation in ("full", "no_pose"):
        for name in SCENARIO_IDS:
            for seed in seeds:
                harness.run_episode(build_scenario(name), seed, ablation=ablation)
    monkeypatch.undo()
    return pivots, moves, verdicts


@pytest.fixture(scope="module")
def calls():
    with pytest.MonkeyPatch.context() as m:
        yield episode_calls(m)


class TestOldBodies:
    def test_pivot_rotate_equals_the_old_body(self, calls):
        pivots, _, verdicts = calls
        assert len(pivots) > 200
        # both branches run: sweeps the broad phase clears and sweeps that
        # build their increment boxes
        assert set(verdicts["pivot"]) == {True, False}
        for scene, object_id, edge, angle, before, outcome, after in pivots:
            ref_clear = None if before is None else set(before)
            assert outcome == outcome_of(lambda: ref_pivot_rotate(
                scene, object_id, edge, angle, ref_clear))
            assert after == ref_clear

    def test_exec_moveto_equals_the_old_body(self, calls):
        _, moves, verdicts = calls
        assert len(moves) > 20 and True in verdicts["moveto"]
        for scene, goal, (out, trace) in moves:
            ref_out, ref_trace = ref_exec_moveto(scene, goal)
            assert trace == ref_trace  # the error, its message and the snapshots
            assert repr(out) == repr(ref_out)

    @pytest.mark.parametrize("extra, others", [
        ((), ()),
        ((TerrainFeature("wall", rect_polygon(0.1, -0.15, 0.01, 0.25), TABLE_H,
                         {"height": 0.5}, name="barrier"),), ()),
        ((TerrainFeature("wall", rect_polygon(0.1, -0.15, 0.01, 0.25), TABLE_H,
                         {"height": 0.1}, name="low"),), ()),
        ((), (make_box("post", half=(0.02, 0.02, 0.15), x=0.1, y=-0.15),)),
        ((), (make_box("blocker", half=(0.05, 0.05, 0.05), x=0.2, y=-0.1),)),
    ], ids=["free", "tall-wall", "low-wall", "post", "blocker-at-goal"])
    def test_exec_moveto_equals_the_old_body_near_bodies(self, extra, others):
        cube = make_box("cube", half=(0.035, 0.035, 0.05), y=-0.2)
        scene, trace = exec_grasp(base_scene([cube, *others], terrain_extra=extra), "cube")
        assert trace.ok
        goal = Pose6D((0.2, -0.1, TABLE_H + 0.05), quat_from_yaw(0.3))
        out, trace = control.exec_moveto(scene, goal)
        ref_out, ref_trace = ref_exec_moveto(scene, goal)
        assert trace == ref_trace
        assert repr(out) == repr(ref_out)
