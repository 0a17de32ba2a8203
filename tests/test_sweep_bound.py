"""Oracle tests for the swept-motion broad phase: the quarter-turn bound that
``pivot_rotate`` derives, the ``sweep_is_clear`` test it and ``exec_moveto``
make, and both callers' outputs over the episodes' calls and near walls and
objects, checked against their pinned call digests in ``tests/pins.json``."""

import math

import numpy as np
import pytest

from tabletamp import control, harness, subgoal, twin
from tabletamp.control import ErrorKind, exec_grasp
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
    SweptCollision,
    TerrainFeature,
    _quarter_turn_bound,
    _rotate_pose_about_line,
    box_hits_solids,
    overlapping_object,
    slope_orientation,
    sweep_is_clear,
)

from tests.test_pins import assert_call_digest
from tests.test_twin import TABLE_H, base_scene, make_box


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
# the callers' outputs
# ---------------------------------------------------------------------------

def episode_calls(monkeypatch, seeds=range(3)):
    """Every pivot_rotate and exec_moveto call that the episodes of all eight
    scenarios make under the full and the no-pose ablation, with the
    broad-phase verdicts by sign that the call was handed and handed back
    and the call's result or exception; and each caller's broad-phase
    verdicts."""
    pivots, moves = [], []
    verdicts = {"pivot": [], "moveto": []}

    def pivot_rotate(scene, object_id, edge, angle, reachable=None,
                     original=twin.pivot_rotate):
        before = None if reachable is None else sorted(reachable.items())
        try:
            result = original(scene, object_id, edge, angle, reachable)
        except (SweptCollision, ValueError) as exc:
            result = exc
        after = None if reachable is None else sorted(reachable.items())
        pivots.append((object_id, edge, angle, before, result, after))
        if isinstance(result, Exception):
            raise result
        return result

    def exec_moveto(scene, goal, original=control.exec_moveto):
        result = original(scene, goal)
        moves.append((goal, result))
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


class TestCallerOutputs:
    def test_pivot_outputs_are_pinned(self, calls):
        pivots, _, verdicts = calls
        assert len(pivots) > 200
        # both branches run: sweeps the broad phase clears and sweeps that
        # build their increment boxes
        assert set(verdicts["pivot"]) == {True, False}
        assert_call_digest("pivot_rotate_in_episodes", pivots)

    def test_exec_moveto_outputs_are_pinned(self, calls):
        _, moves, verdicts = calls
        assert len(moves) > 20 and True in verdicts["moveto"]
        assert_call_digest("exec_moveto_in_episodes", moves)

    @pytest.mark.parametrize("key, extra, others, error", [
        ("exec_moveto_free", (), (), None),
        ("exec_moveto_tall_wall",
         (TerrainFeature("wall", rect_polygon(0.1, -0.15, 0.01, 0.25), TABLE_H,
                         {"height": 0.5}, name="barrier"),), (), "transport path crosses barrier"),
        ("exec_moveto_low_wall",
         (TerrainFeature("wall", rect_polygon(0.1, -0.15, 0.01, 0.25), TABLE_H,
                         {"height": 0.1}, name="low"),), (), None),
        ("exec_moveto_post", (),
         (make_box("post", half=(0.02, 0.02, 0.15), x=0.1, y=-0.15),),
         "transport path crosses post"),
        ("exec_moveto_blocker_at_goal", (),
         (make_box("blocker", half=(0.05, 0.05, 0.05), x=0.2, y=-0.1),),
         "lowering onto the sub-goal collides"),
    ], ids=["free", "tall-wall", "low-wall", "post", "blocker-at-goal"])
    def test_exec_moveto_near_bodies(self, key, extra, others, error):
        cube = make_box("cube", half=(0.035, 0.035, 0.05), y=-0.2)
        scene, trace = exec_grasp(base_scene([cube, *others], terrain_extra=extra), "cube")
        assert trace.ok
        goal = Pose6D((0.2, -0.1, TABLE_H + 0.05), quat_from_yaw(0.3))
        out, trace = control.exec_moveto(scene, goal)
        if error is None:
            assert trace.ok, trace.result
        else:
            assert trace.result.kind is ErrorKind.COLLISION
            assert trace.result.message.startswith(error)
        assert_call_digest(key, (out, trace))
