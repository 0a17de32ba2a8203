"""Oracle tests for the values that settle and the push controller derive
once and then reuse: the identity memos of ``unit_quat`` and
``_snap_face_down`` (and ``_half_height``, which keeps no memo but is
checked with them), the written-out ``Pose6D``
constructor, the support polygon that ``settle`` keeps for
``stability_margin``, and the values a stalled push step takes over from the
step before. Each is compared bit for bit with a verbatim copy of the code
it replaced."""

import dataclasses
import math

import numpy as np
import pytest

from tabletamp import control, harness, subgoal, twin
from tabletamp.control import (
    _BOUNDARY_SPACING,
    _FPS_K,
    _KD,
    _KP,
    _MAX_PUSH_ITERS,
    _POS_BAND,
    _POS_TOL,
    _STALL_ITERS,
    _YAW_EARLY_DIST,
    _YAW_STEP_CAP,
    _YAW_TOL_DEG,
    ErrorKind,
    ExecTrace,
    _approach_blocked,
    _clamp_to_surface,
    _reach_ok,
    _surface_contact,
    current_tool,
    effective_reach,
)
from tabletamp.geometry import (
    _UNIT_TOL,
    Pose6D,
    boundary_contacts,
    box_corner_heights,
    down_face,
    farthest_point_sample,
    geodesic_angle,
    hull_polygon,
    point_in_polygon,
    quat_from_yaw,
    rect_polygon,
    se2_error,
    signed_interior_margin,
    unit_quat,
    wrap_angle,
)
from tabletamp.scenarios import SCENARIO_IDS, build_scenario
from tabletamp.twin import (
    PUSH_KAPPA,
    PUSH_STEP_CAP,
    ROBOT_BASE,
    SettleOutcome,
    TerrainFeature,
    _face_down_orientation,
    _ground_height,
    _ground_rest,
    _settle_on_slope,
    _slide_clear,
    _support_pieces,
    _support_polygon,
    _topple_once,
    apply_push,
    support_cells,
)

from tests.test_geometry import oracle_quats
from tests.test_twin import TABLE_H, base_scene, bits, make_box


# ---------------------------------------------------------------------------
# the code that the memos and reuse replaced, copied verbatim
# ---------------------------------------------------------------------------

def ref_unit_quat(q):
    q = tuple(map(float, q))
    if len(q) != 4:
        raise ValueError("orientation must have 4 components (w, x, y, z)")
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if not abs(n - 1.0) <= _UNIT_TOL:  # a NaN or infinite norm fails too
        raise ValueError(f"orientation is not unit norm ({abs(n - 1.0):.2e} off): {q}")
    return (w / n, x / n, y / n, z / n)


def ref_pose_fields(position, orientation=(1.0, 0.0, 0.0, 0.0)):
    """The fields Pose6D.__post_init__ stored."""
    p = tuple(map(float, position))
    if len(p) != 3 or not (
        math.isfinite(p[0]) and math.isfinite(p[1]) and math.isfinite(p[2])
    ):
        raise ValueError(f"position must be 3 finite floats, got {position}")
    return p, ref_unit_quat(orientation)


def ref_snap_face_down(q):
    return _face_down_orientation(q, *down_face(ref_unit_quat(q)))


def ref_half_height(obj, q):
    return -min(box_corner_heights(0.0, ref_unit_quat(q), obj.half_extents))


def ref_settle(scene, object_id):
    """settle before the kept polygon and the whole-face shortcut, without
    its kept outcome, on the memo-free orientation helpers."""
    obj = scene.object(object_id)
    pose = obj.pose
    status = "stable"
    outward = (0.0, 0.0)
    for hop in range(3):
        flat_q = ref_snap_face_down(pose.orientation)
        pose = Pose6D(pose.position, flat_q)
        face = obj.at_pose(pose).world_obb().resting_face()
        scored = _support_pieces(support_cells(scene, exclude_id=obj.id), face)
        raised = [(h, c, p) for h, c, p in scored if c.kind != "ground"]
        if not raised:
            z = _ground_height(scene) + ref_half_height(obj, flat_q)
            final = Pose6D((pose.x, pose.y, z), flat_q)
            already_resting = (
                status == "stable"
                and abs(obj.pose.z - z) <= 1e-6
                and geodesic_angle(obj.pose.orientation, flat_q) < 1e-7
            )
            return SettleOutcome("stable" if already_resting else "fell_off", final)

        com = (pose.x, pose.y)
        slope_cells = [c for _, c, _ in raised if c.kind == "slope"]
        for cell in slope_cells:
            if signed_interior_margin(com, cell.polygon) > 0.01:
                return _settle_on_slope(scene, obj, pose, cell, status)

        flat = [(h, c, p) for h, c, p in raised if c.kind != "slope"]
        if not flat and slope_cells:
            return _settle_on_slope(scene, obj, pose, slope_cells[0], status)

        h_star, hull = _support_polygon(flat)
        inside = len(hull) >= 3 and point_in_polygon(com, hull_polygon(hull))

        if inside:
            z = h_star + ref_half_height(obj, flat_q)
            return SettleOutcome(status, Pose6D((pose.x, pose.y, z), flat_q))

        if hop == 0:
            status = "toppled"
            pose, outward = _topple_once(obj, pose, hull, h_star)
        else:
            pose = _slide_clear(scene, obj, pose, outward)
    return _ground_rest(scene, obj, pose, "fell_off")


def ref_stability_margin(scene, object_id):
    obj = scene.object(object_id)
    scored = _support_pieces(support_cells(scene, exclude_id=obj.id),
                             obj.world_obb().resting_face())
    raised = [(h, c, p) for h, c, p in scored if c.kind != "ground"]
    if not raised:
        raised = scored  # resting on bare ground
    if not raised:
        return -math.inf
    _, hull = _support_polygon(raised)
    if len(hull) < 3:
        return -math.inf
    return signed_interior_margin((obj.pose.x, obj.pose.y), hull_polygon(hull))


def ref_exec_push(scene, object_id, subgoal):
    trace = ExecTrace()
    obj = scene.object(object_id)
    if scene.held_id == object_id:
        raise ValueError("cannot push a held object")
    tool = current_tool(scene)

    radius = max(obj.half_extents[0], obj.half_extents[1])
    goal_d = math.hypot(subgoal.x - ROBOT_BASE[0], subgoal.y - ROBOT_BASE[1])
    if goal_d > effective_reach(tool) + radius:
        return scene, trace.fail(
            ErrorKind.OUT_OF_REACH,
            f"push target at {goal_d:.2f} m exceeds reach "
            f"{effective_reach(tool):.2f} m + object radius {radius:.2f} m",
        )

    target_yaw = subgoal.yaw
    prev_pos_err = None
    stall = 0

    for it in range(_MAX_PUSH_ITERS):
        obj = scene.object(object_id)
        pos_err, yaw_err = se2_error(obj.pose, subgoal)
        trace.iterations = it
        if pos_err <= _POS_TOL and yaw_err <= _YAW_TOL_DEG:
            break

        yaw_phase = yaw_err > _YAW_TOL_DEG and (
            pos_err <= _POS_BAND or pos_err >= _YAW_EARLY_DIST
        )
        if not yaw_phase:
            vx = subgoal.x - obj.pose.x
            vy = subgoal.y - obj.pose.y
            direction = (vx / pos_err, vy / pos_err)
            contact = _surface_contact(obj, direction)
            derr = 0.0 if prev_pos_err is None else pos_err - prev_pos_err
            raw = _KP * pos_err + _KD * derr
            push_step = max(1e-4, min(PUSH_STEP_CAP, raw))
            prev_pos_err = pos_err
        else:
            remaining = wrap_angle(target_yaw - obj.pose.yaw)
            to_goal = (subgoal.x - obj.pose.x, subgoal.y - obj.pose.y)
            direction, contact, arm = ref_yaw_contact(obj, remaining, to_goal)
            if arm is None:
                return scene, trace.fail(
                    ErrorKind.CONVERGENCE_TIMEOUT,
                    "no rotating contact available for yaw alignment",
                )
            push_step = max(1e-4, min(
                PUSH_STEP_CAP,
                _YAW_STEP_CAP,
                _KP * abs(remaining) / (PUSH_KAPPA * max(abs(arm), 1e-4)),
            ))

        if not _reach_ok((contact[0], contact[1]), tool):
            return scene, trace.fail(
                ErrorKind.OUT_OF_REACH,
                f"push contact at ({contact[0]:.2f}, {contact[1]:.2f}) is outside "
                f"the reach annulus",
            )
        blocker = _approach_blocked(scene, object_id, contact, direction)
        if blocker is not None and blocker not in ("table", "ground"):
            return scene, trace.fail(ErrorKind.COLLISION,
                                     f"push approach sweeps through {blocker}")

        scene, delta = apply_push(scene, object_id, contact, direction, push_step)
        trace.snapshots += 1
        if delta.settle_status != "stable":
            return scene, trace.fail(
                ErrorKind.OBJECT_LOST,
                f"object {object_id} {delta.settle_status} during pushing",
            )
        moved = math.hypot(delta.dx, delta.dy) + abs(delta.dyaw) * 0.1
        if moved < 0.1 * push_step:
            stall += 1
            if stall >= _STALL_ITERS:
                return scene, trace.fail(
                    ErrorKind.CONVERGENCE_TIMEOUT,
                    f"pushing made no progress for {stall} consecutive steps",
                )
        else:
            stall = 0
    else:
        obj = scene.object(object_id)
        pos_err, yaw_err = se2_error(obj.pose, subgoal)
        if pos_err > _POS_TOL or yaw_err > _YAW_TOL_DEG:
            return scene, trace.fail(
                ErrorKind.CONVERGENCE_TIMEOUT,
                f"push did not converge in {_MAX_PUSH_ITERS} iterations "
                f"(err {pos_err:.3f} m, {yaw_err:.1f} deg)",
            )
    trace.snapshots += 1
    return scene, trace


def ref_yaw_contact(obj, remaining, to_goal):
    pts, normals = boundary_contacts(obj.world_obb().footprint(), _BOUNDARY_SPACING)
    k = min(_FPS_K, len(pts))
    idx = farthest_point_sample(pts, k, 0)
    need = 1.0 if remaining > 0 else -1.0

    def score(indices):
        out = []
        for i in indices:
            p, n = pts[i], normals[i]
            rx, ry = p[0] - obj.pose.x, p[1] - obj.pose.y
            arm = rx * n[1] - ry * n[0]
            out.append((need * arm, arm, p, n))
        out.sort(key=lambda s: -s[0])
        return out

    scored = score(idx)
    min_useful = 0.3 * max(obj.half_extents[0], obj.half_extents[1])
    if scored[0][0] <= min_useful:
        scored = score(range(len(pts)))
    positive = [s for s in scored if s[0] > 1e-6]
    if not positive:
        return (1.0, 0.0), (obj.pose.x, obj.pose.y, obj.pose.z), None
    strong = [s for s in positive if s[0] >= 0.6 * positive[0][0]]
    helpful = [
        s for s in strong
        if s[3][0] * to_goal[0] + s[3][1] * to_goal[1] >= -1e-9
    ]
    pick = helpful[0] if helpful else positive[0]
    _, arm, p, n = pick
    contact = _clamp_to_surface(obj, (p[0], p[1], obj.pose.z))
    return (n[0], n[1]), contact, arm


# ---------------------------------------------------------------------------
# the orientation memos
# ---------------------------------------------------------------------------

class TestOrientationMemos:
    @staticmethod
    def call_sequence(seed, count=3000):
        """Indices into a pool of 40 quaternion tuples: runs of repeats,
        interleaved with returns to earlier entries."""
        rng = np.random.default_rng(seed)
        out, i = [], 0
        for _ in range(count):
            r = rng.uniform()
            if r < 0.5:
                pass  # the previous input again
            elif r < 0.8:
                i = int(rng.integers(40))
            else:
                i = (i + 1) % 40
            out.append(i)
        return out

    def test_repeated_and_interleaved_calls_equal_the_old_code(self):
        pool = list(oracle_quats(40, 211))
        halves = [tuple(float(c) for c in np.random.default_rng(s).uniform(0.005, 0.2, 3))
                  for s in range(5)]
        objs = [make_box(half=h) for h in halves]
        rng = np.random.default_rng(223)
        for step, i in enumerate(self.call_sequence(227)):
            q = pool[i]
            which = step % 3 if rng.uniform() < 0.5 else int(rng.integers(3))
            if which == 0:
                assert bits(unit_quat(q)) == bits(ref_unit_quat(q))
            elif which == 1:
                assert bits(twin._snap_face_down(q)) == bits(ref_snap_face_down(q))
            else:
                obj = objs[int(rng.integers(len(objs)))]
                assert (twin._half_height(obj, q).hex()
                        == ref_half_height(obj, q).hex())

    def test_a_repeated_tuple_is_answered_from_the_memo(self):
        q = next(oracle_quats(1, 229))
        assert unit_quat(q) is unit_quat(q)
        assert twin._snap_face_down(q) is twin._snap_face_down(q)

    def test_a_list_mutated_between_calls_is_normalized_again(self):
        a, b = list(oracle_quats(2, 233))
        obj = make_box(half=(0.03, 0.04, 0.05))
        for function, ref in ((unit_quat, ref_unit_quat),
                              (twin._snap_face_down, ref_snap_face_down),
                              (lambda q: twin._half_height(obj, q),
                               lambda q: ref_half_height(obj, q))):
            q = list(a)
            first = function(q)
            q[:] = b
            second = function(q)
            assert bits(first) == bits(ref(a))
            assert bits(second) == bits(ref(b)) != bits(first)

    def test_an_equal_tuple_of_other_zero_signs_is_recomputed(self):
        q = (1.0, 0.0, 0.0, 0.0)
        flipped = (1.0, -0.0, 0.0, -0.0)
        assert q == flipped
        assert bits(unit_quat(q)) == bits(ref_unit_quat(q))
        assert bits(unit_quat(flipped)) == bits(ref_unit_quat(flipped)) != bits(
            ref_unit_quat(q))

    def test_half_height_keys_on_the_half_extents_too(self):
        q = next(oracle_quats(1, 239))
        small, large = make_box(half=(0.01, 0.02, 0.03)), make_box(half=(0.1, 0.2, 0.3))
        assert twin._half_height(small, q).hex() == ref_half_height(small, q).hex()
        assert twin._half_height(large, q).hex() == ref_half_height(large, q).hex()
        assert twin._half_height(large, q) != twin._half_height(small, q)

    def test_an_invalid_input_still_raises_after_a_valid_one(self):
        q = quat_from_yaw(0.3)
        unit_quat(q)
        with pytest.raises(ValueError, match="not unit norm"):
            unit_quat((2.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="4 components"):
            unit_quat((1.0, 0.0, 0.0))
        assert bits(unit_quat(q)) == bits(ref_unit_quat(q))


class TestPoseConstructor:
    def test_fields_equal_the_post_init_ones(self):
        rng = np.random.default_rng(241)
        for q in oracle_quats(400, 251):
            position = tuple(rng.uniform(-1.0, 1.0, 3))
            pose = Pose6D(position, q)
            p, o = ref_pose_fields(position, q)
            assert bits(pose.position) == bits(p)
            assert bits(pose.orientation) == bits(o)
            assert Pose6D(position=list(position), orientation=list(q)) == pose

    @pytest.mark.parametrize("position, orientation", [
        ((math.nan, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
        ((0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
        ((0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0)),
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
    ], ids=["nan-position", "short-position", "not-unit", "short-orientation"])
    def test_same_errors_and_messages(self, position, orientation):
        with pytest.raises(ValueError) as expected:
            ref_pose_fields(position, orientation)
        with pytest.raises(ValueError) as got:
            Pose6D(position, orientation)
        assert str(got.value) == str(expected.value)

    def test_default_orientation_frozen_and_replace(self):
        pose = Pose6D((1, 2, 3))
        assert pose.orientation == (1.0, 0.0, 0.0, 0.0)
        assert pose.position == (1.0, 2.0, 3.0) and type(pose.position[0]) is float
        with pytest.raises(dataclasses.FrozenInstanceError):
            pose.position = (0.0, 0.0, 0.0)
        moved = dataclasses.replace(pose, position=(4, 5, 6))
        assert moved == Pose6D((4.0, 5.0, 6.0)) and hash(moved) == hash(
            Pose6D((4.0, 5.0, 6.0)))
        assert repr(pose) == ("Pose6D(position=(1.0, 2.0, 3.0), "
                              "orientation=(1.0, 0.0, 0.0, 0.0))")


# ---------------------------------------------------------------------------
# settle's whole-face shortcut and kept polygon
# ---------------------------------------------------------------------------

def settle_inputs(monkeypatch, seeds=range(2)):
    """The (scene, object id) of every settle and stability_margin call that
    the episodes of all eight scenarios make, in call order, with each
    call's result, and how many margins found settle's kept polygon."""
    calls = []
    kept = [0]

    def settle(scene, object_id, original=twin.settle):
        result = original(scene, object_id)
        calls.append(("settle", scene, object_id, result))
        return result

    def stability_margin(scene, object_id, original=twin.stability_margin):
        before = twin._last_polygon
        result = original(scene, object_id)
        obj = scene.object(object_id)
        # the pieces the margin was handed are the last ones computed
        scored = twin._support_pieces(twin.support_cells(scene, exclude_id=obj.id),
                                      obj.world_obb().resting_face())
        kept[0] += before is not None and before[0] is scored
        calls.append(("margin", scene, object_id, result))
        return result

    monkeypatch.setattr(twin, "settle", settle)
    monkeypatch.setattr(subgoal, "stability_margin", stability_margin)
    for name in SCENARIO_IDS:
        for seed in seeds:
            harness.run_episode(build_scenario(name), seed)
    monkeypatch.undo()
    return calls, kept[0]


class TestKeptSupportPolygon:
    def test_settle_and_margin_equal_the_old_code_on_rehearsal_candidates(
            self, monkeypatch):
        calls, kept = settle_inputs(monkeypatch)
        assert sum(kind == "margin" for kind, *_ in calls) > 300
        assert kept > 300  # most margins use the polygon settle kept
        for kind, scene, object_id, result in calls:
            if kind == "settle":
                assert bits(result) == bits(ref_settle(scene, object_id))
            else:
                assert result.hex() == ref_stability_margin(scene, object_id).hex()

    def test_seeded_placements(self):
        rng = np.random.default_rng(257)
        base = make_box("base", half=(0.06, 0.06, 0.03), x=0.02, y=-0.01)
        for _ in range(300):
            half = tuple(rng.uniform(0.01, 0.06, 3))
            x, y = rng.uniform(-0.12, 0.12, 2)
            q = next(oracle_quats(1, int(rng.integers(1 << 30))))
            top = make_box("top", half=half, x=x, y=y,
                           z=TABLE_H + 0.06 + max(half) + 0.01)
            scene = base_scene([base, dataclasses.replace(top, pose=Pose6D(
                top.pose.position, q))])
            outcome = twin.settle(scene, "top")
            assert bits(outcome) == bits(ref_settle(scene, "top"))
            rested = scene.replace_object(scene.object("top").at_pose(outcome.final_pose))
            assert (twin.stability_margin(rested, "top").hex()
                    == ref_stability_margin(rested, "top").hex())

    def test_a_face_inside_one_cell_skips_the_hull(self, monkeypatch):
        hulls = []
        original = twin._support_polygon
        monkeypatch.setattr(twin, "_support_polygon",
                            lambda pieces: hulls.append(pieces) or original(pieces))
        scene = base_scene([make_box(x=0.01, y=0.02, yaw=0.4, z=TABLE_H + 0.06)])
        outcome = twin.settle(scene, "box")
        assert hulls == []
        monkeypatch.undo()
        assert bits(outcome) == bits(ref_settle(scene, "box"))
        rested = scene.replace_object(scene.object("box").at_pose(outcome.final_pose))
        assert (twin.stability_margin(rested, "box").hex()
                == ref_stability_margin(rested, "box").hex())


# ---------------------------------------------------------------------------
# the push loop
# ---------------------------------------------------------------------------

def push_inputs(monkeypatch, seeds=range(3)):
    """(scene, object id, subgoal) of every exec_push call in the episodes of
    all eight scenarios under the full and the no-pose ablation."""
    calls = []

    def exec_push(scene, object_id, subgoal, original=control.exec_push):
        calls.append((scene, object_id, subgoal))
        return original(scene, object_id, subgoal)

    monkeypatch.setattr(harness, "exec_push", exec_push)
    for ablation in ("full", "no_pose"):
        for name in SCENARIO_IDS:
            for seed in seeds:
                harness.run_episode(build_scenario(name), seed, ablation=ablation)
    monkeypatch.undo()
    return calls


def scene_bits(scene):
    return [(o.id, bits(o.pose.position), bits(o.pose.orientation))
            for o in scene.objects]


class TestExecPushReuse:
    @staticmethod
    def log_steps(monkeypatch):
        """Wrap apply_push for both loops: each step's contact, direction and
        length as bits, and whether it handed back the same object."""
        steps = []

        def logged(scene, object_id, contact, direction, step, original=twin.apply_push):
            out, delta = original(scene, object_id, contact, direction, step)
            steps.append((bits(contact), bits(direction), step.hex(),
                          out.object(object_id) is scene.object(object_id)))
            return out, delta

        monkeypatch.setattr(control, "apply_push", logged)
        monkeypatch.setitem(globals(), "apply_push", logged)
        return steps

    def assert_same_push(self, steps, scene, object_id, goal):
        """Both loops make the same steps and end in the same trace and
        scene; returns the number of stalled steps."""
        steps.clear()
        out, trace = control.exec_push(scene, object_id, goal)
        new_steps = list(steps)
        steps.clear()
        ref_out, ref_trace = ref_exec_push(scene, object_id, goal)
        assert new_steps == steps
        assert trace == ref_trace  # the error, iterations and snapshots
        assert scene_bits(out) == scene_bits(ref_out)
        return sum(stalled for *_, stalled in new_steps)

    def test_equals_the_old_loop_on_twin_and_execution_scenes(self, monkeypatch):
        calls = push_inputs(monkeypatch)
        assert {o for _, o, _ in calls} >= {"box", "card"}
        steps = self.log_steps(monkeypatch)
        stalled = 0
        for scene, object_id, goal in calls:
            for s in (scene, scene.as_twin()):
                stalled += self.assert_same_push(steps, s, object_id, goal)
        assert stalled > 50  # the reuse on a stalled step is exercised

    @pytest.mark.parametrize("goal_x", [0.2, 0.055], ids=["capped-step", "pd-step"])
    def test_push_pinned_against_a_wall_times_out_as_before(self, monkeypatch, goal_x):
        # pinned 1.5 cm short of the goal, the step length is the PD term,
        # under the step cap: the first step that hands back the same object
        # carries the last move's derivative, every later one a zero one
        wall = TerrainFeature("wall", rect_polygon(0.1, 0.0, 0.01, 0.2), TABLE_H,
                              {"height": 0.05}, name="rail")
        scene = base_scene([make_box(x=0.01, y=0.003)], terrain_extra=[wall],
                           role="execution")
        goal = Pose6D((goal_x, 0.003, TABLE_H + 0.05), quat_from_yaw(0.0))
        steps = self.log_steps(monkeypatch)
        assert self.assert_same_push(steps, scene, "box", goal) == _STALL_ITERS
        lengths = [step for _, _, step, stalled in steps if stalled]
        assert len(set(lengths[1:])) == 1
        assert (lengths[0] != lengths[1]) == (goal_x < 0.1)
        _, trace = ref_exec_push(scene, "box", goal)
        assert trace.result.kind is ErrorKind.CONVERGENCE_TIMEOUT

    def test_yaw_contact_equals_the_old_scoring(self):
        rng = np.random.default_rng(263)
        for _ in range(200):
            obj = make_box(half=tuple(rng.uniform(0.01, 0.1, 3)),
                           x=rng.uniform(-0.2, 0.2), y=rng.uniform(-0.2, 0.2),
                           yaw=rng.uniform(-math.pi, math.pi))
            remaining = rng.uniform(-math.pi, math.pi)
            to_goal = tuple(rng.uniform(-0.1, 0.1, 2))
            assert bits(control._yaw_contact(obj, remaining, to_goal)) == bits(
                ref_yaw_contact(obj, remaining, to_goal))

