"""Oracle tests for the values that settle and the push controller derive
once and then reuse: the identity memos of ``unit_quat`` and
``_snap_face_down`` (and ``_half_height``, which keeps no memo but is
checked with them), the written-out ``Pose6D`` constructor, the support
polygon that ``settle`` keeps for ``stability_margin``, and the values a
stalled push step takes over from the step before. Each memoized answer is
compared bit for bit with a fresh call made with every memo cleared. What a
fresh call cannot check, settle's whole-face shortcut and the push loop's
reuse, is checked against its pinned call digest in ``tests/pins.json``."""

import dataclasses
import math

import numpy as np
import pytest

from tabletamp import control, harness, subgoal, twin
from tabletamp._rng import default_rng
from tabletamp.control import _STALL_ITERS, ErrorKind
from tabletamp.geometry import (
    Pose6D,
    geodesic_angle,
    quat_from_yaw,
    rect_polygon,
    unit_quat,
)
from tabletamp.scenarios import SCENARIO_IDS, build_scenario
from tabletamp.twin import TerrainFeature

from tests.test_geometry import drawn_quat, oracle_quats, ref_pose_fields
from tests.test_pins import assert_call_digest
from tests.test_twin import TABLE_H, base_scene, bits, fresh, make_box, rest_every_candidate


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

    def test_repeated_and_interleaved_calls_equal_fresh_calls(self, monkeypatch):
        pool = list(oracle_quats(40, 211))
        halves = [tuple(float(c) for c in np.random.default_rng(s).uniform(0.005, 0.2, 3))
                  for s in range(5)]
        objs = [make_box(half=h) for h in halves]
        rng = np.random.default_rng(223)
        calls = []
        for step, i in enumerate(self.call_sequence(227)):
            q = pool[i]
            which = step % 3 if rng.uniform() < 0.5 else int(rng.integers(3))
            if which == 0:
                call = (unit_quat, q)
            elif which == 1:
                call = (twin._snap_face_down, q)
            else:
                call = (twin._half_height, objs[int(rng.integers(len(objs)))], q)
            calls.append((call, call[0](*call[1:])))
        for (function, *args), result in calls:
            assert bits(fresh(monkeypatch, function, *args)) == bits(result)

    def test_a_repeated_tuple_is_answered_from_the_memo(self):
        q = next(oracle_quats(1, 229))
        assert unit_quat(q) is unit_quat(q)
        assert twin._snap_face_down(q) is twin._snap_face_down(q)

    def test_a_list_mutated_between_calls_is_normalized_again(self, monkeypatch):
        a, b = list(oracle_quats(2, 233))
        obj = make_box(half=(0.03, 0.04, 0.05))
        for function in (unit_quat, twin._snap_face_down,
                         lambda q: twin._half_height(obj, q)):
            q = list(a)
            first = function(q)
            q[:] = b
            second = function(q)
            assert bits(first) == bits(fresh(monkeypatch, function, a))
            assert bits(second) == bits(fresh(monkeypatch, function, b)) != bits(first)

    def test_an_equal_tuple_of_other_zero_signs_is_recomputed(self, monkeypatch):
        q = (1.0, 0.0, 0.0, 0.0)
        flipped = (1.0, -0.0, 0.0, -0.0)
        assert q == flipped
        for function in (unit_quat, twin._snap_face_down):
            first = fresh(monkeypatch, function, q)
            second = function(flipped)
            assert bits(second) == bits(fresh(monkeypatch, function, flipped)) != bits(first)
        # a level orientation is its own snap
        assert twin._snap_face_down(q) is q
        assert twin._snap_face_down(flipped) is flipped

    def test_half_height_keys_on_the_half_extents_too(self, monkeypatch):
        q = next(oracle_quats(1, 239))
        small, large = make_box(half=(0.01, 0.02, 0.03)), make_box(half=(0.1, 0.2, 0.3))
        for obj in (small, large):
            assert (twin._half_height(obj, q).hex()
                    == fresh(monkeypatch, twin._half_height, obj, q).hex())
        assert twin._half_height(large, q) != twin._half_height(small, q)

    def test_an_invalid_input_still_raises_after_a_valid_one(self, monkeypatch):
        q = quat_from_yaw(0.3)
        unit_quat(q)
        with pytest.raises(ValueError, match="not unit norm"):
            unit_quat((2.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="4 components"):
            unit_quat((1.0, 0.0, 0.0))
        assert bits(unit_quat(q)) == bits(fresh(monkeypatch, unit_quat, q))


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
    the episodes of all eight scenarios make, with every sampled candidate
    rested and measured (``rest_every_candidate``), in call order, with each
    call's result, and how many margins found the polygon kept on the
    support answer they were handed."""
    calls = []
    kept = [0]

    def settle(scene, object_id, original=twin.settle):
        result = original(scene, object_id)
        calls.append(("settle", scene, object_id, result))
        return result

    def stability_margin(scene, object_id, original=twin.stability_margin):
        last = twin._last_pieces
        stored = last is not None and "polygon" in vars(last[2])
        result = original(scene, object_id)
        # the memo entry stays the same tuple iff the margin was handed its answer
        kept[0] += stored and twin._last_pieces is last
        calls.append(("margin", scene, object_id, result))
        return result

    monkeypatch.setattr(twin, "settle", settle)
    monkeypatch.setattr(subgoal, "stability_margin", stability_margin)
    rest_every_candidate(monkeypatch, stability_margin)
    for name in SCENARIO_IDS:
        for seed in seeds:
            harness.run_episode(build_scenario(name), seed)
    monkeypatch.undo()
    return calls, kept[0]


class TestKeptSupportPolygon:
    def test_settle_and_margin_on_rehearsal_candidates(self, monkeypatch):
        calls, kept = settle_inputs(monkeypatch)
        assert sum(kind == "margin" for kind, *_ in calls) > 300
        assert kept > 300  # most margins use the polygon settle kept
        function = {"settle": twin.settle, "margin": twin.stability_margin}
        for kind, scene, object_id, result in calls:
            assert bits(fresh(monkeypatch, function[kind], scene, object_id)) == bits(result)
        assert_call_digest("settle_and_margin_in_episodes",
                           [(kind, result) for kind, _, _, result in calls])

    def test_seeded_placements(self, monkeypatch):
        rng = default_rng(257)
        base = make_box("base", half=(0.06, 0.06, 0.03), x=0.02, y=-0.01)
        calls = []
        for _ in range(300):
            half = tuple(rng.uniform(0.01, 0.06, 3))
            x, y = rng.uniform(-0.12, 0.12, 2)
            top = make_box("top", half=half, x=x, y=y, orientation=drawn_quat(rng),
                           z=TABLE_H + 0.06 + max(half) + 0.01)
            scene = base_scene([base, top])
            outcome = twin.settle(scene, "top")
            rested = scene.replace_object(scene.object("top").at_pose(outcome.final_pose))
            calls += [(twin.settle, scene, outcome),
                      (twin.stability_margin, rested, twin.stability_margin(rested, "top"))]
        for function, scene, result in calls:
            assert bits(fresh(monkeypatch, function, scene, "top")) == bits(result)
        assert_call_digest("settle_seeded_placements", [result for *_, result in calls])

    def test_a_face_inside_one_cell_skips_the_hull(self, monkeypatch):
        hulls = []
        original = twin._support_polygon
        monkeypatch.setattr(twin, "_support_polygon",
                            lambda pieces: hulls.append(pieces) or original(pieces))
        scene = base_scene([make_box(x=0.01, y=0.02, yaw=0.4, z=TABLE_H + 0.06)])
        outcome = twin.settle(scene, "box")
        assert hulls == []
        monkeypatch.undo()
        # the 10 cm cube drops 1 cm onto the table, where it stands 5 cm
        # inside each edge of its own face
        pose = outcome.final_pose
        assert outcome.status == "stable"
        assert (pose.x, pose.y) == (0.01, 0.02)
        assert pose.z == pytest.approx(TABLE_H + 0.05, abs=1e-12)
        assert geodesic_angle(pose.orientation, quat_from_yaw(0.4)) < 1e-6
        rested = scene.replace_object(scene.object("box").at_pose(pose))
        assert twin.stability_margin(rested, "box") == pytest.approx(0.05, abs=1e-12)


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


class TestExecPushReuse:
    @staticmethod
    def log_steps(monkeypatch):
        """Wrap exec_push's apply_push: each step's contact, direction and
        length, and whether it handed back the same object."""
        steps = []

        def logged(scene, object_id, contact, direction, step, original=twin.apply_push):
            out, delta = original(scene, object_id, contact, direction, step)
            steps.append((contact, direction, step,
                          out.object(object_id) is scene.object(object_id)))
            return out, delta

        monkeypatch.setattr(control, "apply_push", logged)
        return steps

    @staticmethod
    def push(steps, scene, object_id, goal):
        """exec_push's steps, trace and scene."""
        steps.clear()
        out, trace = control.exec_push(scene, object_id, goal)
        return list(steps), trace, out

    def test_pushes_on_twin_and_execution_scenes_are_pinned(self, monkeypatch):
        calls = push_inputs(monkeypatch)
        assert {o for _, o, _ in calls} >= {"box", "card"}
        steps = self.log_steps(monkeypatch)
        pushes = [self.push(steps, s, object_id, goal)
                  for scene, object_id, goal in calls for s in (scene, scene.as_twin())]
        # the reuse on a stalled step is exercised
        assert sum(stalled for push_steps, _, _ in pushes for *_, stalled in push_steps) > 50
        assert_call_digest("exec_push_in_episodes", pushes)

    @pytest.mark.parametrize("goal_x, key", [(0.2, "exec_push_into_a_wall_capped_step"),
                                             (0.055, "exec_push_into_a_wall_pd_step")],
                             ids=["capped-step", "pd-step"])
    def test_push_pinned_against_a_wall_times_out(self, monkeypatch, goal_x, key):
        # pinned 1.5 cm short of the goal, the step length is the PD term,
        # under the step cap: the first step that hands back the same object
        # carries the last move's derivative, every later one a zero one
        wall = TerrainFeature("wall", rect_polygon(0.1, 0.0, 0.01, 0.2), TABLE_H,
                              {"height": 0.05}, name="rail")
        scene = base_scene([make_box(x=0.01, y=0.003)], terrain_extra=[wall],
                           role="execution")
        goal = Pose6D((goal_x, 0.003, TABLE_H + 0.05), quat_from_yaw(0.0))
        push_steps, trace, out = self.push(self.log_steps(monkeypatch), scene, "box", goal)
        lengths = [step for _, _, step, stalled in push_steps if stalled]
        assert len(lengths) == _STALL_ITERS
        assert len(set(lengths[1:])) == 1
        assert (lengths[0] != lengths[1]) == (goal_x < 0.1)
        assert trace.result.kind is ErrorKind.CONVERGENCE_TIMEOUT
        assert_call_digest(key, (push_steps, trace, out))

    def test_yaw_contacts_are_pinned(self):
        rng = default_rng(263)
        contacts = []
        for _ in range(200):
            obj = make_box(half=tuple(rng.uniform(0.01, 0.1, 3)),
                           x=rng.uniform(-0.2, 0.2), y=rng.uniform(-0.2, 0.2),
                           yaw=rng.uniform(-math.pi, math.pi))
            remaining = rng.uniform(-math.pi, math.pi)
            to_goal = tuple(rng.uniform(-0.1, 0.1, 2))
            contacts.append(control._yaw_contact(obj, remaining, to_goal))
        assert_call_digest("yaw_contact", contacts)
