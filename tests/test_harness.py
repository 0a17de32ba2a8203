import json
import math

import numpy as np
import pytest

from tabletamp.geometry import Pose6D, quat_from_axis_angle, quat_from_yaw
from tabletamp.harness import (
    REPLAN_BUDGET,
    benchmark_csv,
    check_success,
    episode_trace_json,
    observe,
    randomize,
    randomized_goal,
    run_benchmark,
    run_episode,
)
from tabletamp.scenarios import SCENARIO_IDS, Goal, build_scenario
from tabletamp.twin import settle

from tests.test_pins import PINS, assert_pinned


class TestRandomize:
    def test_deterministic(self):
        sc = build_scenario("edge")
        a = randomize(sc, 3)
        b = randomize(sc, 3)
        assert a.object("card").pose == b.object("card").pose

    def test_jitter_ranges_approximately_uniform(self):
        # oracle: empirical jitter must stay inside +-5 cm / +-30 deg and
        # spread across the range rather than clumping
        sc = build_scenario("wall")
        nominal = sc.scene_template.object("card").pose
        n = 1000
        dxs, dyaws = [], []
        for seed in range(n):
            scene = randomize(sc, seed)
            pose = scene.object("card").pose
            dxs.append(pose.x - nominal.x)
            dyaws.append(math.degrees(pose.yaw - nominal.yaw))
        assert max(abs(d) for d in dxs) <= 0.05 + 1e-9
        assert max(abs(d) for d in dyaws) <= 30.0 + 1e-9
        # KS-style sanity check against the uniform CDF
        for values, half in ((dxs, 0.05), (dyaws, 30.0)):
            xs = np.sort(values)
            cdf = (xs + half) / (2 * half)
            emp = np.arange(1, n + 1) / n
            ks = np.max(np.abs(emp - cdf))
            assert ks < 1.63 / math.sqrt(n)  # ~1% significance bound

    def test_box_alternates_standing_and_lying(self):
        sc = build_scenario("box")
        standing = 0
        for seed in range(10):
            scene = randomize(sc, seed)
            box = scene.object("box").world_obb()
            height = box.top_z() - box.bottom_z()
            if height > 0.10:  # long axis up
                standing += 1
        assert standing == 5

    def test_goal_randomized_and_deterministic(self):
        sc = build_scenario("edge")
        g1 = randomized_goal(sc, 4)
        g2 = randomized_goal(sc, 4)
        g3 = randomized_goal(sc, 5)
        assert g1.target == g2.target
        assert g1.target != g3.target

    def test_goal_pose_is_stable(self):
        for sid in ("box", "book", "edge", "wall"):
            sc = build_scenario(sid)
            for seed in range(5):
                goal = randomized_goal(sc, seed)
                scene = sc.scene_template.as_twin()
                from tabletamp.twin import place_at

                placed = place_at(scene, sc.primary_object, goal.target)
                assert settle(placed, sc.primary_object).status == "stable"


class TestCheckSuccess:
    def scene_with_box_at(self, x, y, yaw_deg=0.0, axis=None, angle_extra_deg=0.0):
        sc = build_scenario("box")
        scene = sc.scene_template
        q = quat_from_yaw(math.radians(yaw_deg))
        if axis is not None:
            q_extra = quat_from_axis_angle(axis, math.radians(angle_extra_deg))
            from tabletamp.geometry import quat_mul

            q = quat_mul(q_extra, q)
        obj = scene.object("box")
        return scene.replace_object(
            obj.at_pose(Pose6D((x, y, obj.pose.z), q))
        )

    def test_boundaries_strict(self):
        goal = Goal("pose", target=Pose6D((0.0, 0.0, 0.445), quat_from_yaw(0.0)))
        inside = self.scene_with_box_at(0.0299, 0.0)
        assert check_success(inside, goal, "box")
        outside = self.scene_with_box_at(0.0301, 0.0)
        assert not check_success(outside, goal, "box")
        yaw_in = self.scene_with_box_at(0.0, 0.0, yaw_deg=9.99)
        assert check_success(yaw_in, goal, "box")
        yaw_out = self.scene_with_box_at(0.0, 0.0, yaw_deg=10.01)
        assert not check_success(yaw_out, goal, "box")

    def test_combined_boundary(self):
        goal = Goal("pose", target=Pose6D((0.0, 0.0, 0.445), quat_from_yaw(0.0)))
        both_in = self.scene_with_box_at(0.029, 0.0, yaw_deg=9.0)
        assert check_success(both_in, goal, "box")

    def test_region_goal_needs_com_inside_and_stable(self):
        sc = build_scenario("tool_hook")
        goal = randomized_goal(sc, 0)
        scene = randomize(sc, 0)
        assert not check_success(scene, goal, "puck")  # starts far away
        cx, cy = goal.zone.centroid
        puck = scene.object("puck")
        moved = scene.replace_object(
            puck.at_pose(Pose6D((cx, cy, puck.pose.z), puck.pose.orientation))
        )
        assert check_success(moved, goal, "puck")


class TestRunEpisode:
    def test_edge_full_mode_uses_reflection(self):
        r = run_episode(build_scenario("edge"), 0)
        assert r.success
        assert r.replans_used >= 1
        assert len(r.attempts) == r.replans_used + 1
        # the naive grasp fails first, matching the task feature
        first = r.attempts[0]["outcomes"][0]
        assert first["error"]["kind"] == "NoGraspFound"

    def test_edge_no_reflection_fails(self):
        r = run_episode(build_scenario("edge"), 0, ablation="no_reflection")
        assert not r.success
        assert r.replans_used == 0
        assert len(r.attempts) == 1

    def test_box_direct_plan_zero_replans(self):
        r = run_episode(build_scenario("box"), 1)  # odd seed: lying start
        assert r.success
        assert r.replans_used == 0

    def test_budget_respected(self):
        for sid in ("edge", "wall", "slot"):
            for seed in range(3):
                r = run_episode(build_scenario(sid), seed)
                assert r.replans_used <= REPLAN_BUDGET
                assert len(r.attempts) == r.replans_used + 1

    def test_verdict_rederived_from_final_scene(self):
        r = run_episode(build_scenario("wall"), 2)
        assert r.final_scene is not None
        assert r.success == check_success(r.final_scene, r.goal, "card")

    def test_trace_is_json(self):
        r = run_episode(build_scenario("tool_pusher"), 0)
        doc = json.loads(episode_trace_json(r))
        assert doc["scenario_id"] == "tool_pusher"
        assert isinstance(doc["attempts"], list)

    @pytest.mark.parametrize("name, ablation, expected", [
        (case["scenario"], case["ablation"], case["snapshots"]) for case in PINS["snapshot_ids"]
    ])
    def test_snapshot_ids_run_on_across_revisions(self, name, ablation, expected):
        # a step that made no snapshot has None; the others number the
        # episode's snapshots consecutively, through every plan revision
        r = run_episode(build_scenario(name), 0, ablation=ablation)
        assert r.replans_used >= 1
        got = [o["snapshots"] for a in r.attempts for o in a["outcomes"]]
        assert_pinned(f"snapshot_ids ({name}, {ablation}) snapshots", got, expected)


class TestHeldOutSeeds:
    def test_only_the_pinned_episodes_fail(self):
        failed, raised = set(), []
        for sid in SCENARIO_IDS:
            sc = build_scenario(sid)
            for seed in range(10, 40):
                try:
                    result = run_episode(sc, seed)
                except Exception as exc:
                    raised.append((sid, seed, repr(exc)))
                    continue
                if not result.success:
                    failed.add((sid, seed))
        assert raised == []
        # the benchmark runs seeds 0-9; the pin lists the held-out failures
        assert_pinned("held_out_failures", sorted(map(list, failed)),
                      PINS["held_out_failures"])

    def test_book_seeds_with_ulp_apart_footprint_corners_run(self):
        # a grasp probe's footprint hull lost its corners to float rounding
        # on each of these seeds, which raised "polygon needs at least 3
        # vertices" out of run_episode
        sc = build_scenario("book")
        for seed in (45, 49, 50, 64, 112, 154, 155, 199):
            run_episode(sc, seed)


class TestRunBenchmark:
    def test_shape_and_determinism(self):
        scenarios = [build_scenario("box"), build_scenario("tool_pusher")]
        rows1, res1 = run_benchmark(scenarios, 3)
        rows2, res2 = run_benchmark(scenarios, 3)
        assert len(rows1) == 2
        assert all(r.trials == 3 for r in rows1)
        csv1 = benchmark_csv(rows1)
        csv2 = benchmark_csv(rows2)

        def strip_wall(text):
            return "\n".join(",".join(line.split(",")[:4])
                             for line in text.splitlines())

        assert strip_wall(csv1) == strip_wall(csv2)
        t1 = [json.loads(episode_trace_json(r)) for r in res1]
        t2 = [json.loads(episode_trace_json(r)) for r in res2]
        for a, b in zip(t1, t2):
            a.pop("wall_ms")
            b.pop("wall_ms")
            assert a == b

    def test_csv_format(self):
        rows, _ = run_benchmark([build_scenario("box")], 2)
        text = benchmark_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "task,trials,successes,mean_replans,mean_wall_ms"
        assert lines[1].startswith("box,2,")


class TestObservation:
    def test_summary_fields(self):
        sc = build_scenario("tool_hook")
        scene = randomize(sc, 0)
        goal = randomized_goal(sc, 0)
        obs = observe(scene, goal, sc)
        assert obs.rendering.startswith("<svg")
        objs = obs.summary["objects"]
        assert objs["hook"]["is_tool"] and not objs["puck"]["is_tool"]
        assert objs["puck"]["on_feature"] == "table_surface"
        assert obs.summary["goal"]["kind"] == "region"
        state = obs.symbolic_state()
        assert state.gripper_free
        assert state.objects["hook"].is_tool
