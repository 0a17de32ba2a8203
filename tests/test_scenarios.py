"""Scenario preconditions: every task's defining feature holds at spawn for
all benchmark seeds, so the naive plan must fail for the intended reason."""

import json
import math

import pytest

from tabletamp.control import assess_grasp, exec_grasp
from tabletamp.geometry import geodesic_angle
from tabletamp.harness import episode_trace_json, randomize, randomized_goal, run_episode
from tabletamp.scenarios import (
    SCENARIO_IDS,
    all_scenarios,
    build_scenario,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from tabletamp.twin import REACH_MAX, ROBOT_BASE

SEEDS = range(10)


class TestSpawnFeatures:
    def test_card_tasks_spawn_ungraspable(self):
        for sid in ("edge", "wall", "slope", "slot"):
            sc = build_scenario(sid)
            for seed in SEEDS:
                scene = randomize(sc, seed)
                a = assess_grasp(scene, "card")
                assert not a.ok, f"{sid} seed {seed}: card graspable at spawn"

    def test_box_spawns_too_wide_in_both_states(self):
        sc = build_scenario("box")
        for seed in SEEDS:
            scene = randomize(sc, seed)
            a = assess_grasp(scene, "box")
            assert not a.ok, f"box seed {seed}: graspable at spawn"

    def test_book_naive_grasp_blocked_by_ceiling(self):
        sc = build_scenario("book")
        for seed in SEEDS:
            scene = randomize(sc, seed)
            _, trace = exec_grasp(scene, "book")
            assert not trace.ok
            assert trace.result.kind.value == "Collision", (
                f"book seed {seed}: expected a blocked approach, "
                f"got {trace.result.kind}"
            )

    def test_hook_puck_spawns_out_of_reach(self):
        sc = build_scenario("tool_hook")
        for seed in SEEDS:
            scene = randomize(sc, seed)
            puck = scene.object("puck")
            d = math.hypot(puck.pose.x - ROBOT_BASE[0], puck.pose.y - ROBOT_BASE[1])
            assert d > REACH_MAX, f"tool_hook seed {seed}: reachable"

    def test_pusher_zone_spawns_out_of_reach(self):
        sc = build_scenario("tool_pusher")
        for seed in SEEDS:
            goal = randomized_goal(sc, seed)
            scene = randomize(sc, seed)
            cx, cy = goal.zone.centroid
            d = math.hypot(cx - ROBOT_BASE[0], cy - ROBOT_BASE[1])
            assert d > REACH_MAX, f"tool_pusher seed {seed}: reachable"

    def test_tools_spawn_graspable(self):
        for sid, tool in (("tool_hook", "hook"), ("tool_pusher", "pusher")):
            scene = randomize(build_scenario(sid), 0)
            assert assess_grasp(scene, tool).ok, f"{tool} must be graspable"


class TestScenarioDefinitions:
    def test_eight_scenarios(self):
        assert len(SCENARIO_IDS) == 8
        assert len(all_scenarios()) == 8

    def test_fallbacks_start_naive_and_are_nonempty(self):
        for sc in all_scenarios():
            assert sc.fallback_templates

    def test_dict_round_trip(self):
        for sc in all_scenarios():
            data = scenario_to_dict(sc)
            # the push model, the robot and the friction are the twin's
            # own, so no file carries them
            assert not ({"push_model", "dynamics_perturbation", "robot"}
                        & data["scene"].keys())
            assert not any("friction" in o for o in data["scene"]["objects"])
            back = scenario_from_dict(data)
            assert back.id == sc.id
            assert back.primary_object == sc.primary_object
            assert scenario_to_dict(back) == data

    @pytest.mark.parametrize("sid", SCENARIO_IDS)
    def test_file_replays_its_built_in_scenario(self, tmp_path, sid):
        # a scenario written to a file and read back gives the built-in
        # episode, apart from the wall time
        path = tmp_path / f"{sid}.json"
        dump_scenario(build_scenario(sid), str(path))

        def trace(scenario):
            doc = json.loads(episode_trace_json(run_episode(scenario, 0)))
            doc.pop("wall_ms")
            return doc

        assert trace(load_scenario(str(path))) == trace(build_scenario(sid))

    def test_goal_orientation_matches_book_flip_class(self):
        # the book goal must be reachable by one forward flip plus yaw
        sc = build_scenario("book")
        scene = randomize(sc, 0)
        goal = randomized_goal(sc, 0)
        from tabletamp.geometry import yaw_free_angle
        from tabletamp.subgoal import _rotate_candidates

        twin = scene.as_twin()
        gaps = [
            yaw_free_angle(c.orientation, goal.target.orientation)
            for c in _rotate_candidates(twin, "book")
        ]
        assert min(gaps) < 5.0
