import collections
import hashlib
import json
import math
import random
import sys

import pytest

from tabletamp.cli import main

from tests.test_pins import PINS, assert_pinned


class TestCmdRun:
    def test_success_exit_zero_and_trace_written(self, tmp_path):
        code = main(["run", "--scenario", "edge", "--seed", "0",
                     "--out", str(tmp_path)])
        assert code == 0
        trace = json.loads((tmp_path / "edge_seed0.json").read_text())
        assert trace["success"] is True

    def test_no_reflection_ablation_fails_with_exit_one(self, tmp_path):
        code = main(["run", "--scenario", "edge", "--seed", "0",
                     "--ablation", "no_reflection", "--out", str(tmp_path)])
        assert code == 1

    def test_missing_scenario_file_exit_two(self, tmp_path, capsys):
        code = main(["run", "--scenario", "nope.json", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("command", [
        ["run", "--scenario", "{dir}", "--out", "{dir}/out"],
        ["validate", "--scenario", "box", "--skeleton", "{dir}"],
    ], ids=["scenario", "skeleton"])
    def test_directory_argument_exit_two(self, tmp_path, capsys, command):
        code = main([arg.format(dir=tmp_path) for arg in command])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err

    def test_render_writes_svg(self, tmp_path):
        # one picture per kept candidate of each rehearsed step, and the
        # final frame
        code = main(["run", "--scenario", "box", "--seed", "0", "--render",
                     "--out", str(tmp_path)])
        assert code == 0
        trace = json.loads((tmp_path / "box_seed0.json").read_text())
        kept = sum(o["candidates"] or 0 for a in trace["attempts"] for o in a["outcomes"])
        assert kept > 0
        assert len(list((tmp_path / "box_seed0").glob("*/cand_*.svg"))) == kept
        assert (tmp_path / "box_seed0_final.svg").is_file()

    def test_render_pictures_are_pinned(self, tmp_path):
        # the candidate sets of rev1 step 0 and rev2 steps 0, 1 and 3, and
        # the final frame, hashed as sha256 over each file's path under
        # --out, a NUL byte and its bytes, in path order; measured with
        # Python 3.11.7 and numpy 2.4.6
        main(["run", "--scenario", "book", "--seed", "0", "--render",
              "--out", str(tmp_path)])
        paths = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.svg"))
        assert len(paths) == 15
        digest = hashlib.sha256()
        for rel in paths:
            digest.update(rel.encode() + b"\0" + (tmp_path / rel).read_bytes())
        assert_pinned("render_sha256", digest.hexdigest(), PINS["render_sha256"])

    def test_scenario_file_round_trip(self, tmp_path):
        code = main(["export", "--out", str(tmp_path / "defs")])
        assert code == 0
        code = main(["run", "--scenario", str(tmp_path / "defs" / "box.json"),
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 0

    def test_outputs_confined_to_out_dir(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "results"
        main(["run", "--scenario", "box", "--seed", "1", "--render",
              "--out", str(out)])
        assert not list(workdir.iterdir())
        assert list(out.iterdir())


class TestCmdBench:
    def test_csv_shape(self, tmp_path, capsys):
        code = main(["bench", "--trials", "1", "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "benchmark.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "task,trials,successes,mean_replans,mean_wall_ms"
        assert len(lines) == 1 + 8

    def test_subset_and_traces(self, tmp_path):
        code = main(["bench", "--trials", "2", "--scenarios", "box",
                     "tool_pusher", "--traces", "--out", str(tmp_path)])
        assert code == 0
        traces = list((tmp_path / "traces").glob("*.json"))
        assert len(traces) == 4

    def test_repeated_scenario_exit_two(self, tmp_path, capsys):
        main(["export", "--out", str(tmp_path / "defs")])
        capsys.readouterr()
        for repeat in (["box", "box"], ["box", str(tmp_path / "defs" / "box.json")]):
            out = tmp_path / "bench"
            code = main(["bench", "--trials", "1", "--scenarios", *repeat,
                         "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err.strip()
            assert err.startswith("error: ") and "\n" not in err
            assert "'box'" in err
            assert not out.exists()

    def test_repeat_identical_modulo_walltime(self, tmp_path):
        main(["bench", "--trials", "2", "--scenarios", "box",
              "--out", str(tmp_path / "a")])
        main(["bench", "--trials", "2", "--scenarios", "box",
              "--out", str(tmp_path / "b")])

        def strip(p):
            return [
                ",".join(line.split(",")[:4])
                for line in (p / "benchmark.csv").read_text().splitlines()
            ]

        assert strip(tmp_path / "a") == strip(tmp_path / "b")


def one_push(data):
    data["fallback_plans"] = [[{"kind": "push", "object_id": "box",
                                "region": "target_zone"}]]
    del data["special"]["initial_states"]


def push_then_rotate(data):
    # the rotate makes run pick the push's sub-goal by least yaw work
    data["fallback_plans"] = [[
        {"kind": "push", "object_id": "card", "region": "slot_lip"},
        {"kind": "rotate", "object_id": "card", "region": "slot_lip"},
    ]]


class TestCmdSample:
    @pytest.mark.parametrize("command", ["run", "sample"])
    def test_unavailable_planner_exit_one(self, tmp_path, capsys, stub_server, command):
        # the stub has no replies queued, so no reply holds a skeleton
        argv = [command, "--scenario", "edge", "--seed", "0", "--planner", "http",
                "--endpoint", stub_server[0], "--max-retries", "0",
                "--out", str(tmp_path)]
        code = main(argv + (["--step", "1"] if command == "sample" else []))
        assert code == 1
        if command == "sample":
            err = capsys.readouterr().err.strip()
            assert err.startswith("error: no usable skeleton") and "\n" not in err

    def test_draws_only_the_kept_candidates(self, tmp_path, monkeypatch):
        from tabletamp.render import render_scene

        drawn = []

        def counted(*args, **kwargs):
            drawn.append(args[0])
            return render_scene(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.startswith("tabletamp")
                    and getattr(module, "render_scene", None) is render_scene):
                monkeypatch.setattr(module, "render_scene", counted)
        code = main(["sample", "--scenario", "box", "--seed", "0",
                     "--step", "1", "--out", str(tmp_path)])
        assert code == 0
        assert len(json.loads((tmp_path / "candidates.json").read_text())) == 4
        assert len(drawn) == 4

    def test_push_step_emits_candidates(self, tmp_path):
        # edge plan attempt 0 is grasp-first; wall fallback 0 likewise, so
        # use box whose first plan starts with a rotate
        code = main(["sample", "--scenario", "box", "--seed", "1",
                     "--step", "1", "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "candidates.json").read_text())
        assert 1 <= len(manifest) <= 4
        for entry in manifest:
            assert (tmp_path / entry["rendering"]).exists()

    @pytest.mark.parametrize("scenario, edit, seed, step", [
        pytest.param("box", one_push, 1, 0, id="one-push-seed1"),
        pytest.param("box", one_push, 2, 0, id="one-push-seed2"),
        pytest.param("box", None, 0, 0, id="box-seed0-step0"),
        *(pytest.param("box", None, seed, 1, id=f"box-seed{seed}-step1")
          for seed in range(4)),
        *(pytest.param("tool_pusher", None, seed, 1, id=f"tool_pusher-seed{seed}-step1")
          for seed in range(2)),
        pytest.param("slot", push_then_rotate, 0, 1, id="push-rotate-seed0-step1"),
    ])
    def test_candidates_hold_the_run_subgoal(self, tmp_path, scenario, edit, seed, step):
        # sample rehearses a step of the first plan as run does: with run's
        # seed for that step, in the scene that run's earlier steps leave,
        # so the sub-goal run picks is among the candidates sample writes
        from tabletamp.scenarios import build_scenario, scenario_to_dict

        if edit is not None:
            data = scenario_to_dict(build_scenario(scenario))
            edit(data)
            path = tmp_path / "edited.json"
            path.write_text(json.dumps(data))
            scenario = str(path)
        assert main(["run", "--scenario", scenario, "--seed", str(seed),
                     "--out", str(tmp_path / "run")]) in (0, 1)
        (trace_path,) = (tmp_path / "run").glob("*.json")
        outcome = json.loads(trace_path.read_text())["attempts"][0]["outcomes"][step]
        assert main(["sample", "--scenario", scenario, "--seed", str(seed),
                     "--step", str(step), "--out", str(tmp_path / "sample")]) == 0
        manifest = json.loads((tmp_path / "sample" / "candidates.json").read_text())
        assert outcome["subgoal"] in [c["xyz"] + c["quat_wxyz"] for c in manifest]

    def test_step_after_a_failed_step_exit_one(self, tmp_path, capsys):
        # edge's first plan fails its step-0 grasp of the flat card, so run
        # never rehearses step 1 and sample writes no candidates for it
        code = main(["sample", "--scenario", "edge", "--seed", "0",
                     "--step", "1", "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err
        assert "grasp(card)" in err
        assert not (tmp_path / "out").exists()

    def test_grasp_step_is_usage_error(self, tmp_path):
        code = main(["sample", "--scenario", "edge", "--seed", "0",
                     "--step", "0", "--out", str(tmp_path)])
        assert code == 2

    def test_no_feasible_pose_exit_three(self, tmp_path):
        # a custom scenario whose goal zone floats over the void
        from tabletamp.scenarios import build_scenario, scenario_to_dict

        data = scenario_to_dict(build_scenario("tool_pusher"))
        data["goal"]["zone"] = [[0.9, 0.9], [1.1, 0.9], [1.1, 1.1], [0.9, 1.1]]
        bad = tmp_path / "void.json"
        bad.write_text(json.dumps(data))
        code = main(["sample", "--scenario", str(bad), "--seed", "0",
                     "--step", "1", "--out", str(tmp_path)])
        assert code == 3


class TestCmdValidate:
    def good_skeleton(self, tmp_path):
        doc = {
            "steps": [
                {"kind": "push", "object_id": "card",
                 "region": {"name": "table_edge_nearest"}},
                {"kind": "grasp", "object_id": "card"},
                {"kind": "moveto", "object_id": "card",
                 "region": {"name": "target_zone"}},
                {"kind": "release", "object_id": "card"},
            ]
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        return path

    def test_valid_plan_ok(self, tmp_path, capsys):
        path = self.good_skeleton(tmp_path)
        code = main(["validate", "--scenario", "edge", "--skeleton", str(path)])
        assert code == 0
        assert capsys.readouterr().out == "ok\n"

    def test_moveto_first_violation(self, tmp_path, capsys):
        doc = {"steps": [{"kind": "moveto", "object_id": "card",
                          "region": {"name": "target_zone"}}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["validate", "--scenario", "edge", "--skeleton", str(path)])
        assert code == 1
        assert capsys.readouterr().out == "step 0: held(card)\n"

    def test_second_grasp_is_a_violation(self, tmp_path, capsys):
        doc = {"steps": [{"kind": "grasp", "object_id": "puck"},
                         {"kind": "grasp", "object_id": "hook"}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["validate", "--scenario", "tool_hook", "--skeleton", str(path)])
        assert code == 1
        assert capsys.readouterr().out == "step 1: gripper_free\n"

    def test_unknown_primitive_exit_two(self, tmp_path):
        doc = {"steps": [{"kind": "slide", "object_id": "card"}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["validate", "--scenario", "edge", "--skeleton", str(path)])
        assert code == 2

    def test_string_hint_is_parse_error(self, tmp_path, capsys):
        # a string is not read as a position digit by digit
        doc = {"steps": [{"kind": "push", "object_id": "card",
                          "target_pose_hint": {"xyz": "123"}}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["validate", "--scenario", "edge", "--skeleton", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == (
            "parse error: $.steps[0].target_pose_hint.xyz: 'xyz' must be a list of "
            "3 numbers (got '123')")

    def test_grasp_with_a_region_is_parse_error(self, tmp_path, capsys):
        doc = {"steps": [{"kind": "grasp", "object_id": "box",
                          "region": {"name": "nowhere"},
                          "target_pose_hint": {"xyz": [9, 9, 9]}}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["validate", "--scenario", "box", "--skeleton", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == (
            "parse error: $.steps[0]: grasp takes no region or target pose hint")

    def test_out_is_usage_error(self, tmp_path):
        # validate writes nothing, so it takes no output directory
        path = self.good_skeleton(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--scenario", "edge", "--skeleton", str(path),
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()


def _empty_object_id(data):
    # the object, the primary object and every step name the same empty id
    data["primary_object"] = data["scene"]["objects"][0]["id"] = ""
    for plan in data["fallback_plans"]:
        for step in plan:
            step["object_id"] = ""


def _untargeted_step(data):
    for key in ("region", "hint"):
        del data["fallback_plans"][0][0][key]


def _goal_hint_with_region_goal(data):
    # tool_hook's goal is a region, so a goal hint binds no pose
    from tabletamp.scenarios import build_scenario, scenario_to_dict

    data = scenario_to_dict(build_scenario("tool_hook"))
    data["fallback_plans"][0][1] = {"kind": "moveto", "object_id": "puck", "hint": "goal"}
    return data


def _grasp_with_region(data):
    data["fallback_plans"][0][0]["region"] = "target_zone"


def _release_with_goal_hint(data):
    data["fallback_plans"][0][2]["hint"] = "goal"


class TestScenarioFileSteps:
    @pytest.mark.parametrize("edit, message", [
        (_grasp_with_region, "fallback plan 0 step 0: grasp takes no region or hint"),
        (_release_with_goal_hint, "fallback plan 0 step 2: release takes no region or hint"),
    ], ids=["grasp-region", "release-hint"])
    def test_targeted_grasp_or_release_is_input_error(self, tmp_path, capsys, edit,
                                                      message):
        from tabletamp.scenarios import build_scenario, scenario_to_dict

        data = scenario_to_dict(build_scenario("edge"))
        edit(data)
        bad = tmp_path / "targeted.json"
        bad.write_text(json.dumps(data))
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"


    def test_unresolvable_region_is_input_error(self, tmp_path, capsys):
        # renaming the table leaves table_edge_nearest nothing to resolve
        from tabletamp.scenarios import build_scenario, scenario_to_dict

        data = scenario_to_dict(build_scenario("edge"))
        for feature in data["scene"]["terrain"]:
            if feature["name"] == "table":
                feature["name"] = "desk"
        bad = tmp_path / "desk.json"
        bad.write_text(json.dumps(data))
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: fallback plan ")
        assert "'table_edge_nearest'" in err
        assert "\n" not in err

    @pytest.mark.parametrize("key, value, message", [
        ("region", "moon", "unknown region 'moon'"),
        ("kind", "slide", "unknown primitive 'slide'"),
        ("hint", "elsewhere", "unknown hint binding 'elsewhere'"),
        ("region", ["moon"], "unknown region ['moon']"),
        ("kind", ["push"], "unknown primitive ['push']"),
        ("object_id", [1], "no object [1] in the scene"),
    ], ids=["region", "kind", "hint", "region-list", "kind-list", "object-list"])
    def test_unknown_step_field_is_input_error(self, tmp_path, capsys, key, value,
                                               message):
        from tabletamp.scenarios import build_scenario, scenario_to_dict

        data = scenario_to_dict(build_scenario("box"))
        data["fallback_plans"][0][0][key] = value
        bad = tmp_path / "bad_step.json"
        bad.write_text(json.dumps(data))
        code = main(["run", "--scenario", str(bad), "--ablation", "no_pose",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: fallback plan 0 step 0: {message}"

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(primary_object="nope"),
         "primary object 'nope' is not in the scene"),
        (lambda d: d.update(fallback_plans=[]),
         "fallback_plans needs at least one plan"),
        (lambda d: d["fallback_plans"].insert(1, []),
         "fallback plan 1 has no steps"),
        (lambda d: d["fallback_plans"][0][0].update(object_id="nope"),
         "fallback plan 0 step 0: no object 'nope' in the scene"),
        (lambda d: d["randomization"].update(pos_jitter=-0.01),
         "pos_jitter must be a number >= 0 (got -0.01)"),
        (lambda d: d["randomization"].update(yaw_jitter_deg=-5.0),
         "yaw_jitter_deg must be a number >= 0 (got -5.0)"),
        (lambda d: d["special"].update(goal_jitter="0.01"),
         "goal_jitter must be a number >= 0 (got '0.01')"),
        (lambda d: d.update(fallback_plans=5),
         "fallback_plans must be a list of plans (got 5)"),
        (lambda d: d["fallback_plans"].append("push"),
         "fallback plan 2 must be a list of steps (got 'push')"),
        (lambda d: d.update(fallback_plans=[["push"]]),
         "fallback plan 0 step 0 must be an object (got 'push')"),
        (lambda d: [], "a scenario file must be an object (got [])"),
        (lambda d: d.update(goal=5), "goal must be an object (got 5)"),
        (lambda d: d.update(goal={"kind": "pose", "target": 5}),
         "goal target must be an object (got 5)"),
        (lambda d: d.update(scene=5), "scene must be an object (got 5)"),
        (lambda d: d.update(randomization=5), "randomization must be an object (got 5)"),
        (lambda d: d.update(special=5), "special must be an object (got 5)"),
        (lambda d: d.update(goal={"kind": "pose", "target": {
            "xyz": 5, "quat_wxyz": [1.0, 0.0, 0.0, 0.0]}}),
         "goal target xyz must be a list of 3 numbers (got 5)"),
        (lambda d: d["scene"].update(terrain=5), "scene terrain must be a list (got 5)"),
        (lambda d: d["scene"].update(objects=5), "scene objects must be a list (got 5)"),
        (lambda d: d["scene"].update(robot=5), "scene has unknown key 'robot'"),
        (lambda d: d["scene"].update(push_model=5), "scene has unknown key 'push_model'"),
        (lambda d: d["scene"]["terrain"][0].update(footprint=5),
         "terrain 0 footprint must be a list of [x, y] points (got 5)"),
        (lambda d: d["scene"]["objects"][0].update(pose=5),
         "object 0 pose must be an object (got 5)"),
        (lambda d: d["scene"]["objects"][0].update(shape=5),
         "object 0 shape must be an object (got 5)"),
        (lambda d: d["scene"]["terrain"][0].update(height="0.4"),
         "terrain 0 height must be a number (got '0.4')"),
        (lambda d: d["randomization"].update(pos_jitter=True),
         "pos_jitter must be a number >= 0 (got True)"),
        (lambda d: d["randomization"].update(yaw_jitter_deg=True),
         "yaw_jitter_deg must be a number >= 0 (got True)"),
        (lambda d: d["scene"]["terrain"][0].update(kind="wall", extra={"height": "x"}),
         "terrain 0 extra height must be a number (got 'x')"),
        (lambda d: d["scene"]["terrain"][0].update(kind="slope", extra={"downhill": "south"}),
         "terrain 0 extra downhill must be a list of 2 numbers (got 'south')"),
        (lambda d: d["scene"]["terrain"][0].update(name=5),
         "terrain 0 name must be a string (got 5)"),
        (lambda d: d["scene"]["objects"][0].update(id=[1]),
         "object 0 id must be a string (got [1])"),
        (lambda d: d.update(id=5), "id must be a string (got 5)"),
        (lambda d: d.update(instruction=5), "instruction must be a string (got 5)"),
        (lambda d: d.update(primary_object=["box"]),
         "primary_object must be a string (got ['box'])"),
        (lambda d: d["goal"].update(kind=["pose"]), "unknown goal kind ['pose']"),
        (lambda d: d["special"].update(initial_states=5),
         "initial_states must be a list of 'standing' or 'lying' (got 5)"),
        (lambda d: d["scene"]["terrain"][0].__delitem__("kind"),
         "terrain 0 is missing key 'kind'"),
        (lambda d: d.__delitem__("instruction"),
         "a scenario file is missing key 'instruction'"),
        (lambda d: d["special"].update(goal_jiter=0.5), "special has unknown key 'goal_jiter'"),
        (lambda d: d["scene"]["objects"][0]["shape"].update(offset_xyz=[0.03, 0, 0]),
         "object 0 shape has unknown key 'offset_xyz'"),
        (lambda d: d["scene"]["objects"][0]["shape"].update(half_extents=[0.06, 0, 0.045]),
         "object 'box' half extents must be 3 positive numbers, got (0.06, 0.0, 0.045)"),
        # Python's json reads NaN, Infinity and integers too large for a float
        (lambda d: d["goal"]["target"].update(quat_wxyz=[math.nan, 0, 0, 0]),
         "goal target quat_wxyz must be a list of 4 numbers (got [nan, 0, 0, 0])"),
        (lambda d: d["randomization"].update(pos_jitter=math.inf),
         "pos_jitter must be a number >= 0 (got inf)"),
        (lambda d: d["scene"]["terrain"][1].update(height=math.nan),
         "terrain 1 height must be a number (got nan)"),
        (lambda d: d["scene"]["objects"][0]["pose"].update(xyz=[0.0, 10 ** 400, 0.445]),
         f"object 0 pose xyz must be a list of 3 numbers (got [0.0, {10 ** 400}, 0.445])"),
        (lambda d: d["scene"].update(held_id="box"),
         "scene held_id must be null (got 'box'): an episode starts with nothing held"),
        (_empty_object_id, "object 0 id must not be empty"),
        (_untargeted_step,
         "fallback plan 0 step 0: rotate needs a region or a hint that binds a target pose"),
        (_goal_hint_with_region_goal,
         "fallback plan 0 step 1: moveto needs a region or a hint that binds a target pose"),
        # the push model, the robot and the friction are the twin's own, so
        # the sections and keys older files carried for them are unknown
        (lambda d: d["scene"].update(push_model={"kappa": 40.0}),
         "scene has unknown key 'push_model'"),
        (lambda d: d["scene"].update(dynamics_perturbation={"friction_scale": 0.8}),
         "scene has unknown key 'dynamics_perturbation'"),
        (lambda d: d["scene"].update(robot={"reach_max": 0.9}),
         "scene has unknown key 'robot'"),
        (lambda d: d["scene"].update(robot={"base_position": [0.0, -0.6]}),
         "scene has unknown key 'robot'"),
        (lambda d: d["scene"].update(robot={"gripper_aperture": "0.08"}),
         "scene has unknown key 'robot'"),
        (lambda d: d["scene"]["objects"][0].update(friction=0.4),
         "object 0 has unknown key 'friction'"),
        (lambda d: d["scene"]["objects"][0].update(mass=0.2),
         "object 0 has unknown key 'mass'"),
        (lambda d: d.update(nominal_zone=d["goal"]["target"]["xyz"]),
         "a scenario file has unknown key 'nominal_zone'"),
        # a misspelled key in any object the reader opens
        (lambda d: d["goal"].update(traget=d["goal"].pop("target")),
         "goal has unknown key 'traget'"),
        (lambda d: d["goal"]["target"].update(yaw=0.0),
         "goal target has unknown key 'yaw'"),
        (lambda d: d["randomization"].update(pos_jiter=d["randomization"].pop("pos_jitter")),
         "randomization has unknown key 'pos_jiter'"),
        (lambda d: d["scene"].update(helt_id=d["scene"].pop("held_id")),
         "scene has unknown key 'helt_id'"),
        (lambda d: d["scene"]["terrain"][1].update(hieght=0.4),
         "terrain 1 has unknown key 'hieght'"),
        (lambda d: d["scene"]["terrain"].append({
            "kind": "shelf", "footprint": [[0.2, 0.2], [0.3, 0.2], [0.3, 0.3], [0.2, 0.3]],
            "height": 0.4, "extra": {"clearance": 0.12, "open_fcae": [0.0, -1.0]}}),
         "terrain 2 extra has unknown key 'open_fcae'"),
        (lambda d: d["scene"]["terrain"].append({
            "kind": "slot", "footprint": [[0.2, 0.2], [0.3, 0.2], [0.3, 0.3], [0.2, 0.3]],
            "height": 0.4, "extra": {"depth": 0.025, "width": 0.1}}),
         "terrain 2 extra has unknown key 'width'"),
        # each kind reads its own extra keys: a slot's depth on the table is
        # unknown, and a kind the twin lacks is named before its extra
        (lambda d: d["scene"]["terrain"][1].update(extra={"depth": 0.03}),
         "terrain 1 extra has unknown key 'depth'"),
        (lambda d: d["scene"]["terrain"][1].update(kind="lawn", extra={"depth": 0.03}),
         "unknown terrain kind 'lawn'"),
        (lambda d: d["scene"]["objects"][0].update(
            tool_spce=d["scene"]["objects"][0].pop("tool_spec")),
         "object 0 has unknown key 'tool_spce'"),
        (lambda d: d["scene"]["objects"][0]["pose"].update(yaw_deg=0.0),
         "object 0 pose has unknown key 'yaw_deg'"),
        (lambda d: d["scene"]["objects"][0].update(tool_spec={
            "kind": "hook", "effective_length": 0.2, "tip_offset": [0.1, 0.0, 0.0],
            "tip_ofset": [0.1, 0.0, 0.0]}),
         "object 0 tool_spec has unknown key 'tip_ofset'"),
        (lambda d: d["fallback_plans"][0][0].update(hnit=d["fallback_plans"][0][0].pop("hint")),
         "fallback plan 0 step 0 has unknown key 'hnit'"),
        # the tool hint places the step's object as a tool, so it needs one
        (lambda d: d["fallback_plans"][0][0].update(hint="tool_approach"),
         "fallback plan 0 step 0: a tool_approach hint needs a tool, and 'box' has "
         "no tool_spec"),
        # the twin cuts only axis-aligned rectangles
        (lambda d: d["scene"]["terrain"].append({
            "kind": "slot", "footprint": [[0.1, 0.0], [0.2, 0.0], [0.15, 0.1]],
            "height": 0.4, "extra": {"depth": 0.025}}),
         "slot footprints must be axis-aligned rectangles"),
        (lambda d: d["scene"]["terrain"].append({
            "kind": "shelf", "footprint": [[0.2, 0.0], [0.25, 0.05], [0.2, 0.1], [0.15, 0.05]],
            "height": 0.4, "extra": {"clearance": 0.12}}),
         "shelf footprints must be axis-aligned rectangles"),
        # a jitter past its bound once overflowed the draw of the first pose
        (lambda d: d["randomization"].update(pos_jitter=1e308),
         "pos_jitter must be at most 100 (got 1e+308)"),
        (lambda d: d["randomization"].update(yaw_jitter_deg=1e308),
         "yaw_jitter_deg must be at most 180 (got 1e+308)"),
        (lambda d: d["special"].update(goal_jitter=100.5),
         "goal_jitter must be at most 100 (got 100.5)"),
    ], ids=["primary", "no-plans", "empty-plan", "step-object", "pos-jitter",
            "yaw-jitter", "goal-jitter", "plans-shape", "plan-shape", "step-shape",
            "file-shape", "goal-shape", "target-shape", "scene-shape",
            "randomization-shape", "special-shape", "xyz-shape",
            "terrain-shape", "objects-shape", "robot-shape", "push-model-shape",
            "footprint-shape", "pose-shape", "shape-shape", "height-type",
            "pos-jitter-bool", "yaw-jitter-bool", "extra-number", "extra-direction",
            "terrain-name", "object-id", "scenario-id", "instruction",
            "primary-type", "goal-kind", "initial-states", "missing-terrain-key",
            "missing-file-key", "special-key", "shape-offset", "zero-half-extent",
            "nan-quat", "inf-jitter", "nan-height", "huge-int", "held-id", "empty-id",
            "untargeted-step", "goal-hint-region-goal", "push-kappa", "friction-scale",
            "robot-reach", "robot-base", "robot-aperture-type", "object-friction",
            "object-mass", "file-nominal-zone", "goal-key", "goal-target-key",
            "randomization-key", "scene-key", "terrain-key", "extra-key", "slot-width",
            "extra-other-kind", "terrain-kind",
            "object-key", "pose-key", "tool-spec-key", "step-key", "tool-hint-no-tool",
            "slot-not-rect", "shelf-rotated", "huge-pos-jitter", "huge-yaw-jitter",
            "huge-goal-jitter"])
    def test_bad_scenario_field_is_input_error(self, tmp_path, capsys, edit,
                                               message):
        from tabletamp.scenarios import build_scenario, scenario_to_dict

        data = scenario_to_dict(build_scenario("box"))
        replaced = edit(data)  # None when the edit changed data in place
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data if replaced is None else replaced))
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: {message}"


class TestHugeCoordinate:
    @pytest.mark.parametrize("y", [1e308, -1e308], ids=["plus", "minus"])
    @pytest.mark.parametrize("scenario_id", ["book", "edge", "wall", "slope", "slot"])
    def test_object_y_past_the_bound_is_input_error(self, tmp_path, capsys,
                                                    scenario_id, y):
        # such a y once reached the push-path check and overflowed there
        from tabletamp.scenarios import build_scenario, scenario_to_dict

        data = scenario_to_dict(build_scenario(scenario_id))
        xyz = data["scene"]["objects"][0]["pose"]["xyz"]
        xyz[1] = y
        bad = tmp_path / "far.json"
        bad.write_text(json.dumps(data))
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err == (f"error: object 0 pose xyz must lie within 100 m of 0 on "
                       f"each axis (got {xyz!r})")


class TestOutOfRange:
    """A number past its bound at each site where an exported file once
    carried one to a traceback: each exits 2 and names its field."""

    @pytest.mark.parametrize("scenario_id, field, key, value, what, span", [
        ("wall", lambda d: d["scene"]["terrain"][1]["footprint"][0], 0, -1e308,
         "terrain 1 footprint", "within 100 m of 0 on each axis"),
        ("slope", lambda d: d["scene"]["terrain"][6], "height", 1e308,
         "terrain 6 height", "between 0 and 100 m"),
        ("slope", lambda d: d["scene"]["terrain"][6]["footprint"][2], 1, 1e308,
         "terrain 6 footprint", "within 100 m of 0 on each axis"),
        ("tool_pusher", lambda d: d["goal"]["zone"][0], 1, -1e308,
         "goal zone", "within 100 m of 0 on each axis"),
        ("tool_hook", lambda d: d["scene"]["objects"][1]["shape"]["half_extents"], 0, 1e-20,
         "object 1 shape half_extents", "between 1e-09 and 100 m"),
    ], ids=["wall-table-footprint", "slope-wedge-height", "slope-wedge-footprint",
            "goal-zone", "hook-half-extent"])
    def test_value_past_its_bound_is_input_error(self, tmp_path, capsys, scenario_id,
                                                 field, key, value, what, span):
        from tabletamp.scenarios import build_scenario, scenario_to_dict

        data = scenario_to_dict(build_scenario(scenario_id))
        field(data)[key] = value
        bad = tmp_path / "far.json"
        bad.write_text(json.dumps(data))
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {what} must lie {span} (got ")
        assert repr(value) in err and "\n" not in err

    def test_values_at_the_bounds_load(self):
        from tabletamp.scenarios import build_scenario, scenario_from_dict, scenario_to_dict

        data = scenario_to_dict(build_scenario("tool_hook"))
        data["scene"]["terrain"][0]["footprint"][0] = [-100.0, -100.0]
        data["scene"]["terrain"][0]["height"] = 100.0
        data["scene"]["objects"][1]["shape"]["half_extents"][1] = 1e-9
        data["goal"]["zone"][2][0] = 100.0
        scenario = scenario_from_dict(data)
        assert scenario.scene_template.object("hook").half_extents[1] == 1e-9


class TestScenarioFileFuzz:
    """Exported files with one number set to an extreme or to a bound: a
    run exits 0, 1 or 2 and never raises."""

    VALUES = (1e308, -1e308, 1e-300, 100.0, -100.0, 1e-9)

    @staticmethod
    def number_sites(data):
        """(container, key) of every terrain height and footprint
        coordinate, half extent, goal number and jitter of a scenario dict."""
        scene = data["scene"]
        for t in scene["terrain"]:
            yield t, "height"
            yield from ((point, k) for point in t["footprint"] for k in (0, 1))
        for o in scene["objects"]:
            yield from ((o["shape"]["half_extents"], k) for k in range(3))
        goal = data["goal"]
        if "target" in goal:
            yield from ((goal["target"]["xyz"], k) for k in range(3))
            yield from ((goal["target"]["quat_wxyz"], k) for k in range(4))
        for point in goal.get("zone", []):
            yield from ((point, k) for k in (0, 1))
        yield from ((data["randomization"], k) for k in ("pos_jitter", "yaw_jitter_deg"))

    def test_mutated_exported_files_never_raise(self, tmp_path):
        exported = tmp_path / "exported"
        assert main(["export", "--out", str(exported)]) == 0
        files = sorted(exported.glob("*.json"))
        assert len(files) == 8
        rng = random.Random(331)
        codes = collections.Counter()
        for _ in range(150):
            path = rng.choice(files)
            data = json.loads(path.read_text())
            sites = list(self.number_sites(data))
            i = rng.randrange(len(sites))
            container, key = sites[i]
            value = rng.choice(self.VALUES)
            container[key] = value
            mutated = tmp_path / path.name
            mutated.write_text(json.dumps(data))
            case = f"{path.name} site {i} ({key!r}) = {value!r}"
            try:
                code = main(["run", "--scenario", str(mutated), "--out", str(tmp_path / "out")])
            except Exception as exc:  # the failure names the case
                pytest.fail(f"{case} raised {exc!r}")
            assert code in (0, 1, 2), case
            codes[code] += 1
        assert codes[0] > 0 and codes[2] > 0, codes


class TestReflectorSkipsInvalidPlans:
    def test_flat_puck_ends_as_task_failure(self, tmp_path, capsys):
        # a puck 2 cm tall cannot be grasped, and the second fallback plan
        # starts by releasing it: that plan is skipped, no other is left,
        # and the run exits 1 instead of raising out of the reflector
        from tabletamp.scenarios import build_scenario, scenario_to_dict

        data = scenario_to_dict(build_scenario("tool_pusher"))
        assert data["fallback_plans"][1][0] == {"kind": "release", "object_id": "puck"}
        data["scene"]["objects"][0]["shape"]["half_extents"][2] = 0.01
        flat = tmp_path / "flat_puck.json"
        flat.write_text(json.dumps(data))
        code = main(["run", "--scenario", str(flat), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().out.startswith("tool_pusher seed 0: failure (replans 0,")
        trace = json.loads((tmp_path / "tool_pusher_seed0.json").read_text())
        assert [a["insight"] for a in trace["attempts"]] == [
            "(no revision: fallback plans exhausted after attempt 2)"]


class TestRandomizationFailure:
    @pytest.mark.parametrize("command", [
        ["run"], ["bench", "--trials", "1", "--scenarios"], ["sample", "--step", "1"],
    ])
    def test_infeasible_initial_pose_is_input_error(self, tmp_path, capsys, command):
        # the box starts far off the table, so no draw of the initial-pose
        # jitter can rest on raised support
        from tabletamp.scenarios import build_scenario, scenario_to_dict

        data = scenario_to_dict(build_scenario("box"))
        data["scene"]["objects"][0]["pose"]["xyz"] = [3.0, 3.0, 0.045]
        bad = tmp_path / "off_table.json"
        bad.write_text(json.dumps(data))
        scenario_flag = [] if command[0] == "bench" else ["--scenario"]
        code = main([*command, *scenario_flag, str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: no feasible initial pose")
        assert "\n" not in err


class TestUnwritableOut:
    @pytest.mark.parametrize("command", [
        ["run", "--scenario", "box"],
        ["bench", "--trials", "1", "--scenarios", "box"],
        ["sample", "--scenario", "box", "--seed", "0", "--step", "0"],
        ["export"],
    ], ids=["run", "bench", "sample", "export"])
    def test_out_under_a_regular_file_is_input_error(self, tmp_path, capsys, command):
        blocker = tmp_path / "results.txt"
        blocker.write_text("not a directory")
        for out in (blocker, blocker / "sub"):
            code = main([*command, "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err.strip()
            assert err.startswith("error: ") and "\n" not in err
            assert repr(str(out)) in err
        assert blocker.read_text() == "not a directory"


class TestBadArgumentValues:
    @pytest.mark.parametrize("argv, message", [
        (["run", "--scenario", "box", "--seed", "-1"],
         "argument --seed: must be >= 0 (got -1)"),
        (["sample", "--scenario", "box", "--seed", "-1"],
         "argument --seed: must be >= 0 (got -1)"),
        (["run", "--scenario", "box", "--seed", "one"],
         "argument --seed: invalid int value: 'one'"),
        (["bench", "--trials", "0"], "argument --trials: must be >= 1 (got 0)"),
        (["run", "--scenario", "box", "--max-retries", "-1"],
         "argument --max-retries: must be >= 0 (got -1)"),
        (["run", "--scenario", "box", "--planner", "http"],
         "--planner http needs --endpoint"),
        (["run", "--scenario", "box", "--timeout", "-1"],
         "argument --timeout: must be finite and > 0 (got -1.0)"),
        (["sample", "--scenario", "box", "--timeout", "0"],
         "argument --timeout: must be finite and > 0 (got 0.0)"),
        (["bench", "--timeout", "nan"],
         "argument --timeout: must be finite and > 0 (got nan)"),
        (["run", "--scenario", "box", "--timeout", "inf"],
         "argument --timeout: must be finite and > 0 (got inf)"),
        (["run", "--scenario", "box", "--timeout", "soon"],
         "argument --timeout: invalid float value: 'soon'"),
        (["run", "--scenario", "box", "--planner", "http",
          "--endpoint", "file:///etc/hostname", "--max-retries", "0"],
         "endpoint must be an http or https URL with a host, "
         "got 'file:///etc/hostname'"),
        (["sample", "--scenario", "box", "--planner", "http",
          "--endpoint", "ftp://127.0.0.1/v1"],
         "endpoint must be an http or https URL with a host, "
         "got 'ftp://127.0.0.1/v1'"),
    ], ids=["run-seed", "sample-seed", "seed-text", "trials", "max-retries",
            "no-endpoint", "timeout-negative", "timeout-zero", "timeout-nan",
            "timeout-inf", "timeout-text", "endpoint-file", "endpoint-ftp"])
    def test_rejected_value_is_usage_error(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].endswith(f"error: {message}")
        assert not (tmp_path / "out").exists()
