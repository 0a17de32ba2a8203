import json
import math

import pytest

from tabletamp.cli import main
from tests.test_planner import stub_server  # noqa: F401 - a fixture


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
        main(["run", "--scenario", "box", "--seed", "1", "--render",
              "--out", str(tmp_path)])
        svgs = list(tmp_path.glob("*.svg"))
        assert svgs

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

    @pytest.mark.parametrize("seed", [1, 2])
    def test_step_zero_candidates_hold_the_run_subgoal(self, tmp_path, seed):
        # sample rehearses with the seed run gives step 0 of the first plan,
        # so the sub-goal run picks is among the candidates sample writes
        from tabletamp.scenarios import build_scenario, scenario_to_dict

        data = scenario_to_dict(build_scenario("box"))
        data["fallback_plans"] = [[{"kind": "push", "object_id": "box",
                                    "region": "target_zone"}]]
        del data["special"]["initial_states"]
        path = tmp_path / "push.json"
        path.write_text(json.dumps(data))
        assert main(["run", "--scenario", str(path), "--seed", str(seed),
                     "--out", str(tmp_path / "run")]) in (0, 1)
        trace = json.loads((tmp_path / "run" / f"box_seed{seed}.json").read_text())
        subgoal = trace["attempts"][0]["outcomes"][0]["subgoal"]
        assert main(["sample", "--scenario", str(path), "--seed", str(seed),
                     "--step", "0", "--out", str(tmp_path / "sample")]) == 0
        manifest = json.loads((tmp_path / "sample" / "candidates.json").read_text())
        assert subgoal in [c["xyz"] + c["quat_wxyz"] for c in manifest]

    def test_grasp_step_is_usage_error(self, tmp_path):
        code = main(["sample", "--scenario", "edge", "--seed", "0",
                     "--step", "0", "--out", str(tmp_path)])
        assert code == 2

    def test_no_feasible_pose_exit_three(self, tmp_path):
        # a custom scenario whose goal zone floats over the void
        from tabletamp.scenarios import build_scenario, scenario_to_dict

        data = scenario_to_dict(build_scenario("tool_pusher"))
        data["goal"]["zone"] = [[0.9, 0.9], [1.1, 0.9], [1.1, 1.1], [0.9, 1.1]]
        data["nominal_zone"] = data["goal"]["zone"]
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
        assert "ok" in capsys.readouterr().out

    def test_moveto_first_violation(self, tmp_path, capsys):
        doc = {"steps": [{"kind": "moveto", "object_id": "card",
                          "region": {"name": "target_zone"}}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["validate", "--scenario", "edge", "--skeleton", str(path)])
        assert code == 1
        assert "step 0" in capsys.readouterr().out

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
        (lambda d: d.update(nominal_zone=5),
         "nominal_zone must be a list of [x, y] points (got 5)"),
        (lambda d: d.update(goal={"kind": "pose", "target": {
            "xyz": 5, "quat_wxyz": [1.0, 0.0, 0.0, 0.0]}}),
         "goal target xyz must be a list of 3 numbers (got 5)"),
        (lambda d: d["scene"].update(terrain=5), "scene terrain must be a list (got 5)"),
        (lambda d: d["scene"].update(objects=5), "scene objects must be a list (got 5)"),
        (lambda d: d["scene"].update(robot=5), "scene robot must be an object (got 5)"),
        (lambda d: d["scene"].update(push_model=5),
         "scene push_model must be an object (got 5)"),
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
        (lambda d: d["scene"]["terrain"][0].update(extra={"downhill": "south"}),
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
        (lambda d: d["special"].update(goal_jiter=0.5), "unknown special key 'goal_jiter'"),
        (lambda d: d["scene"]["objects"][0]["shape"].update(offset_xyz=[0.03, 0, 0]),
         "object 0 shape offset_xyz must be [0, 0, 0] (got [0.03, 0, 0]): only boxes "
         "centred on their pose are simulated"),
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
        # older files carry the push model; it may hold only the twin's values
        (lambda d: d["scene"].update(push_model={"kappa": 40.0}),
         "push_model kappa must be 50.0 (got 40.0): the twin's push physics is fixed"),
        (lambda d: d["scene"].update(dynamics_perturbation={"friction_scale": 0.8}),
         "dynamics_perturbation friction_scale must be 1.0 (got 0.8): the twin's push "
         "physics is fixed"),
        # older files carry the robot and each object's friction; they may
        # hold only the twin's values
        (lambda d: d["scene"].update(robot={"reach_max": 0.9}),
         "robot reach_max must be 0.95 (got 0.9): the twin simulates one robot"),
        (lambda d: d["scene"].update(robot={"base_position": [0.0, -0.6]}),
         "robot base_position must be [0.0, -0.65] (got [0.0, -0.6]): the twin "
         "simulates one robot"),
        (lambda d: d["scene"].update(robot={"gripper_aperture": "0.08"}),
         "robot gripper_aperture must be a number (got '0.08')"),
        (lambda d: d["scene"]["objects"][0].update(friction=0.4),
         "object 0 friction must be 0.5 (got 0.4): every object has the twin's friction"),
    ], ids=["primary", "no-plans", "empty-plan", "step-object", "pos-jitter",
            "yaw-jitter", "goal-jitter", "plans-shape", "plan-shape", "step-shape",
            "file-shape", "goal-shape", "target-shape", "scene-shape",
            "randomization-shape", "special-shape", "zone-shape", "xyz-shape",
            "terrain-shape", "objects-shape", "robot-shape", "push-model-shape",
            "footprint-shape", "pose-shape", "shape-shape", "height-type",
            "pos-jitter-bool", "yaw-jitter-bool", "extra-number", "extra-direction",
            "terrain-name", "object-id", "scenario-id", "instruction",
            "primary-type", "goal-kind", "initial-states", "missing-terrain-key",
            "missing-file-key", "special-key", "shape-offset", "zero-half-extent",
            "nan-quat", "inf-jitter", "nan-height", "huge-int", "held-id", "empty-id",
            "untargeted-step", "goal-hint-region-goal", "push-kappa", "friction-scale",
            "robot-reach", "robot-base", "robot-aperture-type", "object-friction"])
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
    ], ids=["run-seed", "sample-seed", "seed-text", "trials", "max-retries",
            "no-endpoint"])
    def test_rejected_value_is_usage_error(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].endswith(f"error: {message}")
        assert not (tmp_path / "out").exists()
