import base64
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tabletamp.control import ErrorKind, ExecError
from tabletamp.domain import (
    PrimitiveInstance,
    PrimitiveKind,
    RegionDescriptor,
)
from tabletamp.harness import observe, randomize, randomized_goal, run_episode
from tabletamp.planner import (
    HttpPlanner,
    NoMorePlans,
    PlannerConfig,
    PlannerUnavailable,
    ReflectionInput,
    ScriptedPlanner,
    _load_template,
    extract_fenced_block,
    insight_for,
    make_planner,
)
from tabletamp.scenarios import build_region_registry, build_scenario


def edge_observation(seed=0):
    scenario = build_scenario("edge")
    scene = randomize(scenario, seed)
    goal = randomized_goal(scenario, seed)
    return scenario, observe(scene, goal, scenario)


def reflection(error_kind, step, obs, plan, history=()):
    return ReflectionInput(
        error=ExecError(error_kind, "boom", step),
        observation=obs,
        failed_plan=plan,
        history=tuple(history),
    )


class TestScriptedPlanner:
    def test_edge_fallback_sequence(self):
        scenario, obs = edge_observation()
        planner = ScriptedPlanner(scenario.fallback_templates)
        p0 = planner.plan(obs)
        assert [s.kind for s in p0.steps] == [
            PrimitiveKind.GRASP, PrimitiveKind.MOVETO, PrimitiveKind.RELEASE
        ]
        assert p0.revision == 0
        _, p1 = planner.reflect(reflection(ErrorKind.NO_GRASP_FOUND, p0.steps[0], obs, p0))
        assert [s.kind for s in p1.steps] == [PrimitiveKind.PUSH]
        assert p1.revision == 1
        _, p2 = planner.reflect(reflection(ErrorKind.CONVERGENCE_TIMEOUT, p1.steps[0], obs, p1))
        # third call: push to the nearest table edge, then grasp from the side
        assert [s.kind for s in p2.steps] == [
            PrimitiveKind.PUSH, PrimitiveKind.GRASP, PrimitiveKind.MOVETO,
            PrimitiveKind.RELEASE,
        ]
        assert p2.steps[0].region.name == "table_edge_nearest"
        assert p2.revision == 2

    def test_exhaustion_raises_no_more_plans(self):
        scenario, obs = edge_observation()
        planner = ScriptedPlanner(scenario.fallback_templates)
        plan = planner.plan(obs)
        for _ in range(2):
            _, plan = planner.reflect(
                reflection(ErrorKind.NO_GRASP_FOUND, plan.steps[0], obs, plan)
            )
        with pytest.raises(NoMorePlans):
            planner.reflect(reflection(ErrorKind.NO_GRASP_FOUND, plan.steps[0], obs, plan))

    def test_reflection_skips_a_plan_invalid_in_the_observed_state(self):
        # a plan that first releases the card, which the failed grasp never
        # picked up, is skipped; with no valid plan after it the list is done
        scenario, obs = edge_observation()
        naive, push = scenario.fallback_templates[:2]
        release_first = ({"kind": "release", "object_id": "card"},) + push
        planner = ScriptedPlanner((naive, release_first, push))
        p0 = planner.plan(obs)
        _, p1 = planner.reflect(reflection(ErrorKind.NO_GRASP_FOUND, p0.steps[0], obs, p0))
        assert [s.kind for s in p1.steps] == [PrimitiveKind.PUSH]
        assert p1.revision == 1
        planner = ScriptedPlanner((naive, release_first))
        with pytest.raises(NoMorePlans):
            planner.reflect(reflection(ErrorKind.NO_GRASP_FOUND, p0.steps[0], obs, p0))

    def test_pure_function_of_attempt_index(self):
        scenario, obs = edge_observation()
        a = ScriptedPlanner(scenario.fallback_templates)
        b = ScriptedPlanner(scenario.fallback_templates)
        assert a.plan(obs) == b.plan(obs)
        pa = a.plan(obs)
        ra = a.reflect(reflection(ErrorKind.NO_GRASP_FOUND, pa.steps[0], obs, pa))
        rb = b.reflect(reflection(ErrorKind.NO_GRASP_FOUND, pa.steps[0], obs, pa))
        assert ra == rb

    def test_revision_strictly_increases(self):
        scenario, obs = edge_observation()
        planner = ScriptedPlanner(scenario.fallback_templates)
        plan = planner.plan(obs)
        revisions = [plan.revision]
        while True:
            try:
                _, plan = planner.reflect(
                    reflection(ErrorKind.OBJECT_LOST, plan.steps[0], obs, plan)
                )
            except NoMorePlans:
                break
            revisions.append(plan.revision)
        assert revisions == sorted(set(revisions))

    def test_outputs_validate_symbolically(self):
        from tabletamp.domain import validate_skeleton

        scenario, obs = edge_observation()
        planner = ScriptedPlanner(scenario.fallback_templates)
        plan = planner.plan(obs)
        assert validate_skeleton(plan, obs.symbolic_state()) == []

    def test_insight_rule_table(self):
        grasp = PrimitiveInstance(PrimitiveKind.GRASP, "card")
        err = ExecError(ErrorKind.NO_GRASP_FOUND, "nope", grasp)
        assert "overhang" in insight_for(err)
        moveto = PrimitiveInstance(PrimitiveKind.MOVETO, "puck",
                                   region=RegionDescriptor("target_zone"))
        err = ExecError(ErrorKind.IK_FAILURE, "Unable to solve an IK solution", moveto)
        assert "tool" in insight_for(err)

    def test_reflection_input_requires_step_membership(self):
        scenario, obs = edge_observation()
        planner = ScriptedPlanner(scenario.fallback_templates)
        plan = planner.plan(obs)
        foreign = PrimitiveInstance(PrimitiveKind.PUSH, "ghost",
                                    region=RegionDescriptor("target_zone"))
        with pytest.raises(ValueError):
            reflection(ErrorKind.OBJECT_LOST, foreign, obs, plan)


class TestFencedBlock:
    def test_extracts_single_block(self):
        text = "thinking...\n```json\n{\"a\": 1}\n```\ndone"
        assert json.loads(extract_fenced_block(text)) == {"a": 1}

    def test_zero_blocks_rejected(self):
        with pytest.raises(ValueError):
            extract_fenced_block("no fences here")

    def test_two_blocks_rejected(self):
        with pytest.raises(ValueError):
            extract_fenced_block("```a```\n```b```")


GOOD_SKELETON = json.dumps({
    "revision": 0,
    "rationale": "direct",
    "steps": [
        {"kind": "grasp", "object_id": "card"},
        {"kind": "moveto", "object_id": "card",
         "region": {"name": "target_zone", "refinement": ""}},
        {"kind": "release", "object_id": "card"},
    ],
})


def push_skeleton(region):
    return json.dumps({
        "revision": 0,
        "rationale": "push to the named region",
        "steps": [{"kind": "push", "object_id": "card",
                   "region": {"name": region, "refinement": ""}}],
    })


def svg_payload(uri):
    prefix, payload = uri.split(",", 1)
    assert prefix == "data:image/svg+xml;base64"
    return base64.b64decode(payload)


class TestHttpPlanner:
    @pytest.fixture(autouse=True)
    def _no_requests(self, monkeypatch):
        # the client is standard library only: importing requests fails here
        monkeypatch.setitem(sys.modules, "requests", None)

    def test_parses_fenced_reply(self, stub_server):
        url, handler = stub_server
        handler.replies = [f"Here is my plan:\n```json\n{GOOD_SKELETON}\n```"]
        cfg = PlannerConfig(backend="http", endpoint=url, model="stub")
        planner = HttpPlanner(cfg)
        _, obs = edge_observation()
        plan = planner.plan(obs)
        assert len(plan.steps) == 3
        assert planner.last_attempts == 1
        sent = handler.requests_seen[0]
        assert sent["model"] == "stub"
        assert any(part.get("type") == "image_url"
                   for part in sent["messages"][0]["content"])

    def test_retries_then_succeeds_on_third_attempt(self, stub_server):
        url, handler = stub_server
        handler.replies = [
            "no fence at all",
            "```json\n{\"steps\": []}\n```",  # schema violation
            f"```json\n{GOOD_SKELETON}\n```",
        ]
        cfg = PlannerConfig(backend="http", endpoint=url, model="stub", max_retries=2)
        planner = HttpPlanner(cfg)
        _, obs = edge_observation()
        plan = planner.plan(obs)
        assert len(plan.steps) == 3
        assert planner.last_attempts == 3

    def test_grasp_with_a_region_is_retried(self, stub_server):
        url, handler = stub_server
        targeted = json.loads(GOOD_SKELETON)
        targeted["steps"][0]["region"] = {"name": "target_zone", "refinement": ""}
        handler.replies = [f"```json\n{json.dumps(targeted)}\n```",
                           f"```json\n{GOOD_SKELETON}\n```"]
        cfg = PlannerConfig(backend="http", endpoint=url, model="stub", max_retries=1)
        planner = HttpPlanner(cfg)
        _, obs = edge_observation()
        plan = planner.plan(obs)
        assert planner.last_attempts == 2
        assert plan.steps[0].region is None

    def test_unusable_replies_raise_planner_unavailable(self, stub_server):
        url, handler = stub_server
        handler.replies = ["garbage"] * 3
        cfg = PlannerConfig(backend="http", endpoint=url, model="stub", max_retries=2)
        planner = HttpPlanner(cfg)
        _, obs = edge_observation()
        with pytest.raises(PlannerUnavailable):
            planner.plan(obs)

    def test_reflect_increments_revision(self, stub_server):
        url, handler = stub_server
        handler.replies = [f"```json\n{GOOD_SKELETON}\n```"] * 2
        cfg = PlannerConfig(backend="http", endpoint=url, model="stub")
        planner = HttpPlanner(cfg)
        scenario, obs = edge_observation()
        failed = ScriptedPlanner(scenario.fallback_templates).plan(obs)
        insight, revised = planner.reflect(
            reflection(ErrorKind.NO_GRASP_FOUND, failed.steps[0], obs, failed)
        )
        assert revised.revision == failed.revision + 1
        assert insight

    def test_timeout_bounds_episode_wait(self, stub_server):
        url, handler = stub_server
        handler.delay_s = 1.0
        handler.replies = ["slow"] * 2
        cfg = PlannerConfig(backend="http", endpoint=url, model="stub",
                            timeout_s=0.2, max_retries=1)
        planner = HttpPlanner(cfg)
        _, obs = edge_observation()
        t0 = time.perf_counter()
        with pytest.raises(PlannerUnavailable):
            planner.plan(obs)
        elapsed = time.perf_counter() - t0
        # never blocks longer than timeout * (max_retries + 1) plus slack
        assert elapsed < 0.2 * 2 + 1.0

    def test_api_key_sent_as_bearer_and_never_logged(self, stub_server, monkeypatch, capsys):
        url, handler = stub_server
        handler.replies = [f"```json\n{GOOD_SKELETON}\n```"]
        monkeypatch.setenv("TABLETAMP_API_KEY", "sk-secret-123")
        cfg = PlannerConfig(backend="http", endpoint=url, model="stub")
        planner = HttpPlanner(cfg)
        _, obs = edge_observation()
        planner.plan(obs)
        out = capsys.readouterr()
        assert "sk-secret-123" not in out.out + out.err
        assert handler.calls == [("POST", "/v1/chat/completions", "Bearer sk-secret-123")]

    def test_server_error_is_retried_then_unavailable(self, stub_server):
        url, handler = stub_server
        handler.status = 500
        handler.replies = [f"```json\n{GOOD_SKELETON}\n```"] * 2
        cfg = PlannerConfig(backend="http", endpoint=url, model="stub", max_retries=1)
        planner = HttpPlanner(cfg)
        _, obs = edge_observation()
        with pytest.raises(PlannerUnavailable, match="HTTP Error 500") as exc:
            planner.plan(obs)
        assert "after 2 attempts" in str(exc.value)
        assert len(handler.requests_seen) == planner.last_attempts == 2

    # urllib follows a 301-303 POST as a GET that carries every header but
    # the body's to the new URL, Authorization included
    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_not_followed(self, stub_server, monkeypatch, status):
        url, handler = stub_server
        handler.status = status
        # another host name for the same server: a followed redirect lands here
        handler.location = url.replace("127.0.0.1", "localhost") + "/elsewhere"
        handler.replies = [f"```json\n{GOOD_SKELETON}\n```"] * 4
        monkeypatch.setenv("TABLETAMP_API_KEY", "sk-secret-123")
        cfg = PlannerConfig(backend="http", endpoint=url, model="stub", max_retries=1)
        planner = HttpPlanner(cfg)
        _, obs = edge_observation()
        with pytest.raises(PlannerUnavailable, match=f"HTTP Error {status}"):
            planner.plan(obs)
        assert handler.calls == [("POST", "/v1/chat/completions",
                                  "Bearer sk-secret-123")] * 2

    def test_episode_sends_rendering_without_render_flag(self, stub_server):
        # the first plan's grasp fails on the flat card, so the reflection
        # request carries a second observation
        url, handler = stub_server
        handler.replies = [f"```json\n{GOOD_SKELETON}\n```"]
        cfg = PlannerConfig(backend="http", endpoint=url, model="stub", max_retries=0)
        run_episode(build_scenario("edge"), 0, cfg, render=False)
        images = [part["image_url"]["url"]
                  for body in handler.requests_seen
                  for part in body["messages"][0]["content"]
                  if part.get("type") == "image_url"]
        assert len(images) == len(handler.requests_seen) == 2
        assert all(svg_payload(uri).startswith(b"<svg") for uri in images)

    def test_sample_command_sends_rendering(self, stub_server, tmp_path):
        from tabletamp.cli import main

        url, handler = stub_server
        handler.replies = [f"```json\n{GOOD_SKELETON}\n```"]
        main(["sample", "--scenario", "edge", "--planner", "http", "--endpoint", url,
              "--max-retries", "0", "--out", str(tmp_path)])
        (body,) = handler.requests_seen
        (uri,) = [part["image_url"]["url"] for part in body["messages"][0]["content"]
                  if part.get("type") == "image_url"]
        assert svg_payload(uri).startswith(b"<svg")

    # the edge scene has no region "table_edge" and no shelf for "shelf_front"
    @pytest.mark.parametrize("region", ["table_edge", "shelf_front"])
    def test_unresolvable_region_ends_episode(self, stub_server, region):
        url, handler = stub_server
        handler.replies = [f"```json\n{push_skeleton(region)}\n```"]
        cfg = PlannerConfig(backend="http", endpoint=url, model="stub", max_retries=0)
        result = run_episode(build_scenario("edge"), 0, cfg)
        assert result.success is False
        (attempt,) = result.attempts
        assert repr(region) in attempt["planner_error"]
        assert attempt["outcomes"] == []
        assert len(handler.requests_seen) == 1  # no reflection follows

    @pytest.mark.parametrize("region", ["table_edge", "shelf_front"])
    def test_sample_command_unresolvable_region_exit_one(self, stub_server, tmp_path,
                                                         capsys, region):
        from tabletamp.cli import main

        url, handler = stub_server
        handler.replies = [f"```json\n{push_skeleton(region)}\n```"]
        code = main(["sample", "--scenario", "edge", "--planner", "http",
                     "--endpoint", url, "--max-retries", "0", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err
        assert repr(region) in err

    def test_http_backend_requires_endpoint(self):
        with pytest.raises(ValueError):
            PlannerConfig(backend="http")

    @pytest.mark.parametrize("endpoint", [
        "file:///etc/hostname", "ftp://127.0.0.1/v1", "data:,{}",
        "127.0.0.1:8000/v1", "http:///v1/chat/completions",
    ])
    def test_http_backend_requires_an_http_url(self, endpoint):
        with pytest.raises(ValueError, match="endpoint must be an http or https URL"):
            PlannerConfig(backend="http", endpoint=endpoint)

    @pytest.mark.parametrize("backend", ["scripted", "http"])
    @pytest.mark.parametrize("timeout_s", [-1.0, 0.0, 0, math.nan, math.inf])
    def test_timeout_must_be_finite_and_positive(self, backend, timeout_s):
        with pytest.raises(ValueError, match="timeout must be finite and > 0"):
            PlannerConfig(backend=backend, endpoint="https://127.0.0.1/v1",
                          timeout_s=timeout_s)

    @pytest.mark.parametrize("max_retries", [-1, 1.0, True, "2", None])
    def test_max_retries_must_be_a_non_negative_int(self, max_retries):
        # -1 would make the http planner raise after no request at all
        with pytest.raises(ValueError, match="max_retries must be an int >= 0"):
            PlannerConfig(backend="http", endpoint="https://127.0.0.1/v1",
                          max_retries=max_retries)
        assert PlannerConfig(max_retries=0).max_retries == 0


class TestMakePlanner:
    def test_scripted_needs_fallbacks(self):
        with pytest.raises(ValueError):
            make_planner(PlannerConfig(backend="scripted"), templates=None)

    def test_dispatch(self):
        scenario, _ = edge_observation()
        p = make_planner(PlannerConfig(backend="scripted"),
                         templates=scenario.fallback_templates)
        assert isinstance(p, ScriptedPlanner)

    def test_cli_import_and_http_planner_load_no_http_client(self):
        # the http client modules load on the first request, not before
        import tabletamp

        src = str(Path(tabletamp.__file__).resolve().parent.parent)
        code = ("import sys, tabletamp.cli; "
                "from tabletamp.planner import HttpPlanner, PlannerConfig; "
                "HttpPlanner(PlannerConfig(backend='http', endpoint='http://127.0.0.1:9')); "
                "print([m for m in ('requests', 'urllib.request', 'http.client') "
                "if m in sys.modules])")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"


class TestPromptRegions:
    @pytest.mark.parametrize("template", ["planner", "reflector"])
    def test_prompt_names_every_registry_region(self, template):
        lines = [line for line in _load_template(template).splitlines()
                 if line.startswith("Region names: ")]
        assert len(lines) == 1
        names = lines[0][len("Region names: "):].split(", ")
        scenario = build_scenario("edge")
        assert names == list(build_region_registry(scenario, scenario.goal_template))
