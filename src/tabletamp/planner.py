"""Task planner and reflector backends.

Two interchangeable backends produce plan skeletons: a deterministic
scripted planner that walks a scenario's ordered fallback-plan list (naive
plan first, informed plans later), and an HTTP client for any
chat-completions-style model endpoint. Both validate their skeletons
symbolically before returning them.

The scripted reflector keys a one-line insight off (error kind, failed step
kind) and advances to the next fallback plan, reproducing the
naive-fails-then-informed-plan-succeeds loop without any model endpoint.
"""

from __future__ import annotations

import base64
import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from urllib.parse import urlsplit

from .control import ErrorKind, ExecError
from .domain import (
    ObjectState,
    PlanSkeleton,
    PrimitiveInstance,
    PrimitiveKind,
    RegionDescriptor,
    SymbolicState,
    parse_skeleton,
    primitive_definitions_text,
    validate_skeleton,
)
from .geometry import Pose6D, derived, quat_from_yaw

API_KEY_ENV = "TABLETAMP_API_KEY"
_PROMPTS_DIR = Path(__file__).parent / "prompts"


class PlannerUnavailable(Exception):
    """The model endpoint failed or kept returning unusable skeletons."""


class NoMorePlans(Exception):
    """The scripted fallback-plan list is exhausted."""


@dataclass(frozen=True)
class Observation:
    """What the planner sees: a symbolic scene summary plus a rendering,
    drawn by ``draw`` the first time a planner reads it."""

    draw: Callable[[], str]  # the top-down SVG of the observed scene
    summary: dict  # per-object {pose, on_feature, graspable, is_tool, held}
    instruction: str

    @derived
    def rendering(self) -> str:
        return self.draw()

    def symbolic_state(self) -> SymbolicState:
        objects = {}
        gripper_free = True
        for oid, info in self.summary.get("objects", {}).items():
            held = bool(info.get("held", False))
            gripper_free = gripper_free and not held
            objects[oid] = ObjectState(
                held=held,
                is_tool=bool(info.get("is_tool", False)),
            )
        return SymbolicState(objects, gripper_free=gripper_free)


@dataclass(frozen=True)
class ReflectionInput:
    error: ExecError
    observation: Observation
    failed_plan: PlanSkeleton
    history: tuple[str, ...] = ()

    def __post_init__(self):
        if self.error.step is not None and self.error.step not in self.failed_plan.steps:
            raise ValueError("the failing step must belong to the failed plan")


@dataclass(frozen=True)
class PlannerConfig:
    backend: str = "scripted"  # "scripted" | "http"
    endpoint: str = ""
    model: str = ""
    timeout_s: float = 30.0
    max_retries: int = 2

    def __post_init__(self):
        if self.backend not in ("scripted", "http"):
            raise ValueError(f"unknown planner backend {self.backend!r}")
        if self.backend == "http":
            if not self.endpoint:
                raise ValueError("http backend requires an endpoint URL")
            # urllib would also open file:, ftp: and data: URLs
            url = urlsplit(self.endpoint)
            if url.scheme not in ("http", "https") or not url.netloc:
                raise ValueError(f"endpoint must be an http or https URL with a "
                                 f"host, got {self.endpoint!r}")
        if not (math.isfinite(self.timeout_s) and self.timeout_s > 0):
            raise ValueError(f"timeout must be finite and > 0, got {self.timeout_s}")
        if (isinstance(self.max_retries, bool) or not isinstance(self.max_retries, int)
                or self.max_retries < 0):
            raise ValueError(f"max_retries must be an int >= 0, got {self.max_retries!r}")


# insight strings keyed by (error kind, failed primitive kind)
INSIGHT_RULES: dict[tuple[ErrorKind, PrimitiveKind], str] = {
    (ErrorKind.NO_GRASP_FOUND, PrimitiveKind.GRASP):
        "object ungraspable in place; create overhang or raise it",
    (ErrorKind.OUT_OF_REACH, PrimitiveKind.GRASP):
        "the object is out of reach; use a tool to extend reach or pull it closer",
    (ErrorKind.OUT_OF_REACH, PrimitiveKind.PUSH):
        "the push contact is out of reach; use a tool to extend reach",
    (ErrorKind.IK_FAILURE, PrimitiveKind.MOVETO):
        "the placement target is beyond reach; put the object down and push it "
        "there with a tool",
    (ErrorKind.COLLISION, PrimitiveKind.GRASP):
        "the grasp approach is blocked from above; tilt or slide the object out "
        "of the enclosure first",
    (ErrorKind.COLLISION, PrimitiveKind.MOVETO):
        "the transport or placement is blocked; choose a clearer approach",
    (ErrorKind.COLLISION, PrimitiveKind.ROTATE):
        "the flip sweeps into the enclosure; use a reduced flip and grasp the "
        "exposed part",
    (ErrorKind.COLLISION, PrimitiveKind.PUSH):
        "the push approach is blocked; free the object along another direction",
    (ErrorKind.CONVERGENCE_TIMEOUT, PrimitiveKind.PUSH):
        "pushing stalled against an obstacle; the target cannot be reached by "
        "planar pushing alone",
    (ErrorKind.CONVERGENCE_TIMEOUT, PrimitiveKind.ROTATE):
        "the rotation never crossed the balance point; try a different strategy",
    (ErrorKind.OBJECT_LOST, PrimitiveKind.PUSH):
        "the object toppled or fell during pushing; keep farther from edges "
        "and drops",
}


def insight_for(error: ExecError) -> str:
    step_kind = error.step.kind if error.step is not None else None
    if step_kind is not None:
        rule = INSIGHT_RULES.get((error.kind, step_kind))
        if rule is not None:
            return rule
    where = f" at {error.step.describe()}" if error.step is not None else ""
    return f"execution failed ({error.kind.value}){where}; revise the plan"


def _checked(skeleton: PlanSkeleton, obs: Observation, source: str) -> PlanSkeleton:
    violations = validate_skeleton(skeleton, obs.symbolic_state())
    if violations:
        raise ValueError(
            f"{source} produced a symbolically invalid skeleton: "
            + "; ".join(str(v) for v in violations)
        )
    return skeleton


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
    """Instantiate a fallback template against the current observation,
    binding randomized goal poses and scene-derived hints at plan time."""
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


class ScriptedPlanner:
    """Deterministic planner over a scenario's ordered fallback-plan list.

    Entry 0 is the naive direct plan; each reflection advances to the next
    entry that is valid in the observed state. A pure function of (fallback
    list, attempt index): identical inputs give identical skeletons.
    """

    def __init__(self, templates: tuple[tuple[dict, ...], ...]):
        if not templates:
            raise ValueError("scripted planner needs at least one fallback plan")
        self._templates = tuple(templates)
        self.attempt = 0

    def plan(self, obs: Observation) -> PlanSkeleton:
        skeleton = bind_template(self._templates[self.attempt], obs)
        if skeleton.revision != self.attempt:
            skeleton = PlanSkeleton(skeleton.steps, revision=self.attempt,
                                    rationale=skeleton.rationale)
        return _checked(skeleton, obs, "scripted planner")

    def reflect(self, inp: ReflectionInput) -> tuple[str, PlanSkeleton]:
        """The next fallback plan that is valid in the observed state; a
        plan written for another state (one that releases an object the
        failed grasp never picked up) is skipped."""
        insight = insight_for(inp.error)
        state = inp.observation.symbolic_state()
        while True:
            self.attempt += 1
            if self.attempt >= len(self._templates):
                raise NoMorePlans(
                    f"fallback plans exhausted after attempt {self.attempt}"
                )
            skeleton = bind_template(self._templates[self.attempt], inp.observation)
            if not validate_skeleton(skeleton, state):
                return insight, PlanSkeleton(skeleton.steps,
                                             revision=inp.failed_plan.revision + 1,
                                             rationale=skeleton.rationale or insight)


# ---------------------------------------------------------------------------
# http backend
# ---------------------------------------------------------------------------

_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


def extract_fenced_block(text: str) -> str:
    """The single fenced schema block of a model reply; prose is ignored."""
    blocks = _FENCE_RE.findall(text)
    if len(blocks) != 1:
        raise ValueError(f"expected exactly one fenced block, found {len(blocks)}")
    return blocks[0].strip()


def _load_template(name: str) -> str:
    return (_PROMPTS_DIR / f"{name}.txt").read_text(encoding="utf-8")


def _svg_data_uri(svg: str) -> str:
    payload = base64.b64encode(svg.encode("utf-8")).decode("ascii")
    return f"data:image/svg+xml;base64,{payload}"


class HttpPlanner:
    """Chat-completions client for plan generation and reflection.

    Each request carries the primitive catalog, the instruction, and the
    rendered observation as an image part. Replies must contain exactly one
    fenced JSON block with the skeleton schema; invalid replies are retried
    up to max_retries before PlannerUnavailable is raised. The API key comes
    from the environment and is never logged.
    """

    def __init__(self, cfg: PlannerConfig):
        if cfg.backend != "http":
            raise ValueError("HttpPlanner requires an http backend config")
        self.cfg = cfg
        self.last_attempts = 0

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(API_KEY_ENV, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _chat(self, prompt: str, images: list[str]) -> str:
        content: list[dict] = [{"type": "text", "text": prompt}]
        for svg in images:
            content.append(
                {"type": "image_url", "image_url": {"url": _svg_data_uri(svg)}}
            )
        payload = {
            "model": self.cfg.model,
            "messages": [{"role": "user", "content": content}],
            "temperature": 0.0,
        }
        # imported here: only the http planner needs it, and it would add about
        # a third to the package's import time
        import urllib.request

        class NoRedirect(urllib.request.HTTPRedirectHandler):
            # urllib would follow a 301, 302 or 303 as a GET that carries the
            # Authorization header to whatever host the Location names; with
            # no new request, the default handler raises HTTPError instead
            def redirect_request(self, req, fp, code, msg, headers, newurl):
                return None

        request = urllib.request.Request(
            self.cfg.endpoint, data=json.dumps(payload).encode("utf-8"),
            headers=self._headers(), method="POST",
        )
        # a status outside 2xx raises HTTPError
        with urllib.request.build_opener(NoRedirect).open(
                request, timeout=self.cfg.timeout_s) as resp:
            data = json.loads(resp.read())
        return data["choices"][0]["message"]["content"]

    def _request_skeleton(self, prompt: str, images: list[str],
                          obs: Observation, revision: int) -> PlanSkeleton:
        errors: list[str] = []
        self.last_attempts = 0
        for _attempt in range(self.cfg.max_retries + 1):
            self.last_attempts += 1
            try:
                reply = self._chat(prompt, images)
                block = extract_fenced_block(reply)
                skeleton = parse_skeleton(block)
                skeleton = PlanSkeleton(skeleton.steps, revision=revision,
                                        rationale=skeleton.rationale)
                return _checked(skeleton, obs, "http planner")
            except Exception as exc:  # noqa: BLE001 - every failure is retryable
                errors.append(f"{type(exc).__name__}: {exc}")
        raise PlannerUnavailable(
            f"no usable skeleton after {self.last_attempts} attempts: "
            + " | ".join(errors)
        )

    def plan(self, obs: Observation) -> PlanSkeleton:
        prompt = _load_template("planner")
        prompt = (
            prompt.replace("{PRIMITIVES}", primitive_definitions_text())
            .replace("{OBSERVATION}", json.dumps(obs.summary, sort_keys=True))
            .replace("{INSTRUCTION}", obs.instruction)
        )
        return self._request_skeleton(prompt, [obs.rendering], obs, revision=0)

    def reflect(self, inp: ReflectionInput) -> tuple[str, PlanSkeleton]:
        prompt = _load_template("reflector")
        obs = inp.observation
        prompt = (
            prompt.replace("{PRIMITIVES}", primitive_definitions_text())
            .replace("{FAILED_PLAN}", inp.failed_plan.describe())
            .replace("{FAILED_STEP}",
                     inp.error.step.describe() if inp.error.step else "?")
            .replace("{ERROR}", f"{inp.error.kind.value}: {inp.error.message}")
            .replace("{OBSERVATION}", json.dumps(obs.summary, sort_keys=True))
            .replace("{HISTORY}", "\n".join(inp.history) or "(none)")
            .replace("{INSTRUCTION}", obs.instruction)
        )
        skeleton = self._request_skeleton(
            prompt, [obs.rendering], obs, revision=inp.failed_plan.revision + 1
        )
        return insight_for(inp.error), skeleton


def make_planner(cfg: PlannerConfig,
                 templates: tuple[tuple[dict, ...], ...] | None = None):
    if cfg.backend == "scripted":
        if not templates:
            raise ValueError("scripted backend needs the scenario's fallback plans")
        return ScriptedPlanner(templates)
    return HttpPlanner(cfg)
