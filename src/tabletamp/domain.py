"""Symbolic action domain: five primitives, plan skeletons, and validation.

The symbolic layer tracks what the gripper holds and which objects are
tools, not what objects rest on; all geometric truth lives in the twin
scene. Preconditions and
effects are deliberately small:

    grasp(o):    pre gripper_free, not held(o)      eff held(o), not gripper_free
    moveto(o):   pre held(o)                        eff pose changed
    release(o):  pre held(o)                        eff gripper_free, not held(o)
    push(o):     pre not held(o), hand usable       eff pose changed
    rotate(o):   pre not held(o), hand usable       eff pose changed

"hand usable" means the gripper is free or it holds a tool object; tool use
is composed from the same five primitives acting on the tool (grasp the
hook, move it behind the target, push the target), so the non-prehensile
primitives must remain applicable while a tool is in hand.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from typing import Callable

from .geometry import Pose6D
from .twin import _is_number


class SkeletonParseError(ValueError):
    """A plan-skeleton document violates the schema; carries a JSON path."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class PrimitiveKind(enum.Enum):
    PUSH = "push"
    ROTATE = "rotate"
    GRASP = "grasp"
    MOVETO = "moveto"
    RELEASE = "release"


NEEDS_TARGET = (PrimitiveKind.PUSH, PrimitiveKind.ROTATE, PrimitiveKind.MOVETO)


@dataclass(frozen=True)
class RegionDescriptor:
    """Named spatial region, resolved geometrically by a scenario registry."""

    name: str
    refinement: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValueError("region name must be non-empty")


@dataclass(frozen=True)
class PrimitiveInstance:
    kind: PrimitiveKind
    object_id: str
    region: RegionDescriptor | None = None
    target_pose_hint: Pose6D | None = None

    def __post_init__(self):
        if not self.object_id:
            raise ValueError("primitive needs a target object id")
        has_target = self.region is not None or self.target_pose_hint is not None
        if self.kind in NEEDS_TARGET and not has_target:
            raise ValueError(f"{self.kind.value} needs a region or a target pose hint")
        if self.kind not in NEEDS_TARGET and has_target:
            raise ValueError(f"{self.kind.value} takes no region or target pose hint")

    def describe(self) -> str:
        where = ""
        if self.region is not None:
            where = f" @ {self.region.name}"
        elif self.target_pose_hint is not None:
            p = self.target_pose_hint.position
            where = f" @ ({p[0]:.3f}, {p[1]:.3f}, {p[2]:.3f})"
        return f"{self.kind.value}({self.object_id}){where}"


@dataclass(frozen=True)
class PlanSkeleton:
    steps: tuple[PrimitiveInstance, ...]
    revision: int = 0
    rationale: str = ""

    def __post_init__(self):
        if not self.steps:
            raise ValueError("plan skeleton must contain at least one step")
        if self.revision < 0:
            raise ValueError("revision must be >= 0")

    def describe(self) -> str:
        return " -> ".join(s.describe() for s in self.steps)


@dataclass(frozen=True)
class ObjectState:
    held: bool = False
    is_tool: bool = False


@dataclass(frozen=True)
class SymbolicState:
    objects: dict[str, ObjectState]
    gripper_free: bool = True

    def __post_init__(self):
        held = [oid for oid, st in self.objects.items() if st.held]
        if len(held) > 1:
            raise ValueError(f"at most one object may be held, got {held}")
        if held and self.gripper_free:
            raise ValueError("held object implies the gripper is not free")

    def held_id(self) -> str | None:
        for oid, st in self.objects.items():
            if st.held:
                return oid
        return None

    def hand_usable(self) -> bool:
        """Free hand, or a held tool that keeps pushing possible."""
        held = self.held_id()
        return held is None or self.objects[held].is_tool


@dataclass(frozen=True)
class Violation:
    step_index: int
    predicate: str

    def __str__(self) -> str:
        return f"step {self.step_index}: {self.predicate}"


PRIMITIVE_SCHEMAS: dict[PrimitiveKind, dict[str, tuple[str, ...]]] = {
    PrimitiveKind.GRASP: {
        "preconditions": ("gripper_free", "not held(o)"),
        "effects": ("held(o)", "not gripper_free"),
    },
    PrimitiveKind.MOVETO: {
        "preconditions": ("held(o)",),
        "effects": ("pose_changed(o)",),
    },
    PrimitiveKind.RELEASE: {
        "preconditions": ("held(o)",),
        "effects": ("gripper_free", "not held(o)"),
    },
    PrimitiveKind.PUSH: {
        "preconditions": ("not held(o)", "gripper_free or tool held"),
        "effects": ("pose_changed(o)",),
    },
    PrimitiveKind.ROTATE: {
        "preconditions": ("not held(o)", "gripper_free or tool held"),
        "effects": ("pose_changed(o)",),
    },
}


def primitive_definitions_text() -> str:
    """Human-readable primitive catalog for planner prompts."""
    lines = []
    for kind in PrimitiveKind:
        schema = PRIMITIVE_SCHEMAS[kind]
        args = "object, region_or_pose" if kind in NEEDS_TARGET else "object"
        lines.append(
            f"- {kind.value}({args}): "
            f"pre [{', '.join(schema['preconditions'])}] "
            f"eff [{', '.join(schema['effects'])}]"
        )
    return "\n".join(lines)


# what each precondition label of PRIMITIVE_SCHEMAS requires of the step's
# object and the state; "(o)" in a label stands for the step's object id
_PRECONDITION_HOLDS: dict[str, Callable[[ObjectState, SymbolicState], bool]] = {
    "gripper_free": lambda obj, state: state.gripper_free,
    "held(o)": lambda obj, state: obj.held,
    "not held(o)": lambda obj, state: not obj.held,
    "gripper_free or tool held": lambda obj, state: state.hand_usable(),
}


def _check_preconditions(step: PrimitiveInstance, state: SymbolicState) -> list[str]:
    obj = state.objects.get(step.object_id)
    if obj is None:
        return [f"unknown object '{step.object_id}'"]
    return [label.replace("(o)", f"({step.object_id})")
            for label in PRIMITIVE_SCHEMAS[step.kind]["preconditions"]
            if not _PRECONDITION_HOLDS[label](obj, state)]


def apply_effects(step: PrimitiveInstance, state: SymbolicState) -> SymbolicState:
    objects = dict(state.objects)
    obj = objects[step.object_id]
    if step.kind is PrimitiveKind.GRASP:
        objects[step.object_id] = replace(obj, held=True)
        return SymbolicState(objects, gripper_free=False)
    if step.kind is PrimitiveKind.RELEASE:
        objects[step.object_id] = replace(obj, held=False)
        return SymbolicState(objects, gripper_free=True)
    return SymbolicState(objects, gripper_free=state.gripper_free)


def validate_skeleton(skeleton: PlanSkeleton, initial: SymbolicState) -> list[Violation]:
    """Simulate effects step by step, collecting every precondition failure.

    A step whose preconditions fail leaves the state as it was. Returns an
    empty list when the skeleton is symbolically executable. Violations are
    data, not errors.
    """
    violations: list[Violation] = []
    state = initial
    for i, step in enumerate(skeleton.steps):
        failed = _check_preconditions(step, state)
        violations.extend(Violation(i, predicate) for predicate in failed)
        if not failed:
            state = apply_effects(step, state)
    return violations


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def skeleton_to_dict(skeleton: PlanSkeleton) -> dict:
    steps = []
    for s in skeleton.steps:
        d: dict = {"kind": s.kind.value, "object_id": s.object_id}
        if s.region is not None:
            d["region"] = {"name": s.region.name, "refinement": s.region.refinement}
        if s.target_pose_hint is not None:
            d["target_pose_hint"] = {
                "xyz": list(s.target_pose_hint.position),
                "quat_wxyz": list(s.target_pose_hint.orientation),
            }
        steps.append(d)
    return {"revision": skeleton.revision, "rationale": skeleton.rationale, "steps": steps}


def serialize_skeleton(skeleton: PlanSkeleton, indent: int | None = None) -> str:
    return json.dumps(skeleton_to_dict(skeleton), indent=indent, sort_keys=True)


def skeleton_from_dict(data: dict, path: str = "$") -> PlanSkeleton:
    if not isinstance(data, dict):
        raise SkeletonParseError("skeleton document must be an object", path)
    steps_raw = data.get("steps")
    if not isinstance(steps_raw, list) or not steps_raw:
        raise SkeletonParseError("'steps' must be a non-empty list", f"{path}.steps")
    steps = []
    for i, s in enumerate(steps_raw):
        spath = f"{path}.steps[{i}]"
        if not isinstance(s, dict):
            raise SkeletonParseError("step must be an object", spath)
        kind_raw = s.get("kind")
        try:
            kind = PrimitiveKind(kind_raw)
        except ValueError:
            raise SkeletonParseError(
                f"unknown primitive kind {kind_raw!r}", f"{spath}.kind"
            ) from None
        object_id = s.get("object_id")
        if not isinstance(object_id, str) or not object_id:
            raise SkeletonParseError("'object_id' must be a non-empty string",
                                     f"{spath}.object_id")
        region = None
        if "region" in s and s["region"] is not None:
            r = s["region"]
            if not isinstance(r, dict) or not isinstance(r.get("name"), str) or not r["name"]:
                raise SkeletonParseError("region needs a non-empty 'name'",
                                         f"{spath}.region")
            if not isinstance(r.get("refinement", ""), str):
                raise SkeletonParseError("'refinement' must be a string",
                                         f"{spath}.region.refinement")
            region = RegionDescriptor(r["name"], r.get("refinement", ""))
        hint = None
        if "target_pose_hint" in s and s["target_pose_hint"] is not None:
            h = s["target_pose_hint"]
            hpath = f"{spath}.target_pose_hint"
            if not isinstance(h, dict):
                raise SkeletonParseError("pose hint must be an object", hpath)
            xyz, quat = h.get("xyz"), h.get("quat_wxyz", [1, 0, 0, 0])
            for key, value, n in (("xyz", xyz, 3), ("quat_wxyz", quat, 4)):
                if not (isinstance(value, list) and len(value) == n
                        and all(map(_is_number, value))):
                    raise SkeletonParseError(f"'{key}' must be a list of {n} numbers "
                                             f"(got {value!r})", f"{hpath}.{key}")
            try:
                hint = Pose6D(tuple(xyz), tuple(quat))
            except ValueError as exc:
                raise SkeletonParseError(f"bad pose hint: {exc}", hpath) from None
        try:
            steps.append(PrimitiveInstance(kind, object_id, region, hint))
        except ValueError as exc:
            raise SkeletonParseError(str(exc), spath) from None
    revision = data.get("revision", 0)
    if isinstance(revision, bool) or not isinstance(revision, int) or revision < 0:
        raise SkeletonParseError("'revision' must be a non-negative integer",
                                 f"{path}.revision")
    rationale = data.get("rationale", "")
    if not isinstance(rationale, str):
        raise SkeletonParseError("'rationale' must be a string", f"{path}.rationale")
    return PlanSkeleton(tuple(steps), revision=revision, rationale=rationale)


def parse_skeleton(document: str) -> PlanSkeleton:
    """Parse the JSON skeleton wire format; raises SkeletonParseError."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SkeletonParseError(f"invalid JSON: {exc.msg}") from None
    return skeleton_from_dict(data)
