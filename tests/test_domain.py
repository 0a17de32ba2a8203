import json

import numpy as np
import pytest

from tabletamp.domain import (
    PRIMITIVE_SCHEMAS,
    ObjectState,
    PlanSkeleton,
    PrimitiveInstance,
    PrimitiveKind,
    RegionDescriptor,
    SkeletonParseError,
    SymbolicState,
    Violation,
    _check_preconditions,
    apply_effects,
    parse_skeleton,
    serialize_skeleton,
    validate_skeleton,
)
from tabletamp.geometry import Pose6D, quat_from_yaw


def state(objects=("box",), held=None, tools=()):
    return SymbolicState(
        {
            oid: ObjectState(held=(oid == held), is_tool=(oid in tools))
            for oid in objects
        },
        gripper_free=held is None,
    )


def step(kind, obj="box", region="target_zone"):
    reg = RegionDescriptor(region) if kind in (
        PrimitiveKind.PUSH, PrimitiveKind.ROTATE, PrimitiveKind.MOVETO
    ) else None
    return PrimitiveInstance(kind, obj, region=reg)


class TestPrimitiveSchema:
    def test_grasp_requires_free_gripper(self):
        schema = PRIMITIVE_SCHEMAS[PrimitiveKind.GRASP]
        assert "gripper_free" in schema["preconditions"]
        assert "held(o)" in schema["effects"]

    def test_exactly_five_kinds(self):
        assert len(PrimitiveKind) == 5
        assert {k.value for k in PrimitiveKind} == {
            "push", "rotate", "grasp", "moveto", "release"
        }

    def test_release_on_unheld_object_violates(self):
        sk = PlanSkeleton((step(PrimitiveKind.RELEASE),))
        violations = validate_skeleton(sk, state())
        assert violations and violations[0].step_index == 0
        assert "held(box)" in violations[0].predicate

    def test_push_while_holding_target_violates(self):
        sk = PlanSkeleton((step(PrimitiveKind.PUSH),))
        violations = validate_skeleton(sk, state(held="box"))
        assert any("not held(box)" in v.predicate for v in violations)

    def test_push_while_holding_tool_is_fine(self):
        sk = PlanSkeleton((step(PrimitiveKind.PUSH, obj="box"),))
        st = state(objects=("box", "hook"), held="hook", tools=("hook",))
        assert validate_skeleton(sk, st) == []

    def test_push_while_holding_non_tool_violates(self):
        sk = PlanSkeleton((step(PrimitiveKind.PUSH, obj="box"),))
        st = state(objects=("box", "cup"), held="cup")
        violations = validate_skeleton(sk, st)
        assert any("tool" in v.predicate for v in violations)

    # the hand-written precondition branches the schema replaced, as an oracle
    @staticmethod
    def ref_preconditions(kind, oid, st):
        obj = st.objects[oid]
        failures = []
        if kind is PrimitiveKind.GRASP:
            if not st.gripper_free:
                failures.append("gripper_free")
            if obj.held:
                failures.append(f"not held({oid})")
        elif kind in (PrimitiveKind.MOVETO, PrimitiveKind.RELEASE):
            if not obj.held:
                failures.append(f"held({oid})")
        else:
            if obj.held:
                failures.append(f"not held({oid})")
            if not st.hand_usable():
                failures.append("gripper_free or tool held")
        return failures

    @pytest.mark.parametrize("kind", list(PrimitiveKind))
    @pytest.mark.parametrize("held", [None, "box", "cup", "hook"])
    @pytest.mark.parametrize("box_is_tool", [False, True])
    def test_violations_are_schema_preconditions(self, kind, held, box_is_tool):
        tools = ("hook", "box") if box_is_tool else ("hook",)
        st = state(objects=("box", "cup", "hook"), held=held, tools=tools)
        found = _check_preconditions(step(kind), st)
        labels = [label.replace("(o)", "(box)")
                  for label in PRIMITIVE_SCHEMAS[kind]["preconditions"]]
        assert found == [label for label in labels if label in found]
        assert found == self.ref_preconditions(kind, "box", st)


class TestValidateSkeleton:
    def test_grasp_move_release_ok(self):
        sk = PlanSkeleton((
            step(PrimitiveKind.GRASP),
            step(PrimitiveKind.MOVETO),
            step(PrimitiveKind.RELEASE),
        ))
        assert validate_skeleton(sk, state()) == []

    def test_moveto_without_grasp_violates_at_step_zero(self):
        sk = PlanSkeleton((step(PrimitiveKind.MOVETO),))
        violations = validate_skeleton(sk, state())
        assert violations[0].step_index == 0
        assert "held(box)" in violations[0].predicate

    def test_push_to_edge_then_grasp_ok(self):
        sk = PlanSkeleton((
            PrimitiveInstance(PrimitiveKind.PUSH, "card",
                              region=RegionDescriptor("table_edge_nearest")),
            PrimitiveInstance(PrimitiveKind.GRASP, "card"),
            PrimitiveInstance(PrimitiveKind.MOVETO, "card",
                              region=RegionDescriptor("target_zone")),
            PrimitiveInstance(PrimitiveKind.RELEASE, "card"),
        ))
        assert validate_skeleton(sk, state(objects=("card",))) == []

    def test_unknown_object_flagged(self):
        sk = PlanSkeleton((step(PrimitiveKind.GRASP, obj="ghost"),))
        violations = validate_skeleton(sk, state())
        assert "unknown object" in violations[0].predicate

    def test_prefix_monotone(self):
        rng = np.random.default_rng(31)
        kinds = list(PrimitiveKind)
        for _ in range(100):
            n = rng.integers(1, 7)
            steps = tuple(
                step(kinds[int(rng.integers(0, len(kinds)))]) for _ in range(n)
            )
            sk = PlanSkeleton(steps)
            if validate_skeleton(sk, state()) == []:
                for cut in range(1, n + 1):
                    prefix = PlanSkeleton(steps[:cut])
                    assert validate_skeleton(prefix, state()) == []

    @pytest.mark.parametrize("held", [None, "box", "cup", "hook"])
    def test_every_two_step_sequence_reports_and_never_raises(self, held):
        # a step whose preconditions fail leaves the state as it was, so the
        # next step is checked against it
        objects = ("box", "cup", "hook")
        st = state(objects=objects, held=held, tools=("hook",))
        for first_kind in PrimitiveKind:
            for second_kind in PrimitiveKind:
                for a in objects:
                    for b in objects:
                        first, second = step(first_kind, a), step(second_kind, b)
                        found = validate_skeleton(PlanSkeleton((first, second)), st)
                        failed = _check_preconditions(first, st)
                        after = st if failed else apply_effects(first, st)
                        assert found == (
                            [Violation(0, p) for p in failed]
                            + [Violation(1, p) for p in _check_preconditions(second, after)]
                        )

    def test_grasp_release_restores_state(self):
        st = state()
        grasp = step(PrimitiveKind.GRASP)
        release = step(PrimitiveKind.RELEASE)
        after = apply_effects(release, apply_effects(grasp, st))
        assert after == st


class TestWireFormat:
    def test_minimal_grasp_document(self):
        sk = parse_skeleton(json.dumps({
            "steps": [{"kind": "grasp", "object_id": "box"}],
        }))
        assert len(sk.steps) == 1
        assert sk.steps[0].kind is PrimitiveKind.GRASP
        assert sk.revision == 0

    def test_unknown_kind_rejected_with_path(self):
        doc = json.dumps({"steps": [
            {"kind": "grasp", "object_id": "box"},
            {"kind": "slide", "object_id": "box"},
        ]})
        with pytest.raises(SkeletonParseError) as err:
            parse_skeleton(doc)
        assert "steps[1]" in str(err.value)
        assert "slide" in str(err.value)

    def test_push_without_region_rejected(self):
        doc = json.dumps({"steps": [{"kind": "push", "object_id": "card"}]})
        with pytest.raises(SkeletonParseError) as err:
            parse_skeleton(doc)
        assert "region" in str(err.value)

    def test_grasp_with_a_target_rejected_at_its_step(self):
        doc = json.dumps({"steps": [
            {"kind": "grasp", "object_id": "box", "region": {"name": "nowhere"},
             "target_pose_hint": {"xyz": [9, 9, 9]}},
        ]})
        with pytest.raises(SkeletonParseError) as err:
            parse_skeleton(doc)
        assert err.value.path == "$.steps[0]"
        assert str(err.value) == "$.steps[0]: grasp takes no region or target pose hint"

    @pytest.mark.parametrize("kind", [PrimitiveKind.GRASP, PrimitiveKind.RELEASE])
    @pytest.mark.parametrize("target", ["region", "target_pose_hint"])
    def test_grasp_and_release_take_no_target(self, kind, target):
        value = (RegionDescriptor("target_zone") if target == "region"
                 else Pose6D((0.1, 0.0, 0.45)))
        with pytest.raises(ValueError, match=f"{kind.value} takes no region or "
                                             f"target pose hint"):
            PrimitiveInstance(kind, "box", **{target: value})

    def test_round_trip_random_skeletons(self):
        rng = np.random.default_rng(37)
        kinds = list(PrimitiveKind)
        for _ in range(200):
            steps = []
            for _ in range(int(rng.integers(1, 6))):
                kind = kinds[int(rng.integers(0, len(kinds)))]
                region = None
                hint = None
                if kind in (PrimitiveKind.PUSH, PrimitiveKind.ROTATE, PrimitiveKind.MOVETO):
                    if rng.random() < 0.5:
                        region = RegionDescriptor(
                            f"region_{rng.integers(0, 5)}", refinement="nearest"
                        )
                    else:
                        hint = Pose6D(
                            tuple(rng.uniform(-0.4, 0.4, size=3)),
                            quat_from_yaw(rng.uniform(-3, 3)),
                        )
                steps.append(PrimitiveInstance(kind, f"obj{rng.integers(0, 3)}",
                                               region=region, target_pose_hint=hint))
            sk = PlanSkeleton(tuple(steps), revision=int(rng.integers(0, 4)),
                              rationale="r")
            text = serialize_skeleton(sk)
            back = parse_skeleton(text)
            assert serialize_skeleton(back) == text
            assert back == sk

    def test_invalid_json_rejected(self):
        with pytest.raises(SkeletonParseError):
            parse_skeleton("{not json")

    def test_empty_steps_rejected(self):
        with pytest.raises(SkeletonParseError):
            parse_skeleton(json.dumps({"steps": []}))

    @pytest.mark.parametrize("hint, path, message", [
        ({"xyz": "123"}, "xyz", "'xyz' must be a list of 3 numbers (got '123')"),
        ({"xyz": ["0.1", True, 0.4]}, "xyz",
         "'xyz' must be a list of 3 numbers (got ['0.1', True, 0.4])"),
        ({"xyz": [0.1, 0.2]}, "xyz", "'xyz' must be a list of 3 numbers (got [0.1, 0.2])"),
        ({"quat_wxyz": [1, 0, 0, 0]}, "xyz", "'xyz' must be a list of 3 numbers (got None)"),
        ({"xyz": [0.1, 0.2, 0.4], "quat_wxyz": "1000"}, "quat_wxyz",
         "'quat_wxyz' must be a list of 4 numbers (got '1000')"),
        ({"xyz": [0.1, 0.2, 0.4], "quat_wxyz": [True, 0, 0, 0]}, "quat_wxyz",
         "'quat_wxyz' must be a list of 4 numbers (got [True, 0, 0, 0])"),
    ], ids=["xyz-string", "xyz-string-and-bool", "xyz-short", "xyz-missing",
            "quat-string", "quat-bool"])
    def test_hint_vectors_must_be_numbers(self, hint, path, message):
        doc = json.dumps({"steps": [
            {"kind": "grasp", "object_id": "box"},
            {"kind": "moveto", "object_id": "box", "target_pose_hint": hint},
        ]})
        with pytest.raises(SkeletonParseError) as err:
            parse_skeleton(doc)
        assert err.value.path == f"$.steps[1].target_pose_hint.{path}"
        assert str(err.value) == f"$.steps[1].target_pose_hint.{path}: {message}"

    def test_non_finite_hint_rejected(self):
        # Python's json reads NaN and Infinity
        doc = '{"steps": [{"kind": "push", "object_id": "box", ' \
              '"target_pose_hint": {"xyz": [NaN, 0.0, 0.4]}}]}'
        with pytest.raises(SkeletonParseError) as err:
            parse_skeleton(doc)
        assert err.value.path == "$.steps[0].target_pose_hint.xyz"

    def test_integer_hint_reads_as_floats(self):
        sk = parse_skeleton(json.dumps({"steps": [{
            "kind": "push", "object_id": "box",
            "target_pose_hint": {"xyz": [0, 1, 2], "quat_wxyz": [1, 0, 0, 0]},
        }]}))
        assert sk.steps[0].target_pose_hint == Pose6D((0.0, 1.0, 2.0))

    @pytest.mark.parametrize("revision", [True, False, 1.0, "1", -1])
    def test_revision_must_be_an_integer(self, revision):
        doc = json.dumps({"revision": revision,
                          "steps": [{"kind": "grasp", "object_id": "box"}]})
        with pytest.raises(SkeletonParseError) as err:
            parse_skeleton(doc)
        assert err.value.path == "$.revision"

    def test_refinement_must_be_a_string(self):
        doc = json.dumps({"steps": [{"kind": "push", "object_id": "box",
                                     "region": {"name": "target_zone", "refinement": 3}}]})
        with pytest.raises(SkeletonParseError) as err:
            parse_skeleton(doc)
        assert str(err.value) == "$.steps[0].region.refinement: 'refinement' must be a string"
