import math

import pytest

from tabletamp import harness, subgoal
from tabletamp._rng import default_rng
from tabletamp.domain import PrimitiveInstance, PrimitiveKind, RegionDescriptor
from tabletamp.geometry import (
    Pose6D,
    geodesic_angle,
    quat_from_yaw,
    rect_polygon,
)
from tabletamp.harness import randomize, randomized_goal
from tabletamp.render import render_candidates, render_scene
from tabletamp.scenarios import SCENARIO_IDS, build_region_registry, build_scenario
from tabletamp.subgoal import (
    Candidate,
    CandidateSet,
    NoFeasiblePose,
    Sample,
    UnknownRegion,
    _reach_score,
    filter_and_rank,
    resolve_anchor,
    sample_candidates,
    select_subgoal,
)
from tabletamp.twin import TerrainFeature, flat_pose_on_support, rest_on_support

from tests.test_geometry import drawn_quat, sample_boundary
from tests.test_pins import assert_call_digest
from tests.test_twin import TABLE_H, base_scene, make_box


def nearest_edge_resolver(scene, object_id):
    obj = scene.object(object_id)
    table = next(t for t in scene.terrain if t.kind == "table_surface")
    p = table.footprint.closest_boundary_point((obj.pose.x, obj.pose.y))
    return (p[0], p[1], table.height)


REGISTRY = {
    "table_edge_nearest": nearest_edge_resolver,
    "target_zone": lambda scene, oid: (0.15, -0.05, TABLE_H),
}


def push_step(obj="card", region="table_edge_nearest", hint=None):
    return PrimitiveInstance(
        PrimitiveKind.PUSH, obj,
        region=RegionDescriptor(region) if hint is None else None,
        target_pose_hint=hint,
    )


class TestResolveAnchor:
    def test_nearest_edge_point_lies_on_boundary(self):
        card = make_box("card", half=(0.05, 0.03, 0.004), x=0.1, y=-0.30,
                        z=TABLE_H + 0.004)
        scene = base_scene([card])
        anchor = resolve_anchor(RegionDescriptor("table_edge_nearest"), scene,
                                REGISTRY, object_id="card")
        table = next(t for t in scene.terrain if t.kind == "table_surface")
        assert table.footprint.boundary_distance((anchor[0], anchor[1])) < 1e-9
        # oracle: brute-force boundary sampling finds no closer point
        best = min(
            math.hypot(p[0] - 0.1, p[1] + 0.30)
            for p in sample_boundary(table.footprint, 0.001)
        )
        got = math.hypot(anchor[0] - 0.1, anchor[1] + 0.30)
        assert got <= best + 1e-6

    def test_unknown_region_not_found(self):
        scene = base_scene([make_box()])
        with pytest.raises(KeyError):
            resolve_anchor(RegionDescriptor("nowhere"), scene, REGISTRY, "box")

    def test_target_zone_centroid(self):
        scene = base_scene([make_box()])
        anchor = resolve_anchor(RegionDescriptor("target_zone"), scene, REGISTRY, "box")
        assert anchor == (0.15, -0.05, TABLE_H)


def sliding_wedge_scene():
    """A card on a table that carries a 30 deg wedge, whose incline rises
    from y = 0.1 to 0.3; tan 30 deg > FRICTION, so the wedge slides what is
    placed on it downhill, toward the robot."""
    span = 0.2
    wedge = TerrainFeature("slope", rect_polygon(0.0, 0.2, 0.1, span / 2),
                           TABLE_H + span * math.tan(math.radians(30.0)),
                           {"angle_deg": 30.0, "downhill": (0.0, -1.0)}, name="wedge")
    card = make_box("card", half=(0.05, 0.03, 0.004), y=-0.2, z=TABLE_H + 0.004)
    scene = base_scene([card], terrain_extra=[wedge])
    assert scene.terrain.slides
    return scene


class TestSampleCandidates:
    def test_push_samples_pin_roll_pitch(self):
        card = make_box("card", half=(0.05, 0.03, 0.004), y=-0.2, z=TABLE_H + 0.004)
        scene = base_scene([card])
        samples = sample_candidates(push_step(), (0.0, -0.39, TABLE_H), scene,
                                    rng_seed=3)
        assert len(samples) == 16
        for p in (s.pose for s in samples):
            # roll and pitch exactly zero: orientation is a pure yaw
            assert geodesic_angle(p.orientation, quat_from_yaw(p.yaw)) < 1e-9
            assert p.z == pytest.approx(TABLE_H + 0.004)

    def test_same_seed_identical(self):
        card = make_box("card", half=(0.05, 0.03, 0.004), y=-0.2, z=TABLE_H + 0.004)
        scene = base_scene([card])
        a = sample_candidates(push_step(), (0.0, -0.39, TABLE_H), scene, rng_seed=7)
        b = sample_candidates(push_step(), (0.0, -0.39, TABLE_H), scene, rng_seed=7)
        assert [s.pose for s in a] == [s.pose for s in b]

    def test_rotate_candidates_are_adjacent_flips_or_identity(self):
        plank = make_box("plank", half=(0.10, 0.05, 0.01), y=-0.2, z=TABLE_H + 0.01)
        scene = base_scene([plank])
        rot = PrimitiveInstance(PrimitiveKind.ROTATE, "plank",
                                region=RegionDescriptor("target_zone"))
        poses = [s.pose for s in sample_candidates(rot, (0.0, -0.2, TABLE_H), scene,
                                                   rng_seed=0)]
        # oracle: enumerate expected face classes; flat plank has 4 adjacent
        # side faces plus the identity
        assert 2 <= len(poses) <= 5
        assert poses[0] == plank.pose
        for p in poses[1:]:
            gap = geodesic_angle(p.orientation, plank.pose.orientation)
            assert gap == pytest.approx(90.0, abs=1.0)

    def test_hint_is_included_as_first_sample(self):
        card = make_box("card", half=(0.05, 0.03, 0.004), y=-0.2, z=TABLE_H + 0.004)
        scene = base_scene([card])
        hint = Pose6D((0.1, -0.25, TABLE_H + 0.004), quat_from_yaw(0.4))
        first = sample_candidates(push_step(hint=hint), (0.1, -0.25, TABLE_H),
                                  scene, rng_seed=0)[0].pose
        assert first.x == pytest.approx(0.1)
        assert first.y == pytest.approx(-0.25)
        assert first.yaw == pytest.approx(0.4)


SAMPLED = [
    ("box", "sample_candidates_box"),
    ("book", "sample_candidates_book"),
    ("edge", "sample_candidates_edge"),
    ("wall", "sample_candidates_wall"),
    ("slope", "sample_candidates_slope"),
    ("slot", "sample_candidates_slot"),
    ("tool_hook", "sample_candidates_tool_hook"),
    ("tool_pusher", "sample_candidates_tool_pusher"),
]


class TestSampleCandidatesPinned:
    @pytest.mark.parametrize("scenario_id, key", SAMPLED, ids=[s for s, _ in SAMPLED])
    def test_sampled_poses_are_pinned(self, scenario_id, key):
        sc = build_scenario(scenario_id)
        rng = default_rng(list(SCENARIO_IDS).index(scenario_id))
        poses = []
        for seed in range(3):
            scene = randomize(sc, seed).as_twin()
            registry = build_region_registry(sc, randomized_goal(sc, seed))
            for obj in scene.objects:
                for name in sorted(registry):
                    try:
                        anchor = resolve_anchor(RegionDescriptor(name), scene,
                                                registry, object_id=obj.id)
                    except UnknownRegion:
                        continue
                    # a tilted hint: a push keeps the object's own
                    # orientation, a moveto takes the hint's
                    hint = Pose6D((anchor[0] + 0.01, anchor[1] - 0.01,
                                   anchor[2] + obj.half_extents[2]), drawn_quat(rng))
                    for kind in (PrimitiveKind.PUSH, PrimitiveKind.MOVETO,
                                 PrimitiveKind.ROTATE):
                        for step in (PrimitiveInstance(kind, obj.id, RegionDescriptor(name)),
                                     PrimitiveInstance(kind, obj.id, target_pose_hint=hint)):
                            poses.append([s.pose for s in sample_candidates(
                                step, anchor, scene, rng_seed=seed)])
        assert len(poses) >= 3 * 3 * 6  # seeds, anchors and steps
        assert_call_digest(key, poses)

    @pytest.mark.parametrize("kind", [PrimitiveKind.GRASP, PrimitiveKind.RELEASE],
                             ids=["grasp", "release"])
    def test_grasp_and_release_take_no_pose(self, kind):
        scene = base_scene([make_box()])
        step = PrimitiveInstance(kind, "box")
        with pytest.raises(ValueError, match=f"^{kind.value} does not take a "
                                             "sub-goal pose$"):
            sample_candidates(step, (0.0, 0.0, TABLE_H), scene)


class TestFilterAndRank:
    def test_candidate_over_void_discarded(self):
        card = make_box("card", half=(0.05, 0.03, 0.004), y=-0.2, z=TABLE_H + 0.004)
        scene = base_scene([card])
        good = Pose6D((0.0, -0.3, TABLE_H + 0.004))
        void = Pose6D((0.0, -0.9, TABLE_H + 0.004))
        cset = filter_and_rank([Sample.of(good), Sample.of(void)], "card", scene)
        assert len(cset.candidates) == 1
        assert cset.candidates[0].pose.y == pytest.approx(-0.3)

    def test_com_past_edge_discarded_as_toppled(self):
        # analytic: COM at y = -0.42 is 2 cm past the table edge
        card = make_box("card", half=(0.05, 0.03, 0.004), y=-0.2, z=TABLE_H + 0.004)
        scene = base_scene([card])
        unstable = Pose6D((0.0, -0.42, TABLE_H + 0.004))
        with pytest.raises(NoFeasiblePose):
            filter_and_rank([Sample.of(unstable)], "card", scene)

    def test_six_survivors_keep_top_four_sorted(self):
        card = make_box("card", half=(0.05, 0.03, 0.004), y=-0.2, z=TABLE_H + 0.004)
        scene = base_scene([card])
        poses = [Pose6D((0.05 * i - 0.15, -0.2 - 0.02 * i, TABLE_H + 0.004))
                 for i in range(6)]
        cset = filter_and_rank([Sample.of(p) for p in poses], "card", scene)
        assert len(cset.candidates) == 4
        scores = [c.reachability_score for c in cset.candidates]
        assert scores == sorted(scores, reverse=True)

    def test_collision_with_other_object_discarded(self):
        card = make_box("card", half=(0.05, 0.03, 0.004), y=-0.2, z=TABLE_H + 0.004)
        blocker = make_box("blocker", x=0.2, y=-0.2)
        scene = base_scene([card, blocker])
        overlapping = Pose6D((0.2, -0.2, TABLE_H + 0.004))
        clear = Pose6D((0.0, -0.3, TABLE_H + 0.004))
        cset = filter_and_rank([Sample.of(overlapping), Sample.of(clear)], "card", scene)
        assert len(cset.candidates) == 1
        assert cset.candidates[0].pose.x == pytest.approx(0.0)

    def test_renderings_attached(self):
        card = make_box("card", half=(0.05, 0.03, 0.004), y=-0.2, z=TABLE_H + 0.004)
        scene = base_scene([card])
        pose = Pose6D((0.0, -0.3, TABLE_H + 0.004))
        cset = filter_and_rank([Sample.of(pose)], "card", scene)
        # each candidate draws over the snapshot it was rehearsed in: the
        # card translucent where it was before the step, the candidate solid
        _, outcome = rest_on_support(scene, "card", pose)
        svgs = render_candidates(scene, "card", cset)
        assert svgs == [render_scene(scene, highlight={"card": outcome.final_pose})]
        assert svgs[0].startswith("<svg")
        points = dict((title, line.split('"')[1]) for line in svgs[0].splitlines()
                      for title in ("card", "card candidate")
                      if line.endswith(f"<title>{title}</title></polygon>"))
        assert points["card"] != points["card candidate"]

    def test_output_poses_subset_of_sampled_input(self):
        # sampler output is already at rest, so filtering must not move it
        card = make_box("card", half=(0.05, 0.03, 0.004), y=-0.2, z=TABLE_H + 0.004)
        scene = base_scene([card])
        samples = sample_candidates(push_step(), (0.0, -0.39, TABLE_H), scene, rng_seed=11)
        cset = filter_and_rank(samples, "card", scene)
        poses = [s.pose for s in samples]
        for cand in cset.candidates:
            assert any(
                math.isclose(cand.pose.x, p.x, abs_tol=1e-9)
                and math.isclose(cand.pose.y, p.y, abs_tol=1e-9)
                and math.isclose(cand.pose.z, p.z, abs_tol=1e-9)
                and geodesic_angle(cand.pose.orientation, p.orientation) < 1e-7
                for p in poses
            )

    @staticmethod
    def count_rests(monkeypatch, poses):
        """The indices into ``poses`` of the candidates that
        ``filter_and_rank`` rests, in call order."""
        rested = []

        def counted(scene, object_id, pose, original=subgoal.rest_on_support):
            rested.append(next(i for i, p in enumerate(poses) if p is pose))
            return original(scene, object_id, pose)

        monkeypatch.setattr(subgoal, "rest_on_support", counted)
        return rested

    def test_rests_only_the_candidates_that_decide_the_kept_four(self, monkeypatch):
        # nine stable cards whose scores lie 0.07 apart, the best last, and a
        # nearer one over the void: the best survivor is the second rested,
        # and the band holds it alone, so the next three by score complete
        # the kept four
        card = make_box("card", half=(0.05, 0.03, 0.004), y=-0.2, z=TABLE_H + 0.004)
        scene = base_scene([card])
        poses = [Pose6D((0.0, 0.3 - 0.07 * i, TABLE_H + 0.004)) for i in range(9)]
        poses.append(Pose6D((0.0, -0.5, TABLE_H + 0.004)))
        rested = self.count_rests(monkeypatch, poses)
        cset = filter_and_rank([Sample.of(p) for p in poses], "card", scene)
        assert rested == [9, 8, 7, 6, 5]
        assert [c.source_index for c in cset.candidates] == [8, 7, 6, 5]
        assert [c.pose for c in cset.candidates] == [poses[i] for i in (8, 7, 6, 5)]

    def test_a_sliding_slope_rests_every_candidate_and_ranks_where_they_rest(
            self, monkeypatch):
        # tan 30 deg > FRICTION: a card placed on the wedge slides down it
        # toward the robot and rests on the table once its face clears the
        # wedge's foot, where it outranks the two cards placed on the table
        # beside the wedge; ranked where they were placed, the wedge cards
        # would come last
        scene = sliding_wedge_scene()
        card = scene.object("card")
        poses = [Pose6D((0.38, 0.15, TABLE_H + 0.004)),
                 Pose6D((-0.38, 0.12, TABLE_H + 0.004)),
                 flat_pose_on_support(scene, card, 0.0, 0.25, 0.0),
                 flat_pose_on_support(scene, card, 0.05, 0.26, 0.0)]
        placed = [_reach_score(p.x, p.y) for p in poses]
        assert max(placed[2:]) < min(placed[:2])
        rested = self.count_rests(monkeypatch, poses)
        cset = filter_and_rank([Sample.of(p) for p in poses], "card", scene)
        assert sorted(rested) == [0, 1, 2, 3]
        assert [c.source_index for c in cset.candidates] == [2, 3, 1, 0]
        # the tilted face reaches 3 cos 30 deg cm downhill of the centre, and
        # the slide stops in the 1 cm step that takes it past the foot at
        # y = 0.1, so the card rests flat with its whole face on the table
        reach = 0.03 * math.cos(math.radians(30.0))
        slid = [c.pose for c in cset.candidates[:2]]
        assert all(0.1 - reach - 0.01 < p.y < 0.1 - reach
                   and p.z == pytest.approx(TABLE_H + 0.004) for p in slid)
        assert [c.stability_margin for c in cset.candidates[:2]] == pytest.approx([0.03, 0.03])
        best = _reach_score(slid[0].x, slid[0].y)
        assert [c.reachability_score for c in cset.candidates] == [best, best, *placed[1::-1]]

    @staticmethod
    def count_builds(monkeypatch):
        """The poses ``subgoal`` builds with ``flat_pose_on_support`` from
        here on, in call order, and the poses ``filter_and_rank`` rests."""
        built, rested = [], []

        def building(*args, original=subgoal.flat_pose_on_support, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        def resting(scene, object_id, pose, original=subgoal.rest_on_support):
            rested.append(pose)
            return original(scene, object_id, pose)

        monkeypatch.setattr(subgoal, "flat_pose_on_support", building)
        monkeypatch.setattr(subgoal, "rest_on_support", resting)
        return built, rested

    def test_builds_a_pose_only_for_the_candidates_it_rests(self, monkeypatch):
        # a push to the table edge: the anchor, four overhang probes and
        # eleven drawn samples, of which the ranking rests nine
        card = make_box("card", half=(0.05, 0.03, 0.004), y=-0.2, z=TABLE_H + 0.004)
        scene = base_scene([card])
        built, rested = self.count_builds(monkeypatch)
        samples = sample_candidates(push_step(), (0.0, -0.39, TABLE_H), scene, rng_seed=11)
        assert built == []
        filter_and_rank(samples, "card", scene)
        assert len(samples) == 16 and len(rested) == 9
        assert list(map(id, built)) == list(map(id, rested))
        # the ranking scored each sample by the x and y its pose keeps
        assert all((s.pose.x, s.pose.y) == (s.x, s.y) for s in samples)

    def test_a_sliding_slope_builds_every_pose(self, monkeypatch):
        # samples around the middle of the wedge: the ranking rests every
        # candidate to score it where it rests, so it builds every pose
        scene = sliding_wedge_scene()
        built, rested = self.count_builds(monkeypatch)
        samples = sample_candidates(push_step(), (0.0, 0.2, TABLE_H), scene, rng_seed=0)
        assert built == []
        filter_and_rank(samples, "card", scene)
        assert len(built) == len(samples) == 16
        assert list(map(id, built)) == list(map(id, rested))

    def test_candidate_sets_in_episodes_are_pinned(self, monkeypatch):
        # every answer rehearsal gives the episodes of all eight scenarios,
        # kept set or NoFeasiblePose, bit for bit
        answers = []

        def recorded(candidates, object_id, scene, original=harness.filter_and_rank):
            try:
                answers.append(original(candidates, object_id, scene))
            except NoFeasiblePose as exc:
                answers.append(exc)
                raise
            return answers[-1]

        monkeypatch.setattr(harness, "filter_and_rank", recorded)
        for name in SCENARIO_IDS:
            for seed in range(2):
                harness.run_episode(build_scenario(name), seed)
        monkeypatch.undo()
        sets = [a for a in answers if isinstance(a, CandidateSet)]
        assert len(sets) > 40
        # the kept four are not always the first four sampled survivors
        assert any(c.source_index >= 4 for s in sets for c in s.candidates)
        assert_call_digest("filter_and_rank_in_episodes", answers)


def make_candidate(pose, score, margin=0.02, idx=0):
    return Candidate(
        pose=pose, reachability_score=score, stability_margin=margin,
        source_index=idx,
    )


class TestSelectSubgoal:
    def test_single_candidate_returned(self):
        pose = Pose6D((0.0, -0.2, TABLE_H + 0.004))
        cset = CandidateSet((make_candidate(pose, 0.5),))
        out = select_subgoal(cset, push_step(), None, base_scene([make_box("card")]))
        assert out.pose == pose

    def test_grasp_next_prefers_largest_overhang(self):
        # three candidates at the table edge with overhangs 0, 1, and 3 cm
        card = make_box("card", half=(0.05, 0.03, 0.004), y=-0.2, z=TABLE_H + 0.004)
        scene = base_scene([card])
        poses = [
            Pose6D((0.0, -0.4 + 0.03 + 0.000, TABLE_H + 0.004)),  # flush: 0 cm
            Pose6D((0.0, -0.4 + 0.03 - 0.010, TABLE_H + 0.004)),  # 1 cm
            Pose6D((0.0, -0.4 + 0.03 - 0.030, TABLE_H + 0.004)),  # 3 cm... unstable? COM at -0.40: boundary
        ]
        poses[2] = Pose6D((0.0, -0.4 + 0.03 - 0.028, TABLE_H + 0.004))  # 2.8 cm
        cset = filter_and_rank([Sample.of(p) for p in poses], "card", scene)
        nxt = PrimitiveInstance(PrimitiveKind.GRASP, "card")
        cur = push_step()
        out = select_subgoal(cset, cur, nxt, scene)
        assert out.pose.y == pytest.approx(-0.398, abs=1e-6)

    def test_pose_hint_prefers_closest(self):
        hint = Pose6D((0.1, -0.2, TABLE_H + 0.004))
        cur = push_step(hint=hint)
        near = make_candidate(Pose6D((0.11, -0.2, TABLE_H + 0.004)), 0.4, idx=1)
        far = make_candidate(Pose6D((0.3, -0.1, TABLE_H + 0.004)), 0.9, idx=0)
        cset = CandidateSet((far, near))
        out = select_subgoal(cset, cur, None, base_scene([make_box("card")]))
        assert out.pose.x == pytest.approx(0.11)
