import dataclasses
import json
import math

import numpy as np
import pytest

from tabletamp import twin
from tabletamp.geometry import (
    Obb,
    Polygon2,
    Pose6D,
    bounds_disjoint,
    clip_convex,
    convex_hull,
    geodesic_angle,
    obbs_overlap,
    point_in_polygon,
    quat_from_axis_angle,
    quat_from_yaw,
    quat_mul,
    quat_rotate,
    rect_polygon,
    ring_area,
)
from tabletamp.twin import (
    PlacementCollision,
    RigidObject,
    SweptCollision,
    TerrainFeature,
    TwinScene,
    _face_down_orientation,
    apply_push,
    box_hits_solids,
    cell_under,
    flat_pose_on_support,
    overlapping_object,
    pivot_rotate,
    place_at,
    rest_on_support,
    scene_from_dict,
    scene_to_dict,
    settle,
    stability_margin,
    support_cells,
)

from tests.test_geometry import oracle_quats

TABLE_H = 0.4
TABLE_HALF = 0.4


def make_box(obj_id="box", half=(0.05, 0.05, 0.05), x=0.0, y=0.0, yaw=0.0,
             z=None, orientation=None, tool_spec=None):
    if orientation is None:
        orientation = quat_from_yaw(yaw)
    if z is None:
        z = TABLE_H + half[2]
    return RigidObject(
        id=obj_id,
        half_extents=half,
        pose=Pose6D((x, y, z), orientation),
        tool_spec=tool_spec,
    )


def base_scene(objects=(), terrain_extra=(), role="twin"):
    terrain = (
        TerrainFeature("ground", rect_polygon(0, 0, 1.2, 1.2), 0.0, name="ground"),
        TerrainFeature("table_surface", rect_polygon(0, 0, TABLE_HALF, TABLE_HALF),
                       TABLE_H, name="table"),
    ) + tuple(terrain_extra)
    return TwinScene(terrain=terrain, objects=tuple(objects), role=role)


class TestTerrainCache:
    def test_replaced_scenes_share_one_entry(self):
        from tabletamp.harness import randomize
        from tabletamp.scenarios import build_scenario

        scenario = build_scenario("slot")
        template = scenario.scene_template
        episode = randomize(scenario, 3)
        copies = (episode, template.as_twin(), template.with_held("card"),
                  dataclasses.replace(template, objects=()))
        assert all(c.terrain is template.terrain for c in copies)
        terrain = template.terrain
        assert isinstance(terrain, twin.Terrain)
        for scene in copies:
            cells, solids = support_cells(scene, include_objects=False), scene.terrain.solids
            assert len(cells) == len(terrain.cells) and len(solids) == len(terrain.solids)
            assert all(a is b for a, b in zip(cells, terrain.cells))
            assert all(a is b for a, b in zip(solids, terrain.solids))

    def test_new_terrain_tuple_gets_its_own_cells(self):
        # CPython hands a freed tuple's id to the next tuple of its size, so
        # derived geometry looked up by id could serve a dead terrain's cells
        for i in range(48):
            half = 0.2 + 0.005 * i
            table = TerrainFeature("table_surface", rect_polygon(0, 0, half, half),
                                   TABLE_H, name="table")
            scene = TwinScene(terrain=(table,), objects=())
            (cell,) = support_cells(scene)
            assert cell.ring == table.footprint.vertices
            (solid,) = scene.terrain.solids
            assert solid.ring == table.footprint.vertices
            del scene, table, cell, solid

    def test_list_terrain_is_frozen_into_a_tuple(self):
        terrain = list(base_scene().terrain)
        scene = TwinScene(terrain=terrain, objects=())
        terrain.pop()
        assert [c.kind for c in support_cells(scene)] == ["ground", "table_surface"]

    @pytest.mark.parametrize("name", [
        "box", "book", "edge", "wall", "slope", "slot", "tool_hook", "tool_pusher",
    ])
    def test_cached_equals_uncached_derivation(self, name):
        from tabletamp.scenarios import build_scenario

        scene = build_scenario(name).scene_template
        fresh = twin.Terrain(scene.terrain)  # nothing derived yet
        cells = support_cells(scene)
        n = len(fresh.cells)
        assert cells[:n] == list(fresh.cells)
        assert [c.object_id for c in cells[n:]] == [o.id for o in scene.objects]
        assert support_cells(scene, include_objects=False) == list(fresh.cells)
        assert scene.terrain.solids == fresh.solids
        assert scene.terrain.slopes == fresh.slopes == tuple(
            c for c in fresh.cells if c.kind == "slope")

    def test_racing_threads_derive_equal_parts(self):
        # parts fill without a lock: threads that race on a fresh terrain
        # each derive a part, and every one of them reads equal values
        import sys
        import threading

        from tabletamp.scenarios import build_scenario

        features = tuple(build_scenario("slot").scene_template.terrain)
        expected = twin.Terrain(features)
        expected = (expected.cells, expected.solids, expected.slopes)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                terrain = twin.Terrain(features)
                start = threading.Barrier(4)
                seen = []

                def read():
                    start.wait(timeout=10)
                    seen.append((terrain.cells, terrain.solids, terrain.slopes))

                threads = [threading.Thread(target=read) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert seen == [expected] * 4
                assert (terrain.cells, terrain.solids, terrain.slopes) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_returned_lists_are_fresh(self):
        from tabletamp.scenarios import build_scenario

        scene = build_scenario("slot").scene_template
        cells = support_cells(scene)
        expected = list(cells)
        cells.clear()
        assert support_cells(scene) == expected

    def test_cell_polygon_is_built_once(self):
        scene = base_scene(objects=[make_box()])
        for cell in support_cells(scene):
            assert cell.polygon is cell.polygon
            assert cell.polygon.vertices == cell.ring


class TestWorldObbCache:
    def test_world_box_is_derived_once_and_equals_the_formula(self):
        # the formula is the composition with an identity shape offset that
        # the box was derived by before the offset went; its second
        # quaternion normalization sets the bits of some boxes, so every
        # trace depends on it
        rng = np.random.default_rng(151)
        for i in range(1200):
            q = quat_from_yaw(rng.uniform(-math.pi, math.pi)) if i % 2 else random_unit_quat(rng)
            obj = RigidObject("b", tuple(rng.uniform(0.01, 0.1, size=3)),
                              Pose6D(tuple(rng.uniform(-0.5, 0.5, size=3)), q))
            box = obj.world_obb()
            assert obj.world_obb() is box
            assert box == Obb(Pose6D(obj.pose.transform_point((0.0, 0.0, 0.0)),
                                     quat_mul(obj.pose.orientation, (1.0, 0.0, 0.0, 0.0))),
                              obj.half_extents)
            moved = obj.at_pose(Pose6D((0.1, 0.2, 0.5)))
            assert moved.world_obb() != box
            assert moved.world_obb() == dataclasses.replace(obj, pose=moved.pose).world_obb()

    def test_unchanged_pose_is_the_same_object(self):
        obj = make_box(x=0.1, y=-0.2, yaw=0.3)
        box = obj.world_obb()
        same = Pose6D(list(obj.pose.position), list(obj.pose.orientation))
        assert same is not obj.pose
        assert obj.at_pose(same) is obj and obj.at_pose(obj.pose) is obj
        assert obj.at_pose(same).world_obb() is box

    @pytest.mark.parametrize("pose", [
        ((0.1, -0.2, 0.45), quat_from_yaw(0.3)),
        ((0.0, 0.0, 0.45), (1.0, 0.0, 0.0, 0.0)),
        ((-0.0, 0.0, 0.45), (0.0, 1.0, -0.0, 0.0)),
    ], ids=["tilted", "zeros", "negative-zeros"])
    def test_any_changed_bit_gives_a_new_object(self, pose):
        obj = make_box().at_pose(Pose6D(*pose))
        fields = list(obj.pose.position) + list(obj.pose.orientation)
        changed_poses = 0
        for i, value in enumerate(fields):
            # the next float up, and for a zero the zero of the other sign,
            # which equals it but prints apart in a trace
            changed = list(fields)
            changed[i] = -value if value == 0.0 else math.nextafter(value, math.inf)
            new_pose = Pose6D(tuple(changed[:3]), tuple(changed[3:]))
            if repr(new_pose) == repr(obj.pose):
                # normalizing the quaternion took the extra ulp back out
                assert i >= 3 and value != 0.0 and obj.at_pose(new_pose) is obj
                continue
            changed_poses += 1
            moved = obj.at_pose(new_pose)
            assert moved is not obj and moved.pose is new_pose
            assert moved == dataclasses.replace(obj, pose=new_pose)
        assert changed_poses >= 5

    def test_copies_keep_every_field(self):
        tool = twin.ToolSpec("hook", 0.2, (0.1, 0.0, 0.0))
        obj = make_box("stick", tool_spec=tool)
        pose = Pose6D((0.1, -0.1, TABLE_H + 0.05), quat_from_yaw(0.3))
        assert obj.at_pose(pose) == dataclasses.replace(obj, pose=pose)
        scene = dataclasses.replace(
            base_scene([obj, make_box("other", x=0.2)], role="execution"),
            held_id="stick",
        )
        moved = obj.at_pose(pose)
        assert scene.replace_object(moved) == dataclasses.replace(
            scene, objects=(moved, scene.objects[1]))


def rotation_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def box_local(box, pts):
    """Points in the box frame, with the box's half extents."""
    c = np.array(box.center_pose.position)
    return (pts - c) @ rotation_matrix(box.center_pose.orientation), np.array(box.half_extents)


def box_samples(rng, box, n):
    """n points drawn uniformly from the box volume."""
    h = np.array(box.half_extents)
    local = rng.uniform(-1.0, 1.0, size=(n, 3)) * h
    return np.array(box.center_pose.position) + local @ rotation_matrix(box.center_pose.orientation).T


def box_grid(box, spacing):
    """A grid over the box volume: every point of the box lies within
    spacing * sqrt(3) / 2 of a grid point."""
    axes = [np.linspace(-h, h, int(math.ceil(2.0 * h / spacing)) + 1)
            for h in box.half_extents]
    local = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return np.array(box.center_pose.position) + local @ rotation_matrix(box.center_pose.orientation).T


def box_depth(box, pts):
    """Distance to the nearest face, positive inside."""
    local, h = box_local(box, pts)
    return np.min(h - np.abs(local), axis=1)


def box_distance(box, pts):
    local, h = box_local(box, pts)
    return np.linalg.norm(np.maximum(np.abs(local) - h, 0.0), axis=1)


def ring_depth_and_distance(ring, xy):
    """Per point: depth inside a convex CCW ring (negative outside) and
    distance to it (0 inside)."""
    a = np.array(ring)
    d = np.roll(a, -1, axis=0) - a
    ap = xy[:, None, :] - a[None, :, :]
    length = np.linalg.norm(d, axis=1)
    depth = np.min((d[:, 0] * ap[..., 1] - d[:, 1] * ap[..., 0]) / length, axis=1)
    t = np.clip(np.sum(ap * d, axis=2) / length ** 2, 0.0, 1.0)
    seg = np.linalg.norm(ap - t[..., None] * d, axis=2).min(axis=1)
    return depth, np.where(depth >= 0.0, 0.0, seg)


def prism_depth(solid, pts):
    depth, _ = ring_depth_and_distance(solid.ring, pts[:, :2])
    return np.minimum(depth, np.minimum(pts[:, 2] - solid.z0, solid.z1 - pts[:, 2]))


def prism_distance(solid, pts):
    _, dxy = ring_depth_and_distance(solid.ring, pts[:, :2])
    dz = np.maximum(np.maximum(solid.z0 - pts[:, 2], pts[:, 2] - solid.z1), 0.0)
    return np.hypot(dxy, dz)


# Monte-Carlo oracle for the two box predicates: a pair overlaps clearly when
# a volume sample lies MARGIN deep in both bodies, and is clearly separated
# when every point of a SPACING grid over the box is farther than MARGIN plus
# the grid's covering radius from the other body. Pairs in between are not
# judged. Both predicates test footprints and z intervals, which is exact
# for yaw-only boxes (how objects rest on flat support); for tilted boxes it
# is conservative, so they are held to the overlap half only.
MARGIN = 0.005
SPACING = 0.004
COVER = SPACING * math.sqrt(3.0) / 2.0


def random_box(rng, center, half_range, tilted=False):
    q = random_unit_quat(rng) if tilted else quat_from_yaw(rng.uniform(-math.pi, math.pi))
    return Obb(Pose6D(tuple(center), q), tuple(rng.uniform(*half_range, size=3)))


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return tuple(q / np.linalg.norm(q))


class TestObbsOverlap:
    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(43)
        overlaps = separations = 0
        for i in range(300):
            tilted = i % 3 == 0
            a = random_box(rng, (0.0, 0.0, 0.0), (0.01, 0.06), tilted)
            b = random_box(rng, rng.uniform(-0.09, 0.09, size=3), (0.01, 0.06), tilted)
            pts = box_samples(rng, a, 2000)
            if (np.minimum(box_depth(a, pts), box_depth(b, pts)) >= MARGIN).any():
                assert obbs_overlap(a, b) and obbs_overlap(b, a), i
                overlaps += 1
            elif not tilted and box_distance(b, box_grid(a, SPACING)).min() - COVER > MARGIN:
                assert not obbs_overlap(a, b) and not obbs_overlap(b, a), i
                separations += 1
        assert overlaps >= 60 and separations >= 60, (overlaps, separations)


class TestBoxHitsSolids:
    def test_monte_carlo_oracle(self):
        from tabletamp.scenarios import SCENARIO_IDS, build_scenario

        rng = np.random.default_rng(47)
        hits = misses = 0
        for name in SCENARIO_IDS:
            scene = build_scenario(name).scene_template
            solids = scene.terrain.solids
            for _ in range(30):
                center = (*rng.uniform(-0.45, 0.45, size=2), TABLE_H + rng.uniform(-0.04, 0.12))
                box = random_box(rng, center, (0.01, 0.05))
                pts = box_samples(rng, box, 2000)
                inside = box_depth(box, pts)
                if any((np.minimum(inside, prism_depth(s, pts)) >= MARGIN).any() for s in solids):
                    for tol in (1e-6, 1e-3):
                        assert box_hits_solids(scene, box, tol=tol, include_slopes=False), name
                    hits += 1
                    continue
                grid = box_grid(box, SPACING)
                if min(prism_distance(s, grid).min() for s in solids) - COVER > MARGIN:
                    for tol in (1e-6, 1e-3):
                        assert box_hits_solids(scene, box, tol=tol, include_slopes=False) is None, name
                    misses += 1
        assert hits >= 40 and misses >= 40, (hits, misses)


# In-test copies of the three predicates without their bounding-box rejects.

def unfiltered_box_hits_solids(scene, box, tol=1e-6, climb_tol=0.0):
    bottom, top = box.bottom_z(), box.top_z()
    hull = convex_hull([(c[0], c[1]) for c in box.corners()])
    if len(hull) < 3:
        return None
    for solid in scene.terrain.solids:
        if bottom + climb_tol >= solid.z1 - tol or top <= solid.z0 + tol:
            continue
        if ring_area(clip_convex(hull, list(solid.ring))) > twin._AREA_TOL:
            return solid
    return None


def unfiltered_obbs_overlap(a, b, tol=1e-9):
    if a.bottom_z() >= b.top_z() - tol or b.bottom_z() >= a.top_z() - tol:
        return False
    ha = convex_hull([(c[0], c[1]) for c in a.corners()])
    hb = convex_hull([(c[0], c[1]) for c in b.corners()])
    if len(ha) < 3 or len(hb) < 3:
        return False
    return ring_area(clip_convex(ha, hb)) > tol


def unfiltered_support_pieces(scene, hull):
    out = []
    for cell in support_cells(scene):
        piece = clip_convex(list(hull), list(cell.ring))
        if ring_area(piece) <= twin._AREA_TOL:
            continue
        out.append((max(cell.height_at(p) for p in piece), cell, piece))
    return out


def seeded_box(rng, i, z):
    """A box near the origin; a third are tilted, half of those slightly,
    which gives their footprint hull very short edges."""
    half = tuple(rng.uniform(0.01, 0.06, size=3))
    if i % 3:
        q = quat_from_yaw(rng.uniform(-math.pi, math.pi))
    elif i % 2:
        q = random_unit_quat(rng)
    else:
        axis = (*rng.normal(size=2), 0.0)
        q = quat_mul(quat_from_axis_angle(axis, rng.uniform(1e-9, 1e-3)),
                     quat_from_yaw(rng.uniform(-math.pi, math.pi)))
    return Obb(Pose6D((0.0, 0.0, z), q), half)


def beside(rng, box, target_bounds):
    """The box moved next to target_bounds, its bounds 0 to 1e-9 away on a
    random side (0 for a quarter of the boxes), or over it."""
    xmin, xmax, ymin, ymax = box.xy_bounds
    txmin, txmax, tymin, tymax = target_bounds
    gap = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 1e-9)
    dx = rng.uniform(txmin - xmax, txmax - xmin)
    dy = rng.uniform(tymin - ymax, tymax - ymin)
    side = rng.integers(5)
    if side == 0:
        dx = txmin - gap - xmax
    elif side == 1:
        dx = txmax + gap - xmin
    elif side == 2:
        dy = tymin - gap - ymax
    elif side == 3:
        dy = tymax + gap - ymin
    p = box.center_pose
    return Obb(Pose6D((p.x + dx, p.y + dy, p.z), p.orientation), box.half_extents)


class TestBoundsRejects:
    """box_hits_solids, obbs_overlap and _support_pieces skip pairs whose xy
    bounds are strictly apart; they must answer what they answer without."""

    SCENARIOS = ("box", "book", "edge", "wall", "slope", "slot", "tool_hook",
                 "tool_pusher")

    def test_box_hits_solids(self):
        from tabletamp.scenarios import build_scenario

        rng = np.random.default_rng(61)
        skipped = checked = 0
        for name in self.SCENARIOS:
            scene = build_scenario(name).scene_template
            for solid in scene.terrain.solids:
                for i in range(24):
                    z = rng.uniform(solid.z0, solid.z1)
                    box = beside(rng, seeded_box(rng, i, z), solid.polygon.bounds)
                    skipped += bounds_disjoint(box.xy_bounds, solid.polygon.bounds)
                    for tol, climb in ((1e-6, 0.0), (1e-6, 0.012), (1e-3, 0.0)):
                        got = box_hits_solids(scene, box, tol=tol, climb_tol=climb,
                                              include_slopes=False)
                        assert got is unfiltered_box_hits_solids(scene, box, tol, climb)
                    checked += 1
        assert checked >= 200 and 0.2 * checked < skipped < 0.9 * checked

    def test_obbs_overlap(self):
        rng = np.random.default_rng(67)
        skipped = 0
        for i in range(600):
            a = seeded_box(rng, i, 0.0)
            b = beside(rng, seeded_box(rng, i + 1, rng.uniform(-0.03, 0.03)), a.xy_bounds)
            skipped += bounds_disjoint(a.xy_bounds, b.xy_bounds)
            for tol in (1e-9, 1e-7):
                assert obbs_overlap(a, b, tol) == unfiltered_obbs_overlap(a, b, tol), i
                assert obbs_overlap(b, a, tol) == unfiltered_obbs_overlap(b, a, tol), i
        assert 120 < skipped < 540

    def test_support_pieces(self):
        from tabletamp.scenarios import build_scenario

        rng = np.random.default_rng(71)
        skipped = checked = 0
        for name in self.SCENARIOS:
            scene = build_scenario(name).scene_template
            for cell in support_cells(scene):
                for i in range(12):
                    box = beside(rng, seeded_box(rng, i, 0.5), cell.bounds)
                    skipped += bounds_disjoint(box.xy_bounds, cell.bounds)
                    expected = unfiltered_support_pieces(scene, box.xy_hull)
                    assert twin._support_pieces(scene, None, list(box.xy_hull)) == expected
                    checked += 1
        assert checked >= 200 and 0.2 * checked < skipped < 0.9 * checked


def eager_box_hits_solids(scene, box, tol=1e-6, climb_tol=0.0, include_slopes=True):
    """box_hits_solids as it was: the box's xy hull first, for every box."""
    bottom, top = box.bottom_z(), box.top_z()
    hull = box.xy_hull
    if len(hull) < 3:
        return None
    for solid in scene.terrain.solids:
        if bottom + climb_tol >= solid.z1 - tol or top <= solid.z0 + tol:
            continue
        if bounds_disjoint(box.xy_bounds, solid.polygon.bounds):
            continue
        if ring_area(clip_convex(hull, solid.ring)) > twin._AREA_TOL:
            return solid
    if include_slopes and twin._slope_penetration(scene, box, tol, climb_tol):
        return twin.Solid(hull, 0.0, 0.0, label="slope")
    return None


class TestCheckedOnce:
    """Values the twin derives from checked values skip the checks; each
    must equal what the checked construction gives."""

    def test_box_hits_solids_equals_eager_body(self):
        from tabletamp.scenarios import SCENARIO_IDS, build_scenario

        rng = np.random.default_rng(197)
        outcomes = {"solid": 0, "slope": 0, "miss": 0}
        for name in SCENARIO_IDS:
            scene = build_scenario(name).scene_template
            boxes = []
            for solid in scene.terrain.solids:
                for i in range(16):
                    z = rng.uniform(solid.z0 - 0.03, solid.z1 + 0.03)
                    boxes.append(beside(rng, seeded_box(rng, i, z), solid.polygon.bounds))
            for slope in scene.terrain.slopes:
                xmin, xmax, ymin, ymax = slope.bounds
                for i in range(96):
                    x, y = rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)
                    z = slope.height_at((x, y)) + rng.uniform(-0.02, 0.05)
                    box = seeded_box(rng, i, z)
                    # every eighth a needle, whose corners round onto one xy point
                    half = (1e-20, 1e-20, 0.05) if i % 8 == 0 else box.half_extents
                    boxes.append(Obb(Pose6D((x, y, z), box.center_pose.orientation), half))
            for i in range(24):
                # corners that round onto one xy point give no hull
                half = (1e-20, 1e-20, 0.05) if i % 2 else tuple(rng.uniform(0.01, 0.06, size=3))
                center = (*rng.uniform(-0.6, 0.6, size=2), rng.uniform(0.3, 0.5))
                boxes.append(Obb(Pose6D(center), half))
            for box in boxes:
                for tol, climb, slopes in ((1e-6, 0.0, True), (1e-6, twin.PUSH_CLIMB_TOL, False),
                                           (1e-3, 0.0, True), (2e-3, 0.0, False),
                                           (1e-6, twin.PUSH_CLIMB_TOL, True)):
                    # each call on a fresh copy, so neither sees the other's
                    # derived hull
                    expected = eager_box_hits_solids(
                        scene, Obb(box.center_pose, box.half_extents), tol, climb, slopes)
                    got = box_hits_solids(scene, Obb(box.center_pose, box.half_extents),
                                          tol=tol, climb_tol=climb, include_slopes=slopes)
                    assert got == expected, name
                    if expected is None:
                        outcomes["miss"] += 1
                    elif expected.label == "slope":
                        outcomes["slope"] += 1
                    else:
                        assert got is expected
                        outcomes["solid"] += 1
        assert min(outcomes.values()) > 100, outcomes

    def test_derived_objects_equal_checked_constructions(self):
        rng = np.random.default_rng(199)
        tool = twin.ToolSpec("hook", 0.2, (0.1, 0.0, 0.0))
        for i in range(300):
            q = quat_from_yaw(rng.uniform(-math.pi, math.pi)) if i % 2 else random_unit_quat(rng)
            obj = RigidObject("b", tuple(rng.uniform(0.01, 0.1, size=3)),
                              Pose6D(tuple(rng.uniform(-0.5, 0.5, size=3)), q),
                              tool_spec=tool if i % 3 == 0 else None)
            pose = Pose6D(tuple(rng.uniform(-0.5, 0.5, size=3)), random_unit_quat(rng))
            moved = obj.at_pose(pose)
            checked = RigidObject(obj.id, obj.half_extents, pose, obj.tool_spec)
            assert vars(moved) == vars(checked) and repr(moved) == repr(checked)
            assert hash(moved) == hash(checked)
            for o in (obj, moved):
                box = o.world_obb()
                expected = Obb(Pose6D(o.pose.position, o.pose.orientation), o.half_extents)
                assert box == expected and repr(box) == repr(expected)
                assert box.corners() == expected.corners()

            scene = base_scene([make_box("other", x=0.3), obj])
            scene = dataclasses.replace(scene, held_id="other") if i % 2 else scene
            replaced = scene.replace_object(moved)
            expected = TwinScene(scene.terrain, (scene.objects[0], moved), scene.role,
                                 scene.held_id)
            assert vars(replaced) == vars(expected)
            assert replaced.terrain is scene.terrain

            # each object derives its support cell once
            cells = [c for c in support_cells(replaced) if c.kind == "object"]
            again = [c for c in support_cells(replaced) if c.kind == "object"]
            assert all(a is b for a, b in zip(cells, again))
            formula = []
            for o in replaced.objects:
                box = o.world_obb()
                if o.id != replaced.held_id and len(box.xy_hull) >= 3:
                    formula.append(twin.SupportCell(box.xy_hull, "object", box.top_z(),
                                                    object_id=o.id))
            assert cells == formula

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Pose6D((0.0, 0.0)), ValueError, "position must be 3 finite floats"),
        (lambda: Pose6D((0.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0)), ValueError,
         "not unit norm"),
        (lambda: Polygon2(((0.0, 0.0), (3.0, 0.0), (3.0, 3.0), (2.0, 3.0), (2.0, -1.0),
                           (1.0, -1.0), (1.0, 3.0), (0.0, 3.0))),
         ValueError, "polygon must be simple"),
        (lambda: Polygon2(((0.0, 0.0), (0.0, 1.0), (1.0, 0.0))), ValueError,
         "counter-clockwise"),
        (lambda: Obb(Pose6D((0.0, 0.0, 0.0)), (0.1, 0.0, 0.1)), ValueError,
         "half extents must be strictly positive"),
        (lambda: make_box(half=(0.1, -0.1, 0.1)), ValueError,
         "half extents must be 3 positive"),
        (lambda: base_scene([make_box(), make_box()]), ValueError,
         "object ids must be unique"),
        (lambda: base_scene([make_box()], role="real"), ValueError, "role must be"),
        (lambda: dataclasses.replace(base_scene([make_box()]), held_id="cup"), ValueError,
         "not in scene"),
        (lambda: base_scene([make_box()]).replace_object(make_box("cup")), KeyError,
         "no object 'cup'"),
    ], ids=["pose-short", "pose-norm", "polygon-simple", "polygon-cw", "obb-half",
            "object-half", "scene-ids", "scene-role", "scene-held",
            "replace-unknown"])
    def test_public_constructors_still_check(self, build, error, message):
        with pytest.raises(error, match=message):
            build()


def ref_support_height_at(cells, p):
    """support_height_at without its bounding-box reject."""
    best = None
    for cell in cells:
        if len(cell.ring) < 3:
            continue
        if twin.point_in_polygon(p, cell.polygon):
            h = cell.height_at(p)
            if best is None or h > best:
                best = h
    return best


def touching_hull(rng, x0, x1, y0, y1):
    """A convex ring inside the rectangle, with vertices on its edges and
    corners: random points past the rectangle clamped onto it."""
    xs = np.clip(rng.uniform(x0 - 0.3 * (x1 - x0), x1 + 0.3 * (x1 - x0), size=8), x0, x1)
    ys = np.clip(rng.uniform(y0 - 0.3 * (y1 - y0), y1 + 0.3 * (y1 - y0), size=8), y0, y1)
    return convex_hull([(float(x), float(y)) for x, y in zip(xs, ys)])


class TestClosedFormSupport:
    """support_height_at and _support_pieces answer from the cell bounds
    where those settle the result; they must equal the bodies without."""

    SCENARIOS = TestBoundsRejects.SCENARIOS

    def test_support_height_at_equals_unfiltered_loop(self):
        from tabletamp.scenarios import build_scenario

        rng = np.random.default_rng(191)
        checked = 0
        for name in self.SCENARIOS:
            scene = build_scenario(name).scene_template
            cells = support_cells(scene)
            for cell in cells:
                xmin, xmax, ymin, ymax = cell.bounds
                pts = list(cell.ring)
                for (ax, ay), (bx, by) in zip(cell.ring, cell.ring[1:] + cell.ring[:1]):
                    pts.append((0.5 * (ax + bx), 0.5 * (ay + by)))
                # on, within and just past the 2e-9 slack of the reject
                for d in (0.0, 1e-9, 2e-9, 2.0000001e-9, 3e-9, 1e-6):
                    pts += [(xmin - d, ymin), (xmax + d, ymax), (xmin, ymax + d),
                            (xmax, ymin - d)]
                for fx, fy in rng.uniform(-0.2, 1.2, size=(40, 2)):
                    pts.append((xmin + fx * (xmax - xmin), ymin + fy * (ymax - ymin)))
                for p in pts:
                    assert repr(twin.support_height_at(cells, p)) == repr(
                        ref_support_height_at(cells, p))
                    checked += 1
        assert checked > 2000

    def test_rect_flags_ccw_axis_aligned_rectangles_only(self):
        square = ((0.0, 0.0), (1.0, 0.0), (1.0, 2.0), (0.0, 2.0))
        for k in range(4):
            ring = square[k:] + square[:k]  # horizontal or vertical edge first
            assert twin.SupportCell(ring, "table_surface", 0.4).rect
            clockwise = tuple(reversed(ring))
            assert not twin.SupportCell(clockwise, "table_surface", 0.4).rect
        rotated = rect_polygon(0.0, 0.0, 0.5, 1.0, yaw=0.3).vertices
        five = ((0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.0, 2.0), (0.0, 2.0))
        flat = ((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 0.0))
        for ring in (rotated, five, flat, square[:3]):
            assert not twin.SupportCell(ring, "table_surface", 0.4).rect
        for name in self.SCENARIOS:
            from tabletamp.scenarios import build_scenario

            scene = build_scenario(name).scene_template
            assert all(cell.rect for cell in scene.terrain.cells)

    def test_contained_hull_is_its_own_piece(self):
        rng = np.random.default_rng(193)
        contained = 0
        for i in range(60):
            x0, y0 = rng.uniform(-1.0, 1.0, size=2)
            x1, y1 = x0 + rng.uniform(0.01, 1.0), y0 + rng.uniform(0.01, 1.0)
            x0, x1, y0, y1 = float(x0), float(x1), float(y0), float(y1)
            rect = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
            hulls = [touching_hull(rng, x0, x1, y0, y1) for _ in range(4)]
            hulls.append([rect[0], rect[1], rect[2], rect[3]])  # the cell itself
            # a box's resting face somewhere around the rectangle
            pose = Pose6D((float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1)), 0.5),
                          quat_from_yaw(rng.uniform(-math.pi, math.pi)))
            hulls.append(list(Obb(pose, tuple(rng.uniform(0.005, 0.3, size=3))).resting_face()))
            for k in range(4):
                ring = rect[k:] + rect[:k]
                table = TerrainFeature("table_surface", Polygon2(ring), 0.4, name="t")
                scene = TwinScene(terrain=(table,), objects=())
                (cell,) = support_cells(scene)
                assert cell.rect
                for hull in hulls:
                    for j in range(len(hull)):
                        start = hull[j:] + hull[:j]
                        hx0, hx1, hy0, hy1 = twin.ring_bounds(start)
                        contained += (x0 <= hx0 and hx1 <= x1 and y0 <= hy0 and hy1 <= y1)
                        got = twin._support_pieces(scene, None, tuple(start))
                        assert repr(got) == repr(unfiltered_support_pieces(scene, start))
        assert contained > 4000


class TestCellUnder:
    def test_table_center(self):
        scene = base_scene()
        cell = cell_under(scene.terrain.cells, (0.0, 0.0))
        assert cell.kind == "table_surface"
        assert cell.height_at((0.0, 0.0)) == pytest.approx(TABLE_H)

    def test_void_beyond_everything(self):
        scene = base_scene()
        assert cell_under(scene.terrain.cells, (2.5, 0.0)) is None

    def test_slot_opening(self):
        slot = TerrainFeature("slot", rect_polygon(0.0, 0.1, 0.15, 0.02), TABLE_H,
                              {"depth": 0.025}, name="groove")
        scene = base_scene(terrain_extra=[slot])
        cell = cell_under(scene.terrain.cells, (0.0, 0.1))
        assert cell.kind == "slot"
        assert cell.height_at((0.0, 0.1)) == pytest.approx(TABLE_H - 0.025)

    def test_wall_top(self):
        wall = TerrainFeature("wall", rect_polygon(0.0, 0.39, 0.4, 0.01), TABLE_H,
                              {"height": 0.03}, name="rail")
        scene = base_scene(terrain_extra=[wall])
        cell = cell_under(scene.terrain.cells, (0.0, 0.39))
        assert cell.kind == "wall"
        assert cell.height_at((0.0, 0.39)) == pytest.approx(TABLE_H + 0.03)


def ref_top_height_at(feature, p):
    """A terrain feature's top height at a contained point, by its kind."""
    if feature.kind == "slot":
        return feature.height - feature.extra["depth"]
    if feature.kind == "wall":
        return feature.height + feature.extra["height"]
    if feature.kind == "slope":
        d = feature.extra["downhill"]
        s_min = min(v[0] * d[0] + v[1] * d[1] for v in feature.footprint.vertices)
        s = p[0] * d[0] + p[1] * d[1]
        return feature.height - math.tan(math.radians(feature.extra["angle_deg"])) * (s - s_min)
    return feature.height


def ref_surface_under(scene, point):
    """The highest terrain feature whose footprint contains the point, with
    its top height; a slot cut into a surface takes precedence over it."""
    containing = [t for t in scene.terrain if point_in_polygon(point, t.footprint)]
    if not containing:
        return None
    slots = [t for t in containing if t.kind == "slot"]
    if slots:
        return slots[0], ref_top_height_at(slots[0], point)
    best = max(containing, key=lambda t: ref_top_height_at(t, point))
    return best, ref_top_height_at(best, point)


def terrain_probe_points(rng, scene):
    """Seeded points over and beyond a scene's terrain, plus every feature's
    vertices and edge midpoints and points 1e-10 to 1e-3 off them."""
    points = [tuple(p) for p in rng.uniform(-1.3, 1.3, size=(300, 2))]
    for t in scene.terrain:
        x0, x1, y0, y1 = t.footprint.bounds
        points += [tuple(p) for p in rng.uniform((x0, y0), (x1, y1), size=(60, 2))]
        for a, b in t.footprint.edges():
            for x, y in (a, (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))):
                for d in (0.0, 1e-10, -1e-10, 1e-6, -1e-6, 1e-3, -1e-3):
                    points += [(x + d, y), (x, y + d)]
    return points


class TestTerrainUnderOracle:
    def test_cells_give_the_feature_rule(self):
        # the highest terrain cell gives the kind and the height, bit for
        # bit, of the feature rule above; the one difference is a point
        # within the boundary tolerance of a slot's edge, which both the
        # slot and a table piece contain: the rule's slot precedence gave
        # the slot, the cells give the higher table piece
        from tabletamp.scenarios import SCENARIO_IDS, build_scenario

        rng = np.random.default_rng(18)
        void = slope = slot_edge = 0
        for name in SCENARIO_IDS:
            scene = build_scenario(name).scene_template
            for p in terrain_probe_points(rng, scene):
                old = ref_surface_under(scene, p)
                cell = cell_under(scene.terrain.cells, p)
                if old is None:
                    assert cell is None, (name, p)
                    void += 1
                    continue
                feature, h = old
                if (cell.kind, repr(cell.height_at(p))) == (feature.kind, repr(h)):
                    slope += feature.kind == "slope"
                    continue
                assert feature.kind == "slot" and cell.kind == "table_surface", (name, p)
                assert feature.footprint.boundary_distance(p) <= 1e-9, (name, p)
                assert cell.height_at(p) == feature.height
                slot_edge += 1
        assert void > 100 and slope > 100 and slot_edge > 10


class TestPlaceAt:
    def test_identity_placement_keeps_scene(self):
        box = make_box()
        scene = base_scene([box])
        out = place_at(scene, "box", box.pose)
        assert out.object("box").pose == box.pose

    def test_unknown_id(self):
        scene = base_scene([make_box()])
        with pytest.raises(KeyError):
            place_at(scene, "ghost", make_box().pose)

    def test_overlap_raises(self):
        a = make_box("a", x=0.0)
        b = make_box("b", x=0.3)
        scene = base_scene([a, b])
        with pytest.raises(PlacementCollision):
            place_at(scene, "b", Pose6D((0.02, 0.0, TABLE_H + 0.05)))

    def test_wall_overlap_raises(self):
        wall = TerrainFeature("wall", rect_polygon(0.0, 0.2, 0.2, 0.01), TABLE_H,
                              {"height": 0.05}, name="rail")
        scene = base_scene([make_box()], terrain_extra=[wall])
        with pytest.raises(PlacementCollision):
            place_at(scene, "box", Pose6D((0.0, 0.2, TABLE_H + 0.05)))


class TestRestOnSupport:
    def test_collision_is_none(self):
        scene = base_scene([make_box("a", x=0.0), make_box("b", x=0.3)])
        assert rest_on_support(scene, "b", Pose6D((0.02, 0.0, TABLE_H + 0.05))) is None

    def test_topple_is_none(self):
        scene = base_scene([make_box()])
        pose = Pose6D((TABLE_HALF + 0.01, 0.0, TABLE_H + 0.05))
        assert settle(place_at(scene, "box", pose), "box").status != "stable"
        assert rest_on_support(scene, "box", pose) is None

    def test_bare_ground_rest_is_none(self):
        scene = base_scene([make_box()])
        pose = Pose6D((1.0, 1.0, 0.05))
        assert settle(place_at(scene, "box", pose), "box").status == "stable"
        assert rest_on_support(scene, "box", pose) is None

    def test_stable_rest_returns_rested_scene(self):
        scene = base_scene([make_box()])
        rest = rest_on_support(scene, "box", Pose6D((0.1, -0.1, TABLE_H + 0.2)))
        assert rest is not None
        rested, outcome = rest
        assert outcome.status == "stable"
        assert outcome.final_pose.z == pytest.approx(TABLE_H + 0.05)
        assert rested.object("box").pose == outcome.final_pose


class TestOverlappingObject:
    def test_skips_the_object_itself(self):
        a = make_box("a")
        scene = base_scene([a])
        assert overlapping_object(scene, a.world_obb(), "a") is None
        assert overlapping_object(scene, a.world_obb(), "other").id == "a"

    def test_skips_the_held_object(self):
        a = make_box("a", x=-0.2)
        b = make_box("b", x=0.2)
        scene = base_scene([a, b])
        probe = a.at_pose(b.pose).world_obb()
        assert overlapping_object(scene, probe, "a").id == "b"
        assert overlapping_object(scene.with_held("b"), probe, "a") is None


class TestSettle:
    def test_flat_box_is_stable_and_unmoved(self):
        box = make_box(x=0.1, y=-0.1, yaw=0.3)
        scene = base_scene([box])
        out = settle(scene, "box")
        assert out.status == "stable"
        assert out.final_pose.x == pytest.approx(0.1)
        assert out.final_pose.y == pytest.approx(-0.1)
        assert out.final_pose.yaw == pytest.approx(0.3)
        assert out.final_pose.z == pytest.approx(TABLE_H + 0.05)

    def test_hover_over_void_falls_to_ground(self):
        box = make_box(x=1.0, y=1.0, z=0.9)
        scene = base_scene([box])
        out = settle(scene, "box")
        assert out.status == "fell_off"
        assert out.final_pose.z == pytest.approx(0.05)

    def test_com_one_cm_past_edge_topples(self):
        # analytic oracle: support polygon is the on-table strip, COM at
        # x = 0.41 lies 1 cm outside it, so the settle cannot be stable.
        box = make_box(half=(0.05, 0.05, 0.05), x=TABLE_HALF + 0.01, y=0.0)
        scene = base_scene([box])
        out = settle(scene, "box")
        assert out.status in ("toppled", "fell_off")
        # this table is 0.4 m high and the box 0.1 m: the flip leaves the
        # tabletop entirely, so the resolved state is a fall to the ground
        assert out.status == "fell_off"
        assert out.final_pose.z == pytest.approx(0.05)

    def test_com_just_inside_edge_is_stable(self):
        box = make_box(half=(0.05, 0.05, 0.05), x=TABLE_HALF - 0.01, y=0.0)
        scene = base_scene([box])
        out = settle(scene, "box")
        assert out.status == "stable"

    def test_settle_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            x, y = rng.uniform(-0.5, 0.5, size=2)
            yaw = rng.uniform(-math.pi, math.pi)
            box = make_box(x=x, y=y, yaw=yaw, z=TABLE_H + 0.3)
            scene = base_scene([box])
            first = settle(scene, "box")
            scene2 = scene.replace_object(scene.object("box").at_pose(first.final_pose))
            second = settle(scene2, "box")
            assert second.status == "stable"
            assert np.allclose(second.final_pose.position, first.final_pose.position,
                               atol=1e-9)
            assert geodesic_angle(second.final_pose.orientation,
                                  first.final_pose.orientation) < 1e-7

    def test_stability_matches_analytic_predicate(self):
        # 500 random poses: settle says stable iff the COM ground projection
        # lies inside the support polygon evaluated at the final pose.
        rng = np.random.default_rng(9)
        for _ in range(500):
            x, y = rng.uniform(-0.55, 0.55, size=2)
            yaw = rng.uniform(-math.pi, math.pi)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            tilt = quat_from_axis_angle(tuple(axis), rng.uniform(0, math.pi))
            box = make_box(half=(0.06, 0.04, 0.02), x=x, y=y, z=TABLE_H + 0.2,
                           orientation=tilt)
            scene = base_scene([box])
            out = settle(scene, "box")
            final_scene = scene.replace_object(scene.object("box").at_pose(out.final_pose))
            margin = stability_margin(final_scene, "box")
            if out.status == "stable":
                assert margin >= -1e-9
            else:
                # failure states rest on the ground; the predicate holds there
                assert out.status in ("toppled", "fell_off")

    def test_bridging_a_slot_is_stable(self):
        slot = TerrainFeature("slot", rect_polygon(0.0, 0.0, 0.15, 0.02), TABLE_H,
                              {"depth": 0.025}, name="groove")
        card = make_box("card", half=(0.05, 0.03, 0.004), x=0.0, y=0.0,
                        z=TABLE_H + 0.004)
        scene = base_scene([card], terrain_extra=[slot])
        out = settle(scene, "card")
        assert out.status == "stable"
        assert out.final_pose.z == pytest.approx(TABLE_H + 0.004)

    def test_narrow_object_drops_into_slot(self):
        slot = TerrainFeature("slot", rect_polygon(0.0, 0.0, 0.15, 0.02), TABLE_H,
                              {"depth": 0.025}, name="groove")
        pin = make_box("pin", half=(0.01, 0.01, 0.01), x=0.0, y=0.0, z=TABLE_H + 0.2)
        scene = base_scene([pin], terrain_extra=[slot])
        out = settle(scene, "pin")
        assert out.status == "stable"
        assert out.final_pose.z == pytest.approx(TABLE_H - 0.025 + 0.01)

    def test_slope_rest_is_tilted(self):
        slope = TerrainFeature(
            "slope", rect_polygon(0.0, 0.0, 0.12, 0.0824), TABLE_H + 0.06,
            {"angle_deg": 20.0, "downhill": (0.0, -1.0)}, name="wedge",
        )
        card = make_box("card", half=(0.05, 0.03, 0.004), x=0.0, y=0.0,
                        z=TABLE_H + 0.2)
        scene = base_scene([card], terrain_extra=[slope])
        out = settle(scene, "card")
        assert out.status == "stable"
        tilt = geodesic_angle(out.final_pose.orientation, quat_from_yaw(0.0))
        assert tilt == pytest.approx(20.0, abs=0.5)

    @pytest.mark.parametrize("angle, stays", [(26.0, True), (27.0, False)])
    def test_card_slides_off_a_wedge_steeper_than_friction(self, angle, stays):
        # the slope scenario's wedge, 6 cm crest and all, on either side of
        # atan(FRICTION) = 26.57 degrees, with the card at its centre
        from tabletamp.scenarios import build_scenario

        span = 0.06 / math.tan(math.radians(angle))
        cy = 0.05 - span / 2
        wedge = TerrainFeature("slope", rect_polygon(0.0, cy, 0.12, span / 2), TABLE_H + 0.06,
                               {"angle_deg": angle, "downhill": (0.0, -1.0)}, name="wedge")
        template = build_scenario("slope").scene_template
        terrain = twin.Terrain(wedge if t.name == "wedge" else t for t in template.terrain)
        (wedge_cell,) = terrain.slopes
        card = template.object("card")
        card = card.at_pose(Pose6D((0.0, cy, wedge_cell.height_at((0.0, cy)) + 0.004),
                                   card.pose.orientation))
        scene = TwinScene(terrain, (card,))
        out = settle(scene, "card")
        assert out.status == "stable"
        on_wedge = point_in_polygon((out.final_pose.x, out.final_pose.y), wedge.footprint)
        tilt = geodesic_angle(out.final_pose.orientation, quat_from_yaw(0.0))
        if stays:
            assert on_wedge and out.final_pose.y == pytest.approx(cy, abs=0.02)
            assert out.final_pose.z == pytest.approx(0.4345, abs=1e-4)
            assert tilt == pytest.approx(angle, abs=0.5)
        else:
            assert not on_wedge
            assert out.final_pose.z == pytest.approx(TABLE_H + 0.004)
            assert tilt == pytest.approx(0.0, abs=1e-6)

    def test_stack_on_other_object(self):
        base = make_box("base", half=(0.08, 0.08, 0.03))
        top = make_box("top", half=(0.03, 0.03, 0.02), z=TABLE_H + 0.5)
        scene = base_scene([base, top])
        out = settle(scene, "top")
        assert out.status == "stable"
        assert out.final_pose.z == pytest.approx(TABLE_H + 0.06 + 0.02)


def ref_stability_margin(scene, object_id):
    """stability_margin with a 1e-6 height band in place of settle's 2 mm."""
    obj = scene.object(object_id)
    scored = twin._support_pieces(scene, obj.id, obj.world_obb().resting_face())
    raised = [(h, c, p) for h, c, p in scored if c.kind != "ground"] or scored
    if not raised:
        return -math.inf
    h_star = max(h for h, _, _ in raised)
    hull = convex_hull([v for h, _, piece in raised if h >= h_star - 1e-6 for v in piece])
    if len(hull) < 3:
        return -math.inf
    return twin.signed_interior_margin((obj.pose.x, obj.pose.y), twin.hull_polygon(hull))


class TestSupportPolygon:
    def test_margin_equals_the_narrow_band_on_rested_candidates(self, monkeypatch):
        # the margin is measured on the polygon settle judges stability on;
        # over every candidate that rehearsal rests at seeds 0-9, no support
        # piece lies between 1e-6 and 2 mm below the top, so the margin is
        # the one a 1e-6 band gives
        from tabletamp import subgoal
        from tabletamp.harness import run_episode
        from tabletamp.scenarios import SCENARIO_IDS, build_scenario

        rested = []

        def recording(scene, object_id):
            rested.append((scene, object_id))
            return stability_margin(scene, object_id)

        monkeypatch.setattr(subgoal, "stability_margin", recording)
        for name in SCENARIO_IDS:
            for seed in range(10):
                run_episode(build_scenario(name), seed)
        assert len(rested) > 2000
        for scene, object_id in rested:
            assert repr(stability_margin(scene, object_id)) == repr(
                ref_stability_margin(scene, object_id))


class TestApplyPush:
    def test_push_through_com_translates_without_yaw(self):
        box = make_box()
        scene = base_scene([box])
        contact = (-0.05, 0.0, TABLE_H + 0.05)
        out, delta = apply_push(scene, "box", contact, (1.0, 0.0), 0.01)
        assert delta.dx == pytest.approx(0.01)
        assert abs(delta.dyaw) < 1e-9
        assert out.object("box").pose.x == pytest.approx(0.01)

    def test_lateral_offset_matches_declared_model(self):
        # executable formula check with the documented example inputs
        box = make_box(half=(0.1, 0.1, 0.05))
        scene = base_scene([box])
        contact = (-0.1, 0.05, TABLE_H + 0.05)  # 5 cm lateral of the COM line
        _, delta = apply_push(scene, "box", contact, (1.0, 0.0), 0.01)
        assert abs(delta.dyaw) == pytest.approx(twin.PUSH_KAPPA * 0.05 * 0.01, rel=1e-9)
        assert delta.dyaw < 0  # contact above the COM line turns it clockwise

    def test_push_into_wall_is_blocked(self):
        # box face flush against the wall face: the step clips to nothing
        wall = TerrainFeature("wall", rect_polygon(0.1, 0.0, 0.01, 0.2), TABLE_H,
                              {"height": 0.05}, name="rail")
        box = make_box(x=0.04)
        scene = base_scene([box], terrain_extra=[wall])
        out, delta = apply_push(scene, "box", (-0.01, 0.0, TABLE_H + 0.05),
                                (1.0, 0.0), 0.02)
        assert math.hypot(delta.dx, delta.dy) < 0.02 * scene.push_gain()
        assert abs(delta.dx) < 1e-4
        assert out.object("box").pose.x == pytest.approx(0.04, abs=1e-4)

    def test_displacement_never_exceeds_step(self):
        rng = np.random.default_rng(21)
        box = make_box()
        other = make_box("other", x=0.25)
        wall = TerrainFeature("wall", rect_polygon(-0.2, 0.0, 0.01, 0.2), TABLE_H,
                              {"height": 0.05}, name="rail")
        scene = base_scene([box, other], terrain_extra=[wall])
        from tabletamp.geometry import obbs_overlap

        for _ in range(50):
            ang = rng.uniform(-math.pi, math.pi)
            d = (math.cos(ang), math.sin(ang))
            obj = scene.object("box")
            boundary = obj.world_obb().footprint().closest_boundary_point(
                (obj.pose.x - d[0], obj.pose.y - d[1])
            )
            contact = (boundary[0], boundary[1], obj.pose.z)
            step = rng.uniform(0.002, 0.02)
            scene, delta = apply_push(scene, "box", contact, d, step)
            assert math.hypot(delta.dx, delta.dy) <= step * scene.push_gain() + 1e-9
            # the scene never ends a step with interpenetrating bodies
            assert not obbs_overlap(
                scene.object("box").world_obb(), scene.object("other").world_obb()
            )
            if delta.settle_status == "stable":
                margin = stability_margin(scene, "box")
                assert margin >= -1e-9

    def test_execution_role_scales_gain(self):
        box = make_box()
        scene = base_scene([box], role="execution")
        _, delta = apply_push(scene, "box", (-0.05, 0.0, TABLE_H + 0.05),
                              (1.0, 0.0), 0.01)
        assert delta.dx == pytest.approx(0.01 * 0.85)

    def test_contact_off_surface_rejected(self):
        box = make_box()
        scene = base_scene([box])
        with pytest.raises(ValueError):
            apply_push(scene, "box", (-0.2, 0.0, TABLE_H + 0.05), (1.0, 0.0), 0.01)

    def test_step_cap_enforced(self):
        box = make_box()
        scene = base_scene([box])
        with pytest.raises(ValueError):
            apply_push(scene, "box", (-0.05, 0.0, TABLE_H + 0.05), (1.0, 0.0), 0.05)

    # apply_push keeps the inputs and result of its last clip bisection and
    # reuses them when every input is equal; these pin that reuse to exact.

    PUSH = ((-0.05, 0.01, TABLE_H + 0.05), (1.0, 0.0), 0.02)

    @staticmethod
    def count_bisections(monkeypatch):
        calls = []
        original = twin._clip_fraction

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(twin, "_clip_fraction", counted)
        return calls

    @staticmethod
    def fresh_push(monkeypatch, scene, *push):
        monkeypatch.setattr(twin, "_last_clip", None)
        return apply_push(scene, "box", *push)

    def pinned_scene(self):
        # the box is 1 cm from another box: a 2 cm step is clipped
        return base_scene([make_box(), make_box("other", x=0.11)])

    @pytest.mark.parametrize("blocked", [True, False])
    def test_repeated_push_equals_fresh_call(self, monkeypatch, blocked):
        scene = self.pinned_scene() if blocked else base_scene([make_box()])
        calls = self.count_bisections(monkeypatch)
        fresh = self.fresh_push(monkeypatch, scene, *self.PUSH)
        moved = math.hypot(fresh[1].dx, fresh[1].dy)
        full = self.PUSH[2] * scene.push_gain()
        assert moved < full if blocked else moved == pytest.approx(full)
        first = apply_push(scene, "box", *self.PUSH)
        second = apply_push(scene, "box", *self.PUSH)
        assert first == fresh and second == fresh
        assert len(calls) == 1  # both repeats reused the fresh call's bisection

    @pytest.mark.parametrize("change", ["other-moved", "held", "terrain-copy"])
    def test_changed_input_misses(self, monkeypatch, change):
        scene = self.pinned_scene()
        if change == "other-moved":
            other = scene.object("other")
            changed = scene.replace_object(other.at_pose(
                Pose6D((0.3, 0.0, other.pose.z), other.pose.orientation)))
        elif change == "held":
            changed = scene.with_held("other")
        else:
            changed = dataclasses.replace(scene, terrain=tuple(list(scene.terrain)))
            assert changed.terrain == scene.terrain
            assert changed.terrain is not scene.terrain
        expected = self.fresh_push(monkeypatch, changed, *self.PUSH)
        primed = self.fresh_push(monkeypatch, scene, *self.PUSH)
        if change != "terrain-copy":
            assert primed[1] != expected[1]  # the change matters to the result
        calls = self.count_bisections(monkeypatch)
        assert apply_push(changed, "box", *self.PUSH) == expected
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["wall", "edge"])
    def test_episodes_match_without_reuse(self, monkeypatch, name):
        from tabletamp import control
        from tabletamp.harness import episode_trace_json, run_episode
        from tabletamp.scenarios import build_scenario

        def traces():
            out = []
            for seed in (0, 1):
                doc = json.loads(episode_trace_json(
                    run_episode(scenario, seed, ablation="no_pose")))
                doc.pop("wall_ms")
                out.append(doc)
            return out

        scenario = build_scenario(name)
        calls = self.count_bisections(monkeypatch)
        monkeypatch.setattr(twin, "_last_clip", None)
        with_reuse = traces()
        bisections_with_reuse = len(calls)

        original = control.apply_push

        def without_reuse(*args):
            twin._last_clip = None
            return original(*args)

        monkeypatch.setattr(control, "apply_push", without_reuse)
        calls.clear()
        assert traces() == with_reuse
        assert bisections_with_reuse < len(calls)  # some push repeated its inputs


class TestPivotRotate:
    def plank_scene(self):
        # 20 x 10 x 2 cm plank lying flat
        plank = make_box("plank", half=(0.10, 0.05, 0.01), z=TABLE_H + 0.01)
        return base_scene([plank])

    def long_bottom_edge(self, scene):
        obj = scene.object("plank")
        edges = obj.world_obb().bottom_edges()
        return max(
            edges,
            key=lambda e: math.hypot(e[1][0] - e[0][0], e[1][1] - e[0][1]),
        )

    def test_quarter_flip_lands_on_side_face(self):
        scene = self.plank_scene()
        edge = self.long_bottom_edge(scene)
        out, outcome = pivot_rotate(scene, "plank", edge, math.pi / 2)
        assert outcome.status == "stable"
        # resting on the 20 x 2 face: height above table = 5 cm half extent
        assert outcome.final_pose.z == pytest.approx(TABLE_H + 0.05)
        box = out.object("plank").world_obb()
        footprint = Polygon2(box.resting_face())
        xs = [v[0] for v in footprint.vertices]
        ys = [v[1] for v in footprint.vertices]
        dims = sorted([max(xs) - min(xs), max(ys) - min(ys)])
        assert dims[0] == pytest.approx(0.02, abs=1e-6)
        assert dims[1] == pytest.approx(0.20, abs=1e-6)

    def test_zero_angle_identity(self):
        scene = self.plank_scene()
        edge = self.long_bottom_edge(scene)
        out, outcome = pivot_rotate(scene, "plank", edge, 0.0)
        assert outcome.status == "stable"
        assert outcome.final_pose == scene.object("plank").pose

    def test_small_tilt_relaxes_back(self):
        scene = self.plank_scene()
        edge = self.long_bottom_edge(scene)
        start = scene.object("plank").pose
        out, outcome = pivot_rotate(scene, "plank", edge, math.radians(20.0))
        assert outcome.status == "stable"
        assert np.allclose(outcome.final_pose.position, start.position, atol=1e-6)
        assert geodesic_angle(outcome.final_pose.orientation, start.orientation) < 1e-4

    def test_plus_minus_theta_below_balance_restores_pose(self):
        scene = self.plank_scene()
        start = scene.object("plank").pose
        theta = math.radians(25.0)
        edge = self.long_bottom_edge(scene)
        scene2, _ = pivot_rotate(scene, "plank", edge, theta)
        edge2 = self.long_bottom_edge(scene2)
        scene3, outcome = pivot_rotate(scene2, "plank", edge2, -theta)
        assert outcome.status == "stable"
        assert np.allclose(outcome.final_pose.position, start.position, atol=1e-6)
        assert geodesic_angle(outcome.final_pose.orientation, start.orientation) < 1e-4

    def test_low_ceiling_blocks_flip(self):
        # swept-height oracle: flipping a plank of length 2L about its long
        # edge sweeps to sqrt((2L)^2 + t^2)/... >= plank length; a ceiling
        # below that must collide.
        shelf = TerrainFeature(
            "shelf", rect_polygon(0.0, 0.0, 0.2, 0.15), TABLE_H,
            {"clearance": 0.08, "open_face": (0.0, -1.0)}, name="cubby",
        )
        plank = make_box("plank", half=(0.10, 0.05, 0.01), z=TABLE_H + 0.01)
        scene = base_scene([plank], terrain_extra=[shelf])
        edge = self.long_bottom_edge(scene)
        swept_height = math.sqrt(0.10 ** 2 + 0.02 ** 2)  # > 0.08 clearance
        assert swept_height > 0.08
        with pytest.raises(SweptCollision):
            pivot_rotate(scene, "plank", edge, math.pi / 2)

    def test_edge_not_in_contact_rejected(self):
        plank = make_box("plank", half=(0.10, 0.05, 0.01), z=TABLE_H + 0.3)
        scene = base_scene([plank])
        edges = scene.object("plank").world_obb().bottom_edges()
        with pytest.raises(ValueError):
            pivot_rotate(scene, "plank", edges[0], math.pi / 2)


class TestPivotContact:
    """pivot_rotate's contact check: the edge must lie on the highest terrain
    under its midpoint, or within 5 mm of the height of some support cell."""

    def card_at(self, x, y, bottom_z):
        from tabletamp.scenarios import build_scenario

        scene = build_scenario("wall").scene_template
        card = scene.object("card")
        pose = Pose6D((x, y, bottom_z + card.half_extents[2]), card.pose.orientation)
        return scene.replace_object(card.at_pose(pose))

    def test_box_on_the_table(self):
        scene = base_scene([make_box()])
        edge = scene.object("box").world_obb().bottom_edges()[0]
        _, outcome = pivot_rotate(scene, "box", edge, math.radians(10.0))
        assert outcome.status == "stable"

    def test_box_on_a_box_passes_through_the_lip_cells(self):
        from tabletamp.scenarios import build_scenario

        scene = build_scenario("box").scene_template
        under = scene.object("box")
        top = under.world_obb().top_z()
        small = make_box("small", half=(0.02, 0.02, 0.02), x=under.pose.x,
                         y=under.pose.y, z=top + 0.02)
        scene = TwinScene(scene.terrain, scene.objects + (small,))
        edge = small.world_obb().bottom_edges()[0]
        mid = (0.5 * (edge[0][0] + edge[1][0]), 0.5 * (edge[0][1] + edge[1][1]))
        # the terrain under the edge is the table, 9 cm below it
        assert twin.support_height_at(scene.terrain.cells, mid) == pytest.approx(TABLE_H)
        _, outcome = pivot_rotate(scene, "small", edge, math.radians(10.0))
        assert outcome.status == "stable"
        assert outcome.final_pose.z == pytest.approx(top + 0.02)

    def test_edge_above_every_surface_is_rejected(self):
        # 2 cm above the rails' top, the highest support in the scene
        scene = self.card_at(0.0, -0.15, 0.45)
        edge = scene.object("card").world_obb().bottom_edges()[0]
        with pytest.raises(ValueError, match="pivot edge is not in contact with a "
                                             "surface or lip"):
            pivot_rotate(scene, "card", edge, math.radians(10.0))

    @pytest.mark.xfail(strict=True, reason=(
        "the lip fallback takes any support cell within 5 mm of the edge's "
        "height anywhere in the scene, so an edge floating at the rails' "
        "height over open table passes; fixing it changes behaviour"))
    def test_edge_at_a_far_lip_height_is_rejected(self):
        # the card's bottom at the rails' top, over open table more than
        # 20 cm from every rail
        scene = self.card_at(0.0, -0.15, 0.43)
        edge = scene.object("card").world_obb().bottom_edges()[0]
        with pytest.raises(ValueError, match="not in contact"):
            pivot_rotate(scene, "card", edge, math.radians(10.0))


class TestSceneSerialization:
    def test_round_trip(self):
        slope = TerrainFeature(
            "slope", rect_polygon(0.1, 0.0, 0.12, 0.0824), TABLE_H + 0.06,
            {"angle_deg": 20.0, "downhill": (0.0, -1.0)}, name="wedge",
        )
        from tabletamp.twin import ToolSpec

        hook = make_box("hook", half=(0.15, 0.0125, 0.0175), x=0.25, y=-0.3,
                        tool_spec=ToolSpec("hook", 0.3, (0.15, 0.0, 0.0)))
        scene = base_scene([make_box(), hook], terrain_extra=[slope],
                           role="execution")
        text = json.dumps(scene_to_dict(scene), sort_keys=True)
        back = scene_from_dict(json.loads(text))
        assert json.dumps(scene_to_dict(back), sort_keys=True) == text
        assert back.object("hook").tool_spec.kind == "hook"
        assert back.role == "execution"

    def test_version_checked(self):
        with pytest.raises(ValueError):
            scene_from_dict(json.loads('{"version": 99}'))


class TestFlatPoseOnSupport:
    def test_pins_z_and_tilt_on_table(self):
        box = make_box()
        scene = base_scene([box])
        pose = flat_pose_on_support(scene, box, 0.1, 0.1, 0.7)
        assert pose.z == pytest.approx(TABLE_H + 0.05)
        assert pose.yaw == pytest.approx(0.7)
        assert geodesic_angle(pose.orientation, quat_from_yaw(0.7)) < 1e-9

    def test_pins_tilt_on_slope(self):
        slope = TerrainFeature(
            "slope", rect_polygon(0.0, 0.0, 0.12, 0.0824), TABLE_H + 0.06,
            {"angle_deg": 20.0, "downhill": (0.0, -1.0)}, name="wedge",
        )
        card = make_box("card", half=(0.05, 0.03, 0.004))
        scene = base_scene([card], terrain_extra=[slope])
        pose = flat_pose_on_support(scene, card, 0.0, 0.0, 0.0)
        assert geodesic_angle(pose.orientation, quat_from_yaw(0.0)) == pytest.approx(
            20.0, abs=1e-6
        )


def _random_unit_quats(count, seed):
    rng = np.random.default_rng(seed)
    for v in rng.normal(size=(count, 4)):
        yield tuple(float(c) for c in v / np.linalg.norm(v))


def _down_face(q):
    return Obb(Pose6D((0.0, 0.0, 0.0), q), (1.0, 1.0, 1.0)).down_face()


class TestOrientationHelpers:
    # The down face and half height depend on the orientation alone and are
    # computed without a box; these are the box-at-the-origin bodies they
    # replaced (with _down_face), kept as references. Pose6D normalizes the
    # quaternion first.

    @staticmethod
    def ref_snap_face_down(q):
        return _face_down_orientation(q, *_down_face(q))

    @staticmethod
    def ref_half_height(obj, q):
        box = Obb(Pose6D((0.0, 0.0, 0.0), q), obj.half_extents)
        return -box.bottom_z()

    def test_equal_the_box_at_the_origin(self):
        rng = np.random.default_rng(163)
        quats = list(oracle_quats(600, 167))
        assert sum(Pose6D((0.0, 0.0, 0.0), q).orientation != q for q in quats) >= 300
        for q in quats:
            obj = make_box(half=tuple(rng.uniform(0.005, 0.2, size=3)))
            assert repr(twin._snap_face_down(q)) == repr(self.ref_snap_face_down(q))
            assert repr(twin._half_height(obj, q)) == repr(self.ref_half_height(obj, q))


class TestFaceDownOrientation:
    def test_down_face_normal_points_straight_down(self):
        for q in _random_unit_quats(500, seed=0):
            axis, sign = _down_face(q)
            local = [0.0, 0.0, 0.0]
            local[axis] = sign
            n = quat_rotate(_face_down_orientation(q, axis, sign), tuple(local))
            assert max(abs(n[0]), abs(n[1]), abs(n[2] + 1.0)) < 1e-12

    @pytest.mark.xfail(strict=True, reason=(
        "acos(-n_z) of a normal 1 ulp off vertical is ~1.5e-8, above the 1e-12 "
        "angle cut, so a second call tilts the pose about world x; a guard "
        "fixes it but moves the open-table and no-pose trace digests"))
    def test_second_application_changes_nothing(self):
        for q in _random_unit_quats(500, seed=0):
            down_face = _down_face(q)
            once = _face_down_orientation(q, *down_face)
            assert _face_down_orientation(once, *down_face) == once
