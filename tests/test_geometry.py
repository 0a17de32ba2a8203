import math
from fractions import Fraction

import numpy as np
import pytest

from tabletamp.geometry import (
    _CORNER_SIGNS,
    _FACE_CORNERS,
    _LOCAL_FACES,
    Obb,
    Polygon2,
    Pose6D,
    _segments_properly_intersect,
    box_corner_heights,
    box_corners,
    clip_convex,
    convex_hull,
    down_face,
    face_normal,
    farthest_point_sample,
    geodesic_angle,
    hull_polygon,
    largest_face_axis,
    nearest_edge,
    obbs_overlap,
    point_in_polygon,
    quat_from_axis_angle,
    quat_from_yaw,
    quat_mul,
    quat_rotate,
    rect_polygon,
    ring_area,
    ring_bounds,
    se2_error,
    signed_interior_margin,
    wrap_angle,
    yaw_free_angle,
)


IDENTITY = (1.0, 0.0, 0.0, 0.0)


def random_unit_quat(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return tuple(q)


def drawn_quat(rng):
    """A unit quaternion from a ``tabletamp._rng`` stream, which no numpy
    release moves: four uniforms on [-1, 1), normalized."""
    q = rng.uniform(-1.0, 1.0, 4)
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    return (q[0] / n, q[1] / n, q[2] / n, q[3] / n)


def quat_to_matrix_np(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# ---------------------------------------------------------------------------
# geodesic_angle
# ---------------------------------------------------------------------------

class TestGeodesicAngle:
    def test_identity_pair_is_zero(self):
        assert geodesic_angle(IDENTITY, IDENTITY) == pytest.approx(0.0)

    def test_quarter_turn_about_z(self):
        q = quat_from_yaw(math.pi / 2)
        assert geodesic_angle(IDENTITY, q) == pytest.approx(90.0, abs=1e-9)

    def test_double_cover_sign_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = random_unit_quat(rng)
            nq = tuple(-c for c in q)
            # acos is ill-conditioned at 1.0; a few micro-degrees of noise remain
            assert geodesic_angle(q, nq) == pytest.approx(0.0, abs=1e-5)

    def test_symmetry_and_sign_flip_property(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a = random_unit_quat(rng)
            b = random_unit_quat(rng)
            t = geodesic_angle(a, b)
            assert t == pytest.approx(geodesic_angle(b, a), abs=1e-9)
            assert t == pytest.approx(geodesic_angle(tuple(-c for c in a), b), abs=1e-9)
            assert 0.0 <= t <= 180.0

    def test_matches_rotation_matrix_trace_formula(self):
        # independent oracle: theta = acos((trace(Ra^T Rb) - 1) / 2)
        rng = np.random.default_rng(13)
        for _ in range(1000):
            a = random_unit_quat(rng)
            b = random_unit_quat(rng)
            ra = quat_to_matrix_np(a)
            rb = quat_to_matrix_np(b)
            tr = np.clip((np.trace(ra.T @ rb) - 1.0) / 2.0, -1.0, 1.0)
            expected = math.degrees(math.acos(tr))
            assert abs(geodesic_angle(a, b) - expected) < 1e-6

    def test_non_unit_input_rejected(self):
        with pytest.raises(ValueError):
            geodesic_angle((1.01, 0.0, 0.0, 0.0), IDENTITY)

    @pytest.mark.parametrize("bad", [(math.nan, 0.0, 0.0, 0.0), (math.inf, 0.0, 0.0, 0.0)],
                             ids=["nan", "inf"])
    def test_non_finite_input_rejected(self, bad):
        for a, b in ((bad, IDENTITY), (IDENTITY, bad)):
            with pytest.raises(ValueError, match="not unit norm"):
                geodesic_angle(a, b)


# ---------------------------------------------------------------------------
# yaw_free_angle
# ---------------------------------------------------------------------------

def brute_yaw_free_angle(q, target, samples=3600):
    # min over world yaw psi of the geodesic between qz(psi) * q and target
    h = np.linspace(0.0, math.pi, samples, endpoint=False)  # psi / 2
    c, s = np.cos(h), np.sin(h)
    w, x, y, z = q
    yawed = np.stack([c * w - s * z, c * x - s * y, c * y + s * x, c * z + s * w], axis=1)
    d = np.minimum(1.0, np.abs(yawed @ np.asarray(target)))
    return math.degrees(2.0 * math.acos(d.max()))


class TestYawFreeAngle:
    def test_matches_brute_force_yaw_search(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            q = random_unit_quat(rng)
            target = random_unit_quat(rng)
            closed = yaw_free_angle(q, target)
            brute = brute_yaw_free_angle(q, target)
            assert closed <= brute + 1e-9
            assert brute - closed < 0.1

    def test_pure_yaw_offset_is_zero(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            q0 = random_unit_quat(rng)
            a, b = rng.uniform(-math.pi, math.pi, size=2)
            q = quat_mul(quat_from_yaw(a), q0)
            target = quat_mul(quat_from_yaw(b), q0)
            assert yaw_free_angle(q, target) == pytest.approx(0.0, abs=1e-5)

    def test_quarter_tilt_is_ninety(self):
        tilt = quat_from_axis_angle((1.0, 0.0, 0.0), math.pi / 2)
        assert yaw_free_angle(IDENTITY, tilt) == pytest.approx(90.0, abs=1e-9)
        yawed_tilt = quat_mul(quat_from_yaw(0.7), tilt)
        assert yaw_free_angle(IDENTITY, yawed_tilt) == pytest.approx(90.0, abs=1e-9)


# ---------------------------------------------------------------------------
# se2_error
# ---------------------------------------------------------------------------

class TestSe2Error:
    def test_identical_poses(self):
        p = Pose6D((0.1, 0.2, 0.0), quat_from_yaw(0.3))
        assert se2_error(p, p) == (0.0, 0.0)

    def test_axis_aligned_offset(self):
        a = Pose6D((0.0, 0.0, 0.0))
        b = Pose6D((0.03, 0.0, 0.0))
        d, y = se2_error(a, b)
        assert d == pytest.approx(0.03)
        assert y == pytest.approx(0.0)

    def test_yaw_wrap(self):
        # oracle: minimum absolute difference over all +-360 degree shifts
        ya, yb = math.radians(10.0), math.radians(350.0)
        expected = min(
            abs(math.degrees(ya - yb) + k * 360.0) for k in (-2, -1, 0, 1, 2)
        )
        a = Pose6D((0.0, 0.0, 0.0), quat_from_yaw(ya))
        b = Pose6D((0.0, 0.0, 0.0), quat_from_yaw(yb))
        _, yerr = se2_error(a, b)
        assert yerr == pytest.approx(expected, abs=1e-9)
        assert yerr == pytest.approx(20.0, abs=1e-9)


# ---------------------------------------------------------------------------
# farthest point sampling
# ---------------------------------------------------------------------------

def naive_fps(points, k, start):
    chosen = [start]
    while len(chosen) < k:
        best_i, best_d = None, -1.0
        for i, p in enumerate(points):
            d = min(
                math.hypot(p[0] - points[j][0], p[1] - points[j][1]) for j in chosen
            )
            if d > best_d + 1e-15:
                best_d = d
                best_i = i
        chosen.append(best_i)
    return chosen


class TestFarthestPointSample:
    def test_unit_square_boundary_returns_corners(self):
        pts = []
        n = 100
        for i in range(n):
            t = i / n
            pts.append((t, 0.0))
            pts.append((1.0, t))
            pts.append((1.0 - t, 1.0))
            pts.append((0.0, 1.0 - t))
        start = pts.index((0.0, 0.0))
        idx = farthest_point_sample(pts, 4, start)
        got = {pts[i] for i in idx}
        assert got == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}
        # greedy steps agree with the brute-force oracle
        assert idx == naive_fps(pts, 4, start)

    def test_k_one_returns_start(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
        assert farthest_point_sample(pts, 1, 2) == [2]

    def test_collinear_brute_force(self):
        pts = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]
        # oracle: enumerate all pairs containing the start point
        best = max(
            ((0, j) for j in range(1, 3)),
            key=lambda pair: math.hypot(
                pts[pair[0]][0] - pts[pair[1]][0], pts[pair[0]][1] - pts[pair[1]][1]
            ),
        )
        idx = farthest_point_sample(pts, 2, 0)
        assert set(idx) == set(best)
        assert {pts[i] for i in idx} == {(0.0, 0.0), (1.0, 0.0)}

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            farthest_point_sample([(0.0, 0.0)], 2, 0)

    def test_permutation_stable_selection_set(self):
        rng = np.random.default_rng(3)
        pts = [tuple(p) for p in rng.uniform(-1, 1, size=(40, 2))]
        base = farthest_point_sample(pts, 6, 5)
        base_set = {pts[i] for i in base}
        for _ in range(10):
            perm = rng.permutation(len(pts))
            shuffled = [pts[i] for i in perm]
            new_start = shuffled.index(pts[5])
            idx = farthest_point_sample(shuffled, 6, new_start)
            assert {shuffled[i] for i in idx} == base_set


# ---------------------------------------------------------------------------
# polygon containment / intersection
# ---------------------------------------------------------------------------

class TestPointInPolygon:
    def test_triangle_centroid(self):
        tri = Polygon2(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
        assert point_in_polygon(tri.centroid, tri)

    def test_far_outside(self):
        tri = Polygon2(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
        assert not point_in_polygon((4.0, 4.0), tri)

    def test_edge_midpoint_inclusive(self):
        tri = Polygon2(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
        assert point_in_polygon((0.5, 0.0), tri)

    @staticmethod
    def unfiltered(p, poly, tol):
        """The membership rule without the bounding-box pre-reject."""
        if poly.boundary_distance(p) <= tol:
            return True
        x, y = p
        inside = False
        for (x0, y0), (x1, y1) in poly.edges():
            if (y0 > y) != (y1 > y):
                xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
                if xi > x:
                    inside = not inside
        return inside

    @staticmethod
    def random_polygons(rng, n):
        """Convex hulls and star-shaped (mostly non-convex) simple polygons."""
        out = []
        while len(out) < n:
            if len(out) % 2 == 0:
                hull = convex_hull([tuple(p) for p in rng.uniform(-0.5, 0.5, size=(9, 2))])
                if len(hull) >= 3:
                    out.append(Polygon2(tuple(hull)))
            else:
                k = int(rng.integers(4, 12))
                angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=k))
                radii = rng.uniform(0.1, 0.6, size=k)
                ring = tuple((float(r * math.cos(a)), float(r * math.sin(a)))
                             for r, a in zip(radii, angles))
                try:
                    out.append(Polygon2(ring))
                except ValueError:  # near-duplicate angles can pinch the ring
                    continue
        return out

    @staticmethod
    def band_points(rng, poly, n):
        """Points around the bounding box, many within 1e-6 of it; a third
        are level with a vertex that attains the box side they lie beyond."""
        xmin, xmax, ymin, ymax = poly.bounds
        gaps = np.concatenate([
            [0.0, 1e-12, 5e-10, 1e-9, 2e-9],
            10.0 ** rng.uniform(-9.0, -6.0, size=n // 2),
            1e-3 + rng.uniform(-2e-9, 2e-9, size=n // 8),
            rng.uniform(-0.2, 0.2, size=n),
        ])
        pts = []
        for g in gaps:
            side = int(rng.integers(4))  # beyond xmax, xmin, ymax, ymin
            axis, sign = side // 2, (1.0, -1.0)[side % 2]
            extreme = max(poly.vertices, key=lambda v: sign * v[axis])
            along = (extreme[1 - axis] if rng.uniform() < 1 / 3
                     else rng.uniform(-0.7, 0.7))
            edge = (xmax + g, xmin - g, ymax + g, ymin - g)[side]
            pts.append((edge, along) if side < 2 else (along, edge))
        return pts

    def test_bounding_box_reject_is_exact(self):
        rng = np.random.default_rng(41)
        rejected = 0
        checked = 0
        for poly in self.random_polygons(rng, 40):
            xmin, xmax, ymin, ymax = poly.bounds
            for p in self.band_points(rng, poly, 100):
                for tol in (0.0, 1e-9, 1e-3):
                    assert point_in_polygon(p, poly, tol) == self.unfiltered(p, poly, tol), (
                        poly.vertices, p, tol)
                    outside = max(xmin - p[0], p[0] - xmax, ymin - p[1], p[1] - ymax)
                    rejected += outside > tol + 1e-9
                    checked += 1
                d = poly.boundary_distance(p)
                inside = self.unfiltered(p, poly, 0.0)
                expected = d if inside or d <= 1e-9 else -d
                assert signed_interior_margin(p, poly) == expected
        # the sample exercises the early return and the full rule alike
        assert 0.2 * checked < rejected < 0.8 * checked


class TestPolygonsIntersect:
    """Whether two convex polygons overlap, by the predicate the twin and the
    controllers use: their clipped intersection has more than 1e-9 area."""

    def test_monte_carlo_overlap_oracle(self):
        # oracle: rejection-sample points inside each polygon's bounding box
        # and test joint membership; pairs are built to be decisively
        # overlapping or decisively separated so 1e4 samples cannot miss.
        rng = np.random.default_rng(23)

        def random_convex(cx, cy):
            pts = rng.uniform(-0.5, 0.5, size=(10, 2)) + (cx, cy)
            hull = convex_hull([tuple(p) for p in pts])
            return Polygon2(tuple(hull)) if len(hull) >= 3 else None

        def mc_overlap(pa, pb, n=10_000):
            xs = [v[0] for v in pa.vertices]
            ys = [v[1] for v in pa.vertices]
            sx = rng.uniform(min(xs), max(xs), size=n)
            sy = rng.uniform(min(ys), max(ys), size=n)
            return any(
                point_in_polygon((x, y), pa) and point_in_polygon((x, y), pb)
                for x, y in zip(sx, sy)
            )

        checked = 0
        while checked < 100:
            overlap_case = checked % 2 == 0
            a = random_convex(0.0, 0.0)
            if a is None:
                continue
            if overlap_case:
                b = random_convex(*a.centroid)
                if b is None or not point_in_polygon(b.centroid, a):
                    continue
            else:
                b = random_convex(4.0, 4.0)
                if b is None:
                    continue
            overlap = ring_area(clip_convex(list(a.vertices), list(b.vertices))) > 1e-9
            assert overlap == mc_overlap(a, b)
            checked += 1


class TestClipConvex:
    @staticmethod
    def random_convex(rng, cx, cy):
        pts = rng.uniform(-0.5, 0.5, size=(8, 2)) + (cx, cy)
        return convex_hull([tuple(p) for p in pts])

    @staticmethod
    def inside_convex(ring, x, y):
        """Vectorised membership in a convex CCW ring."""
        inside = np.ones_like(x, dtype=bool)
        for (x0, y0), (x1, y1) in zip(ring, ring[1:] + ring[:1]):
            inside &= (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) >= 0.0
        return inside

    def test_monte_carlo_area_oracle(self):
        # oracle: the share of uniform points in a's bounding box that fall
        # in both rings, times the box area; pairs range from disjoint to
        # nested because b's center is drawn anywhere around a's
        rng = np.random.default_rng(29)
        n = 100_000
        checked = 0
        while checked < 100:
            a = self.random_convex(rng, 0.0, 0.0)
            b = self.random_convex(rng, *rng.uniform(-0.6, 0.6, size=2))
            if len(a) < 3 or len(b) < 3:
                continue
            (x0, y0), (x1, y1) = np.min(a, axis=0), np.max(a, axis=0)
            x = rng.uniform(x0, x1, size=n)
            y = rng.uniform(y0, y1, size=n)
            share = np.mean(self.inside_convex(a, x, y) & self.inside_convex(b, x, y))
            box = (x1 - x0) * (y1 - y0)
            sigma = box * math.sqrt(max(share * (1.0 - share), 1.0 / n) / n)
            area = ring_area(clip_convex(a, b))
            assert abs(area - box * share) <= 4.0 * sigma, (checked, area, box * share)
            checked += 1

    def test_symmetric_and_inside_both(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            a = self.random_convex(rng, 0.0, 0.0)
            b = self.random_convex(rng, *rng.uniform(-0.6, 0.6, size=2))
            if len(a) < 3 or len(b) < 3:
                continue
            ab = clip_convex(a, b)
            assert abs(ring_area(ab) - ring_area(clip_convex(b, a))) <= 1e-12
            pa, pb = Polygon2(tuple(a)), Polygon2(tuple(b))
            for v in ab:
                assert point_in_polygon(v, pa) and point_in_polygon(v, pb)

    def test_disjoint_pairs_have_zero_area(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            a = self.random_convex(rng, 0.0, 0.0)
            b = self.random_convex(rng, 4.0, 4.0)
            assert ring_area(clip_convex(a, b)) == 0.0
            assert ring_area(clip_convex(b, a)) == 0.0


class TestPolygonFinite:
    """A non-finite vertex makes the area test NaN, which fails no
    comparison, so Polygon2 tests every vertex itself."""

    BAD = [math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (2, 0)])
    def test_vertex(self, bad, where):
        verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        verts[where[0]][where[1]] = bad
        with pytest.raises(ValueError, match="polygon vertices must be finite"):
            Polygon2(tuple(map(tuple, verts)))

    @pytest.mark.parametrize("bad", BAD)
    def test_rect_polygon(self, bad):
        for args in ((bad, 0.0, 0.1, 0.1), (0.0, 0.0, bad, 0.1)):
            with pytest.raises(ValueError, match="polygon vertices must be finite"):
                rect_polygon(*args)
        # an infinite yaw already fails in math.cos, a NaN one only here
        with pytest.raises(ValueError, match="finite" if math.isnan(bad) else "domain"):
            rect_polygon(0.0, 0.0, 0.1, 0.1, bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_translated(self, bad):
        square = rect_polygon(0.0, 0.0, 0.1, 0.1)
        for offset in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="polygon vertices must be finite"):
                square.translated(*offset)

    def test_finite_polygons_and_other_checks_are_unchanged(self):
        huge = 1e100
        assert Polygon2(((-huge, -huge), (huge, -huge), (0.0, huge))).vertices[1] == (huge, -huge)
        assert rect_polygon(0.0, 0.0, 0.1, 0.1, 0.3).translated(1.0, -1.0).bounds
        with pytest.raises(ValueError, match="at least 3 vertices"):
            Polygon2(((math.nan, 0.0), (1.0, 0.0)))
        with pytest.raises(ValueError, match="counter-clockwise"):
            Polygon2(((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)))


# ---------------------------------------------------------------------------
# poses and boxes
# ---------------------------------------------------------------------------

class TestPose6D:
    def test_quaternion_normalized_on_construction(self):
        p = Pose6D((0.0, 0.0, 0.0), (1.0 + 2e-7, 0.0, 0.0, 0.0))
        assert math.isclose(sum(c * c for c in p.orientation), 1.0, abs_tol=1e-12)

    def test_rejects_badly_scaled_quaternion(self):
        with pytest.raises(ValueError):
            Pose6D((0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0))

    def test_rejects_non_finite_position(self):
        with pytest.raises(ValueError):
            Pose6D((math.nan, 0.0, 0.0))

    @pytest.mark.parametrize("orientation", [
        (math.nan, 0.0, 0.0, 0.0), (1.0, math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0, 0.0),
    ], ids=["nan-w", "nan-x", "inf"])
    def test_rejects_non_finite_orientation(self, orientation):
        # a NaN norm fails no `>` test, and once passed gave an all-NaN pose
        with pytest.raises(ValueError, match="not unit norm"):
            Pose6D((0.0, 0.0, 0.0), orientation)

    def test_yaw_roundtrip(self):
        for yaw in (-3.0, -1.0, 0.0, 0.5, 2.7):
            p = Pose6D((0.0, 0.0, 0.0), quat_from_yaw(yaw))
            assert p.yaw == pytest.approx(wrap_angle(yaw), abs=1e-12)

    def test_quat_rotate_matches_matrix(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            q = random_unit_quat(rng)
            v = tuple(rng.uniform(-1, 1, size=3))
            got = quat_rotate(q, v)
            expected = quat_to_matrix_np(q) @ np.array(v)
            assert np.allclose(got, expected, atol=1e-12)

    def test_quat_mul_composition(self):
        a = quat_from_yaw(0.4)
        b = quat_from_axis_angle((1.0, 0.0, 0.0), 0.9)
        v = (0.3, -0.2, 0.7)
        lhs = quat_rotate(quat_mul(a, b), v)
        rhs = quat_rotate(a, quat_rotate(b, v))
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestWrapAngle:
    def test_wraps_to_half_open_interval(self):
        assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.5) == pytest.approx(0.5)
        rng = np.random.default_rng(41)
        for _ in range(100):
            yaw = wrap_angle(rng.uniform(-20, 20))
            assert -math.pi < yaw <= math.pi


class TestObb:
    def test_corners_recoverable(self):
        pose = Pose6D((1.0, 2.0, 3.0), quat_from_yaw(0.7))
        box = Obb(pose, (0.1, 0.2, 0.3))
        cs = box.corners()
        assert len(cs) == 8
        center = np.mean(np.array(cs), axis=0)
        assert np.allclose(center, (1.0, 2.0, 3.0), atol=1e-12)

    def test_half_extents_positive(self):
        with pytest.raises(ValueError):
            Obb(Pose6D((0, 0, 0)), (0.1, 0.0, 0.1))

    def test_down_face_flat(self):
        box = Obb(Pose6D((0, 0, 0.05)), (0.1, 0.05, 0.05))
        assert box.down_face() == (2, -1.0)

    def test_down_face_after_roll(self):
        q = quat_from_axis_angle((1.0, 0.0, 0.0), math.pi / 2)
        box = Obb(Pose6D((0, 0, 0.05), q), (0.1, 0.05, 0.02))
        axis, sign = box.down_face()
        assert axis == 1  # local +y now points down or up
        assert sign in (-1.0, 1.0)

    def test_obbs_overlap(self):
        a = Obb(Pose6D((0, 0, 0.05)), (0.05, 0.05, 0.05))
        b = Obb(Pose6D((0.04, 0, 0.05)), (0.05, 0.05, 0.05))
        c = Obb(Pose6D((0.2, 0, 0.05)), (0.05, 0.05, 0.05))
        d = Obb(Pose6D((0.0, 0, 0.15001)), (0.05, 0.05, 0.05))
        assert obbs_overlap(a, b)
        assert not obbs_overlap(a, c)
        assert not obbs_overlap(a, d)  # stacked, touching only

    # An Obb computes its corners, z range, xy hull and xy bounds once.

    @staticmethod
    def seeded_boxes(count, seed):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            pose = Pose6D(tuple(rng.uniform(-1.0, 1.0, size=3)), random_unit_quat(rng))
            yield Obb(pose, tuple(rng.uniform(0.005, 0.2, size=3)))

    def test_corners_an_ulp_apart_keep_the_footprint(self):
        # a 12 x 18 cm grasp probe's projected corners (book, seed 45): the
        # float turns of the two x columns round to under 1e-15, which popped
        # real corners and left two points
        corners = [(-0.43400000000000005, 0.12629361999056365), (-0.434, -0.05370638000943639),
                   (-0.434, -0.05370638000943636), (-0.434, 0.12629361999056363),
                   (-0.314, -0.053706380009436346), (-0.314, 0.12629361999056363),
                   (-0.314, 0.12629361999056365), (-0.31399999999999995, -0.05370638000943637)]
        hull = convex_hull(corners)
        assert hull == [(-0.43400000000000005, 0.12629361999056365),
                        (-0.434, -0.05370638000943639),
                        (-0.31399999999999995, -0.05370638000943637),
                        (-0.314, 0.12629361999056365)]
        assert ring_area(hull_polygon(hull).vertices) == pytest.approx(0.12 * 0.18)

    def test_corners_returns_a_fresh_list(self):
        box = Obb(Pose6D((0.1, 0.2, 0.3), quat_from_yaw(0.4)), (0.1, 0.2, 0.3))
        first = box.corners()
        expected = list(first)
        first[0] = (9.0, 9.0, 9.0)
        first.append((1.0, 1.0, 1.0))
        assert box.corners() == expected
        assert box.corners() is not box.corners()

    def test_cached_values_equal_uncached_formulas(self):
        for box in self.seeded_boxes(200, 83):
            hx, hy, hz = box.half_extents
            corners = [box.center_pose.transform_point((sx * hx, sy * hy, sz * hz))
                       for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
            hull = convex_hull([(c[0], c[1]) for c in corners])
            assert box.corners() == corners
            assert box.bottom_z() == min(c[2] for c in corners)
            assert box.top_z() == max(c[2] for c in corners)
            assert box.footprint() == Polygon2(tuple(hull))
            assert box.xy_bounds == (min(c[0] for c in corners), max(c[0] for c in corners),
                                     min(c[1] for c in corners), max(c[1] for c in corners))
            # a second read gives the same values
            assert box.footprint() == Polygon2(tuple(hull))
            assert box.bottom_z() == min(c[2] for c in corners)

    def test_xy_bounds_contain_the_hull_bounds(self):
        # a box tipped onto a side projects its corners in near-duplicate
        # pairs, of which the hull may keep either: the corners' bounds can
        # lie an ulp or so outside the hull's, never inside them
        rng = np.random.default_rng(107)
        boxes = list(self.seeded_boxes(200, 109))
        for i in range(600):
            axis = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))[i % 2]
            tip = quat_from_axis_angle(axis, (math.pi / 2, -math.pi / 2, math.pi)[i % 3])
            yaw = quat_from_yaw(rng.uniform(-math.pi, math.pi))
            pose = Pose6D(tuple(rng.uniform(-1.0, 1.0, size=3)), quat_mul(yaw, tip))
            boxes.append(Obb(pose, tuple(rng.uniform(0.005, 0.2, size=3))))
        wider = 0
        for box in boxes:
            xmin, xmax, ymin, ymax = box.xy_bounds
            hxmin, hxmax, hymin, hymax = ring_bounds(box.xy_hull)
            assert xmin <= hxmin and hxmax <= xmax and ymin <= hymin and hymax <= ymax
            assert max(hxmin - xmin, xmax - hxmax, hymin - ymin, ymax - hymax) <= 1e-15
            wider += (xmin, xmax, ymin, ymax) != (hxmin, hxmax, hymin, hymax)
        assert wider > 100

    # The down face, its edges and the largest face come from the cached
    # corners; these are the formulas they replaced, kept as references.

    @staticmethod
    def ref_face_corners(box, axis, sign):
        h = box.half_extents
        a, b = [i for i in range(3) if i != axis]
        pts_local = []
        for sa, sb in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
            c = [0.0, 0.0, 0.0]
            c[axis] = sign * h[axis]
            c[a] = sa * h[a]
            c[b] = sb * h[b]
            pts_local.append(tuple(c))
        return [box.center_pose.transform_point(p) for p in pts_local]

    @staticmethod
    def ref_largest_face_axis(box):
        h = box.half_extents
        areas = [h[1] * h[2], h[0] * h[2], h[0] * h[1]]
        return areas.index(max(areas))

    def test_down_face_derivations_equal_face_corners(self):
        seen = set()
        for box in self.seeded_boxes(300, 97):
            down = box.down_face()
            seen.add(down)
            cs = self.ref_face_corners(box, *down)
            hull = tuple(convex_hull([(c[0], c[1]) for c in cs]))
            assert_identical(box.resting_face(), hull)
            assert_identical(box.bottom_edges(),
                             [(cs[i], cs[(i + 1) % 4]) for i in range(4)])
        assert len(seen) == 6

    def test_face_corner_table_matches_corner_signs(self):
        derived = {}
        for axis, sign in _LOCAL_FACES:
            a, b = [i for i in range(3) if i != axis]
            face = []
            for sa, sb in ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)):
                signs = [0.0, 0.0, 0.0]
                signs[axis], signs[a], signs[b] = sign, sa, sb
                face.append(_CORNER_SIGNS.index(tuple(signs)))
            derived[(axis, sign)] = tuple(face)
        assert _FACE_CORNERS == derived

    def test_largest_face_axis_equals_reference(self):
        boxes = [*self.seeded_boxes(200, 101),
                 Obb(Pose6D((0.0, 0.0, 0.0)), (0.1, 0.1, 0.1)),
                 Obb(Pose6D((0.0, 0.0, 0.0)), (0.2, 0.1, 0.1)),
                 Obb(Pose6D((0.0, 0.0, 0.0)), (0.1, 0.2, 0.2))]
        for box in boxes:
            assert largest_face_axis(box.half_extents) == self.ref_largest_face_axis(box)
        assert largest_face_axis(boxes[-3].half_extents) == 0  # a cube's first axis
        assert largest_face_axis(boxes[-1].half_extents) == 0

    def test_footprint_and_resting_face_are_derived_once(self):
        # the bodies they replaced, kept as references
        def ref_footprint(box):
            return Polygon2(box.xy_hull)

        def ref_resting_face(box):
            cs = box.corners()
            face = _FACE_CORNERS[box.down_face()]
            return tuple(convex_hull([(cs[i][0], cs[i][1]) for i in face]))

        for box in self.seeded_boxes(200, 173):
            footprint, face = box.footprint(), box.resting_face()
            assert footprint == ref_footprint(box)
            assert_identical(footprint.vertices, ref_footprint(box).vertices)
            assert_identical(face, ref_resting_face(box))
            assert box.footprint() is footprint
            assert box.resting_face() is face

    def test_degenerate_footprint_raises_on_every_call(self):
        # corners 1e-20 from the centre round onto one xy point
        box = Obb(Pose6D((1.0, 1.0, 0.0)), (1e-20, 1e-20, 0.1))
        for _ in range(2):
            with pytest.raises(ValueError, match="at least 3 vertices"):
                box.footprint()
        assert "_footprint" not in vars(box)

    def test_filled_caches_keep_equality_and_hash(self):
        for box in self.seeded_boxes(20, 89):
            filled = Obb(box.center_pose, box.half_extents)
            filled.footprint(), filled.bottom_z(), filled.top_z(), filled.xy_bounds
            assert "xy_hull" in vars(filled) and "xy_hull" not in vars(box)
            assert filled == box and box == filled
            assert hash(filled) == hash(box)
            assert len({filled, box}) == 1


# ---------------------------------------------------------------------------
# bit-exact kernel oracles: the hot kernels as plain loops over edges and
# helper calls. The flat kernels must give the very same floats, so every
# episode trace stays byte-identical.
# ---------------------------------------------------------------------------

def assert_identical(new, ref):
    # repr is exact for floats and tells -0.0 from 0.0
    assert repr(new) == repr(ref)


def ref_edges(verts):
    n = len(verts)
    for i in range(n):
        yield verts[i], verts[(i + 1) % n]


def ref_convex(verts, tol=1e-12):
    """True when no corner of the CCW ring turns right by more than tol."""
    n = len(verts)
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        cx, cy = verts[(i + 2) % n]
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < -tol:
            return False
    return True


def ref_point_segment_distance(p, a, b):
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 < 1e-30:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / L2
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def ref_boundary_distance(poly, p):
    return min(ref_point_segment_distance(p, a, b) for a, b in ref_edges(poly.vertices))


def ref_point_in_polygon(p, poly, tol=1e-9):
    x, y = p
    xmin, xmax, ymin, ymax = poly.bounds
    slack = max(tol, 0.0) + 1e-9
    if x < xmin - slack or x > xmax + slack or y < ymin - slack or y > ymax + slack:
        return False
    if ref_boundary_distance(poly, p) <= tol:
        return True
    inside = False
    for (x0, y0), (x1, y1) in ref_edges(poly.vertices):
        if (y0 > y) != (y1 > y):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if xi > x:
                inside = not inside
    return inside


def ref_clip_convex(subject, clip):
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        cx0, cy0 = clip[i]
        cx1, cy1 = clip[(i + 1) % n]
        ex, ey = cx1 - cx0, cy1 - cy0

        def inside(p):
            return ex * (p[1] - cy0) - ey * (p[0] - cx0) >= -1e-12

        def intersect(p, q):
            dx, dy = q[0] - p[0], q[1] - p[1]
            denom = ex * dy - ey * dx
            if abs(denom) < 1e-18:
                return q
            t = (ex * (cy0 - p[1]) - ey * (cx0 - p[0])) / denom
            t = max(0.0, min(1.0, t))
            return (p[0] + t * dx, p[1] + t * dy)

        new_output = []
        prev = output[-1]
        for cur in output:
            if inside(cur):
                if not inside(prev):
                    new_output.append(intersect(prev, cur))
                new_output.append(cur)
            elif inside(prev):
                new_output.append(intersect(prev, cur))
            prev = cur
        output = new_output
    return output


def ref_convex_hull(points):
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(pts, cut):
        lower = []
        for p in pts:
            while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= cut:
                lower.pop()
            lower.append(p)
        upper = []
        for p in reversed(pts):
            while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= cut:
                upper.pop()
            upper.append(p)
        return lower[:-1] + upper[:-1]

    hull = chain(pts, 1e-15)
    if len(hull) < 3:  # the same chain again, on exact turns
        exact = chain([(Fraction(x), Fraction(y)) for x, y in pts], 0)
        hull = [(float(x), float(y)) for x, y in exact]
    return hull


def exactly_simple(ring):
    """Polygon2's simplicity test, with each orientation computed exactly."""
    verts = [(Fraction(x), Fraction(y)) for x, y in ring]
    n = len(verts)
    return not any(
        _segments_properly_intersect(verts[i], verts[(i + 1) % n], verts[j], verts[(j + 1) % n])
        for i in range(n) for j in range(i + 2, n) if (i, j) != (0, n - 1))


def ref_pose_fields(position, orientation):
    """Pose6D's (position, orientation) after validation, or the error."""
    p = tuple(float(c) for c in position)
    if len(p) != 3 or not all(math.isfinite(c) for c in p):
        raise ValueError(f"position must be 3 finite floats, got {position}")
    q = tuple(float(c) for c in orientation)
    if len(q) != 4:
        raise ValueError("orientation must have 4 components (w, x, y, z)")
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    if abs(n - 1.0) > 1e-6:
        raise ValueError(f"orientation is not unit norm ({abs(n - 1.0):.2e} off): {q}")
    return p, (q[0] / n, q[1] / n, q[2] / n, q[3] / n)


def ref_obb_corners(box):
    hx, hy, hz = box.half_extents
    return [box.center_pose.transform_point((sx * hx, sy * hy, sz * hz))
            for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]


def oracle_quats(count, seed):
    """Unit, yaw-only, nearly flat, side-down and half-way-tilted
    quaternions; every other one is scaled 1e-9 to 1e-7 off unit norm, so
    Pose6D's division changes its bits."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        yaw = quat_from_yaw(rng.uniform(-math.pi, math.pi))
        axis = (*rng.normal(size=2), 0.0)
        kind = i % 8
        if kind < 2:
            v = rng.normal(size=4)
            q = tuple(float(c) for c in v / np.linalg.norm(v))
        elif kind < 4:
            q = yaw
        elif kind < 6:
            q = quat_mul(quat_from_axis_angle(axis, 10.0 ** rng.uniform(-9.0, -3.0)), yaw)
        elif kind < 7:
            q = quat_mul(quat_from_axis_angle(axis, math.pi / 2), yaw)
        else:
            # half way between two faces: which one points down is decided
            # by the last bits
            body_axis = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)][i % 16 // 8]
            tilt = math.pi / 4 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-17.0, -14.0)
            q = quat_mul(yaw, quat_from_axis_angle(body_axis, float(tilt)))
        if i % 2:
            scale = 1.0 + float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -7.0))
            q = tuple(c * scale for c in q)
        yield q


def ref_box_corners(position, orientation, half_extents):
    """Obb(Pose6D(position, orientation), half_extents).corners() as a box
    built them: Pose6D's normalization, then transform_point."""
    p, q = ref_pose_fields(position, orientation)
    hx, hy, hz = half_extents
    out = []
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            for sz in (-1.0, 1.0):
                r = quat_rotate(q, (sx * hx, sy * hy, sz * hz))
                out.append((r[0] + p[0], r[1] + p[1], r[2] + p[2]))
    return out


def ref_down_face(orientation):
    """Obb.down_face as a box computed it from its normalized orientation."""
    q = ref_pose_fields((0.0, 0.0, 0.0), orientation)[1]
    best, best_dz = None, math.inf
    for axis, sign in _LOCAL_FACES:
        local = [0.0, 0.0, 0.0]
        local[axis] = sign
        world = quat_rotate(q, tuple(local))
        if world[2] < best_dz:
            best_dz = world[2]
            best = (axis, sign)
    return best


def ref_farthest_point_sample(points, k, start):
    """farthest_point_sample as two loops per pick: the farthest point, then
    the distances lowered by it."""
    chosen = [start]
    sx, sy = points[start]
    min_d2 = [(p[0] - sx) ** 2 + (p[1] - sy) ** 2 for p in points]
    for _ in range(k - 1):
        best_i = 0
        best_d = -1.0
        for i, d in enumerate(min_d2):
            if d > best_d + 1e-15:
                best_d = d
                best_i = i
        chosen.append(best_i)
        bx, by = points[best_i]
        for i, p in enumerate(points):
            d2 = (p[0] - bx) ** 2 + (p[1] - by) ** 2
            if d2 < min_d2[i]:
                min_d2[i] = d2
    return chosen


def sample_boundary(poly, spacing):
    """Points along the boundary at roughly ``spacing``, vertices included."""
    pts = []
    for a, b in ref_edges(poly.vertices):
        length = math.hypot(b[0] - a[0], b[1] - a[1])
        steps = max(1, int(math.ceil(length / spacing)))
        for k in range(steps):
            t = k / steps
            pts.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return pts


def oracle_polygons():
    rng = np.random.default_rng(101)
    polys = [
        Polygon2(((-0.0, -0.0), (1.0, -0.0), (1.0, 1.0), (-0.0, 1.0))),
        Polygon2(((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0))),
        Polygon2(TILTED_BOX_HEXAGON),
    ]
    for _ in range(12):
        polys.append(rect_polygon(*rng.uniform(-1.0, 1.0, size=2),
                                  *rng.uniform(0.01, 0.5, size=2),
                                  yaw=rng.uniform(-math.pi, math.pi)))
        hull = convex_hull([tuple(p) for p in rng.uniform(-1.0, 1.0, size=(9, 2))])
        polys.append(Polygon2(tuple(hull)))
    return polys


def oracle_points(poly, rng, tol=1e-9):
    """Vertices, points on and just off each edge, -0.0 coordinates, points
    level with a vertex and random points around the polygon."""
    pts = [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.5)]
    for (ax, ay), (bx, by) in ref_edges(poly.vertices):
        dx, dy = bx - ax, by - ay
        L = math.hypot(dx, dy)
        nx, ny = dy / L, -dx / L  # outward: the interior is to the left
        pts.append((ax, ay))
        for t in (0.25, 0.5, 1.0 / 3.0):
            ex, ey = ax + t * dx, ay + t * dy
            pts.append((ex, ey))
            for off in (tol, tol * (1.0 - 1e-6), tol * (1.0 + 1e-6), -tol):
                pts.append((ex + off * nx, ey + off * ny))
    xmin, xmax, ymin, ymax = poly.bounds
    for _, vy in poly.vertices:  # rays through a vertex
        for f in (-0.05, 0.3, 0.5, 0.7, 1.05):
            pts.append((xmin + f * (xmax - xmin), vy))
    for x, y in rng.uniform(-0.1, 1.1, size=(40, 2)):
        pts.append((xmin + x * (xmax - xmin), ymin + y * (ymax - ymin)))
    return pts


# Hull of a box tilted by ~1e-8 rad, seen in a no_pose episode: vertices 2
# and 3, and 5 and 0, are 7.8e-10 apart.
TILTED_BOX_HEXAGON = (
    (0.15746661412835267, 0.1093014369270095),
    (0.2084259441206997, 0.03511824013197323),
    (0.28260914091573597, 0.08607757012432027),
    (0.2826091409412087, 0.08607757086455364),
    (0.23164981094886167, 0.1602607676595899),
    (0.1574666141538254, 0.10930143766724287),
)


class TestFlatKernelOracles:
    def test_boundary_distance_and_point_in_polygon(self):
        # point_in_polygon runs the crossing test before the boundary
        # distance; the reference tests the distance first. The points lie
        # on vertices and edges, and at, within and just past each tol.
        rng = np.random.default_rng(103)
        for poly in oracle_polygons():
            for point_tol in (1e-9, 1e-6):
                for p in oracle_points(poly, rng, point_tol):
                    assert_identical(poly.boundary_distance(p), ref_boundary_distance(poly, p))
                    for tol in (1e-9, 0.0, 1e-6):
                        assert (point_in_polygon(p, poly, tol)
                                is ref_point_in_polygon(p, poly, tol))

    def test_down_face(self):
        # down_face reads the z row of the rotation; the reference rotates
        # each face normal, as the body it replaced did
        def ref(q):
            best, best_dz = None, math.inf
            for axis, sign in _LOCAL_FACES:
                local = [0.0, 0.0, 0.0]
                local[axis] = sign
                world = quat_rotate(q, tuple(local))
                if world[2] < best_dz:
                    best_dz = world[2]
                    best = (axis, sign)
            return best

        half = math.sqrt(0.5)
        values = (0.0, -0.0, 0.5, -0.5, half, -half, 1.0, -1.0)
        quats = [(w, x, y, z) for w in values for x in values for y in values
                 for z in values]
        quats += list(oracle_quats(2000, 179))
        yaws = np.random.default_rng(181).uniform(-math.pi, math.pi, size=40)
        for yaw in yaws:
            for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)):
                # exact and nearly exact 45 degree tilts, and yaw-only ones
                # tilted by 0 to 1e-8
                for tilt in (math.pi / 4, -math.pi / 4, 0.0, 1e-12, 1e-8):
                    quats.append(quat_mul(quat_from_axis_angle(axis, tilt),
                                          quat_from_yaw(float(yaw))))
        ties = 0
        for q in quats:
            got = down_face(q)
            assert got is not None
            assert_identical(got, ref(q))
            zs = sorted(quat_rotate(q, tuple(float(i == a) * s for i in range(3)))[2]
                        for a, s in _LOCAL_FACES)
            ties += zs[0] == zs[1]
        assert ties > 500  # first-face-wins ties are exercised
        nan = (math.nan,) * 4
        assert down_face(nan) is None and ref(nan) is None

    def test_clip_convex(self):
        rng = np.random.default_rng(107)
        rings = [list(poly.vertices) for poly in oracle_polygons() if ref_convex(poly.vertices)]
        for clip in rings:
            # a subject whose vertices lie on the clip's edges
            on_edges = [(a[0] + 0.5 * (b[0] - a[0]), a[1] + 0.5 * (b[1] - a[1]))
                        for a, b in ref_edges(clip)]
            others = [rings[k] for k in rng.choice(len(rings), 6)]
            for subject in [clip, on_edges, *others]:
                assert_identical(clip_convex(subject, clip), ref_clip_convex(subject, clip))

    def test_convex_hull(self):
        rng = np.random.default_rng(109)
        cases = [
            [(0.0, 0.0)],
            [(0.0, 0.0), (1.0, 1.0), (0.0, 0.0)],
            [(-0.0, 0.0), (0.0, -0.0), (1.0, -0.0), (-0.0, 1.0), (1.0, 1.0)],
            [(float(x), float(y)) for x in range(3) for y in range(3)],  # collinear edges
            [(t, 2.0 * t + 1.0) for t in (0.0, 0.1, 0.2, 0.3, 0.7)],  # collinear but for rounding
            [(float(t), float(t)) for t in range(5)],  # exactly collinear
        ]
        for _ in range(40):
            pts = [tuple(p) for p in rng.uniform(-1.0, 1.0, size=(rng.integers(3, 12), 2))]
            cases.append(pts + pts[:3])  # duplicates
            a, b = pts[0], pts[1]
            cases.append(pts + [(a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
                                for t in (0.25, 0.5)])  # collinear with a hull edge
        for box in TestObb.seeded_boxes(40, 113):
            cases.append([(c[0], c[1]) for c in box.corners()])
        for pts in cases:
            assert_identical(convex_hull(pts), ref_convex_hull(pts))

    def test_pose6d_fields(self):
        rng = np.random.default_rng(127)
        cases = [((-0.0, 0.0, -0.0), (1.0, -0.0, 0.0, -0.0)), ([1, 2, 3], [1, 0, 0, 0])]
        for _ in range(100):
            q = np.array(random_unit_quat(rng))
            for off in (0.0, 1e-7, -1e-7, 9.9e-7, -9.9e-7):
                cases.append((tuple(rng.uniform(-1.0, 1.0, size=3)), tuple(q * (1.0 + off))))
        for position, orientation in cases:
            pose = Pose6D(position, orientation)
            assert_identical((pose.position, pose.orientation),
                             ref_pose_fields(position, orientation))

    @pytest.mark.parametrize("position, orientation", [
        ((0.0, 0.0), IDENTITY),
        ((0.0, 0.0, 0.0, 0.0), IDENTITY),
        ((math.nan, 0.0, 0.0), IDENTITY),
        ((0.0, math.inf, 0.0), IDENTITY),
        (("x", 0.0, 0.0), IDENTITY),
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((0.0, 0.0, 0.0), (1.0 + 2e-6, 0.0, 0.0, 0.0)),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)),
    ], ids=["short", "long", "nan", "inf", "text", "quat-short", "quat-scale", "quat-zero"])
    def test_pose6d_errors(self, position, orientation):
        with pytest.raises(ValueError) as ref:
            ref_pose_fields(position, orientation)
        with pytest.raises(ValueError) as new:
            Pose6D(position, orientation)
        assert str(new.value) == str(ref.value)

    def test_unit_norm_error_gives_the_offset(self):
        with pytest.raises(ValueError, match=r"not unit norm \(1\.00e\+00 off\)"):
            Pose6D((0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0))

    def test_obb_corners(self):
        boxes = list(TestObb.seeded_boxes(200, 131))
        boxes.append(Obb(Pose6D((-0.0, 0.0, -0.0), (1.0, -0.0, 0.0, -0.0)), (0.1, 0.2, 0.3)))
        for box in boxes:
            assert_identical(box.corners(), ref_obb_corners(box))

    def test_orientation_only_values(self):
        rng = np.random.default_rng(139)
        quats = list(oracle_quats(600, 149))
        renormalized = 0
        for q in quats:
            position = tuple(float(c) for c in rng.uniform(-1.0, 1.0, size=3))
            half = tuple(float(c) for c in rng.uniform(0.005, 0.2, size=3))
            pose = Pose6D(position, q)
            unit = ref_pose_fields(position, q)[1]
            renormalized += unit != q
            assert_identical(pose.orientation, unit)
            box = Obb(pose, half)
            assert_identical(box.down_face(), ref_down_face(q))
            assert_identical(box.corners(), ref_box_corners(position, q, half))
        assert renormalized >= len(quats) // 2

    def test_farthest_point_sample(self):
        rng = np.random.default_rng(151)
        cases = [
            # a lattice: many exact distance ties
            ([(float(x), float(y)) for x in range(-3, 4) for y in range(-2, 3)], 9),
            ([(0.5 * x, 0.0) for x in range(12)] + [(0.0, 0.5 * y) for y in range(1, 6)], 7),
            ([(0.0, 0.0)] * 3 + [(1.0, 1.0)] * 2, 5),  # repeated points
        ]
        for _ in range(40):
            pts = [(float(x), float(y))
                   for x, y in rng.uniform(-1.0, 1.0, size=(rng.integers(1, 60), 2))]
            cases.append((pts, len(pts)))
        for box in TestObb.seeded_boxes(60, 157):
            # rings of footprint points 1 cm apart
            pts = sample_boundary(box.footprint(), 0.01)
            cases.append((pts, min(8, len(pts))))
        for pts, k_max in cases:
            for start in {0, len(pts) // 2, len(pts) - 1}:
                for k in {1, min(2, k_max), k_max}:
                    assert (farthest_point_sample(pts, k, start)
                            == ref_farthest_point_sample(pts, k, start))


# The bodies nearest_edge replaced, as they were, over a vertex ring.

def ref_boundary_distance_body(verts, p):
    """Polygon2.boundary_distance."""
    px, py = p
    ax, ay = verts[0]
    best = math.inf
    for bx, by in verts[1:] + verts[:1]:
        dx, dy = bx - ax, by - ay
        L2 = dx * dx + dy * dy
        if L2 < 1e-30:
            d = math.hypot(px - ax, py - ay)
        else:
            t = ((px - ax) * dx + (py - ay) * dy) / L2
            t = t if t < 1.0 else 1.0  # max(0.0, min(1.0, t))
            t = t if t > 0.0 else 0.0
            d = math.hypot(px - (ax + t * dx), py - (ay + t * dy))
        if d < best:
            best = d
        ax, ay = bx, by
    return best


def ref_closest_boundary_point_body(verts, p):
    """Polygon2.closest_boundary_point."""
    best = None
    best_d = math.inf
    px, py = p
    for a, b in ref_edges(verts):
        ax, ay = a
        bx, by = b
        dx, dy = bx - ax, by - ay
        L2 = dx * dx + dy * dy
        t = 0.0 if L2 < 1e-30 else max(
            0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / L2)
        )
        qx, qy = ax + t * dx, ay + t * dy
        d = math.hypot(px - qx, py - qy)
        if d < best_d:
            best_d = d
            best = (qx, qy)
    return best


def ref_nearest_edge_index(verts, p):
    """The argmin over the edges of the point-segment distance."""
    n = len(verts)
    best_edge = 0
    best_d = math.inf
    for i in range(n):
        d = ref_point_segment_distance(p, verts[i], verts[(i + 1) % n])
        if d < best_d:
            best_d = d
            best_edge = i
    return best_edge


def nearest_edge_rings():
    """Polygon rings, rings with repeated vertices and edges shorter than
    1e-15, and 2-point rings."""
    rng = np.random.default_rng(191)
    rings = [poly.vertices for poly in oracle_polygons()]
    rings += [
        ((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
        ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (1.0, 1.0 + 1e-16), (0.0, 1.0)),
        ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
        ((0.0, 0.0), (1e-16, -1e-16), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
        ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)),
        ((0.0, 0.0), (1.0, 0.0)),
        ((0.3, 0.3), (0.3, 0.3)),
    ]
    for _ in range(20):
        a, b = (tuple(float(c) for c in rng.uniform(-1.0, 1.0, size=2)) for _ in range(2))
        rings.append((a, b))
        ring = list(rings[rng.integers(len(rings))])
        k = int(rng.integers(len(ring)))
        ring.insert(k, ring[k])  # a zero-length edge
        rings.append(tuple(ring))
    return rings


def nearest_edge_points(rng, verts):
    """Vertices, points on, beside and past each edge, points about as far
    from two edges (on the bisectors at a vertex and between edge
    midpoints), -0.0 coordinates and random points."""
    pts = [(-0.0, -0.0), (0.0, -0.0)]
    n = len(verts)
    for i in range(n):
        (ax, ay), (bx, by) = verts[i], verts[(i + 1) % n]
        dx, dy = bx - ax, by - ay
        pts.append((ax, ay))
        for t in (0.5, 1.0 / 3.0, -0.25, 1.25):
            ex, ey = ax + t * dx, ay + t * dy
            pts += [(ex, ey), (ex + 1e-3 * dy, ey - 1e-3 * dx), (ex - 0.2 * dy, ey + 0.2 * dx)]
        cx, cy = verts[(i + 2) % n]
        mx, my = 0.5 * (ax + cx), 0.5 * (ay + cy)
        pts += [(mx, my), (2.0 * bx - mx, 2.0 * by - my), (0.5 * (mx + bx), 0.5 * (my + by))]
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    cx, cy = sum(xs) / n, sum(ys) / n
    pts += [(cx, cy), (cx, -cy), (cy, cx)]
    for x, y in rng.uniform(-1.5, 1.5, size=(30, 2)):
        pts.append((float(x), float(y)))
    return pts


class TestNearestEdge:
    def test_equals_the_bodies_it_replaced(self):
        rng = np.random.default_rng(193)
        ties = 0
        for verts in nearest_edge_rings():
            for p in nearest_edge_points(rng, verts):
                d, i, q = nearest_edge(p, verts)
                assert_identical(d, ref_boundary_distance_body(verts, p))
                assert_identical(q, ref_closest_boundary_point_body(verts, p))
                assert i == ref_nearest_edge_index(verts, p)
                dists = [ref_point_segment_distance(p, a, b) for a, b in ref_edges(verts)]
                ties += dists.count(d) > 1
        assert ties >= 100  # the first of equally near edges is tested

    def test_polygon_queries_are_the_kernel(self):
        rng = np.random.default_rng(197)
        for poly in oracle_polygons():
            for p in nearest_edge_points(rng, poly.vertices):
                d, _, q = nearest_edge(p, poly.vertices)
                assert_identical(poly.boundary_distance(p), d)
                assert_identical(poly.closest_boundary_point(p), q)

    def test_nan_point_has_no_nearest_edge(self):
        square = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        assert nearest_edge((math.nan, 0.5), square) == (math.inf, -1, None)
        assert ref_closest_boundary_point_body(square, (math.nan, 0.5)) is None


class TestFaceNormal:
    def test_equals_the_rotated_local_axis(self):
        def ref(q, axis, sign):
            local = [0.0, 0.0, 0.0]
            local[axis] = sign
            return quat_rotate(q, tuple(local))

        quats = list(oracle_quats(600, 199)) + [IDENTITY, (1.0, -0.0, 0.0, -0.0)]
        for q in quats:
            for axis, sign in _LOCAL_FACES:
                assert_identical(face_normal(q, axis, sign), ref(q, axis, sign))


# ---------------------------------------------------------------------------
# values derived from checked ones skip the checks: each shortcut must give
# what the checked construction gives
# ---------------------------------------------------------------------------

def checked_or_error(build, *args):
    """build(*args), or the type and message of what it raises."""
    try:
        return build(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the result
        return type(exc), str(exc)


def near_degenerate_point_sets(rng):
    """Point sets whose hulls are empty, slivers, or have vertices 1 ulp off
    an edge: collinear runs with one point moved by an ulp or by about the
    hull's turn tolerance, points 1 ulp apart, and tiny, flat and tilted
    boxes seen from above."""
    up = math.inf
    sets = [[], [(0.0, 0.0)], [(0.0, 0.0), (1.0, 1.0)], [(-0.0, 0.0), (0.0, -0.0)]]
    for _ in range(60):
        (ax, ay), (bx, by) = rng.uniform(-1.0, 1.0, size=(2, 2))
        line = [(float(ax + t * (bx - ax)), float(ay + t * (by - ay)))
                for t in np.linspace(0.0, 1.0, int(rng.integers(3, 7)))]
        sets.append(line)
        k = int(rng.integers(1, len(line) - 1))
        for dx, dy in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            moved = list(line)
            x, y = moved[k]
            moved[k] = (math.nextafter(x, up * dx) if dx else x,
                        math.nextafter(y, up * dy) if dy else y)
            sets.append(moved)
        # slivers: points moved off the line by about the hull's 1e-15
        # turn tolerance, up and down, so that two to four of them stay
        nx, ny = ay - by, bx - ax
        for off in (5e-16, 1e-15, 2e-15, 4e-15, 1e-13):
            sets.append([(float(ax + t * (bx - ax) + s * off * nx),
                          float(ay + t * (by - ay) + s * off * ny))
                         for t, s in ((0.0, 0.0), (0.25, 1.0), (0.5, -1.0), (0.75, 1.0),
                                      (1.0, 0.0))])
        x, y = float(ax), float(ay)
        sets.append([(x, y), (math.nextafter(x, up), y), (x, math.nextafter(y, up))])
        sets.append([(x, y), (math.nextafter(x, up), y), (x, math.nextafter(y, -up))])
        sets.append([tuple(p) for p in rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 12)), 2))])
    for i in range(120):
        q = quat_from_yaw(rng.uniform(-math.pi, math.pi))
        if i % 2:
            q = quat_mul(quat_from_axis_angle((*rng.normal(size=2), 0.0),
                                              10.0 ** rng.uniform(-12.0, 0.0)), q)
        if i % 5 == 0:  # tiny boxes, down to corners that round together
            half = tuple(10.0 ** rng.uniform(-20.0, -1.0, size=3))
        else:
            half = tuple(rng.uniform(0.005, 0.2, size=3))
        box = Obb(Pose6D(tuple(rng.uniform(-1.0, 1.0, size=3)), q), half)
        sets.append([(c[0], c[1]) for c in box.corners()])
        sets.append(list(box.resting_face()))
    return sets


class TestCheckedOnce:
    def test_hull_polygon_equals_checked_polygon(self):
        rng = np.random.default_rng(191)
        raised = built = slivers = 0
        for pts in near_degenerate_point_sets(rng):
            hull = convex_hull(pts)
            got = checked_or_error(hull_polygon, hull)
            expected = checked_or_error(Polygon2, tuple(hull))
            if isinstance(expected, Polygon2):
                assert_identical(got.vertices, expected.vertices)
                assert got == expected and hash(got) == hash(expected)
                assert got.bounds == expected.bounds
                built += 1
            elif expected == (ValueError, "polygon must be simple (non-self-intersecting)"):
                # a sliver from the exact turns: Polygon2's float orientations
                # see a crossing that exact ones do not
                assert isinstance(got, Polygon2)
                assert_identical(got.vertices, tuple(hull))
                assert exactly_simple(hull)
                slivers += 1
            else:
                assert got == expected
                raised += 1
        assert built > 700 and raised > 200 and slivers > 0

    def test_hull_polygon_keeps_the_checks_it_needs(self):
        with pytest.raises(ValueError, match="at least 3 vertices"):
            hull_polygon([(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(ValueError, match="counter-clockwise"):
            hull_polygon([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
        with pytest.raises(ValueError, match="counter-clockwise"):
            hull_polygon([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])

    def test_box_corner_heights_are_the_corner_z(self):
        half = math.sqrt(0.5)
        values = (0.0, -0.0, 0.5, -0.5, half, -half, 1.0, -1.0)
        quats = [(w, x, y, z) for w in values for x in values for y in values
                 for z in values]
        assert len(quats) == 4096
        quats += list(oracle_quats(2000, 179))
        rng = np.random.default_rng(193)
        zeros = 0
        for i, q in enumerate(quats):
            if i % 3 == 0:
                half_extents = (0.05, 0.05, 0.05)
            else:
                half_extents = tuple(float(c) for c in rng.uniform(0.005, 0.2, size=3))
            for z in (0.0, -0.0, 0.45):
                position = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)), z)
                expected = tuple(c[2] for c in box_corners(position, q, half_extents))
                assert_identical(box_corner_heights(z, q, half_extents), expected)
                zeros += 0.0 in expected
        assert zeros > 100  # the zero signs are exercised
