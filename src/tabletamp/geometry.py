"""SE(2)/SE(3) math, oriented boxes, polygons, and sampling primitives.

Conventions
-----------
- Quaternions are (w, x, y, z), Hamilton product, right-handed frames.
- Angles are radians internally; degree-valued results say so in their name
  or docstring.
- Yaw is the rotation of the body x-axis about world +z, wrapped to (-pi, pi].
- 2D polygons are counter-clockwise and simple; the interior lies to the
  left of each directed edge.

Everything in this module is pure and allocation-light: poses and polygons
are frozen dataclasses over plain float tuples so they can be shared freely
across threads and used inside controller loops without numpy call overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Vec2 = tuple[float, float]
Vec3 = tuple[float, float, float]
Quat = tuple[float, float, float, float]

_BOUNDARY_TOL = 1e-9
_UNIT_TOL = 1e-6


class derived:
    """A field of a frozen value, computed on its first read and stored in
    the instance ``__dict__``, where later reads find it before this
    descriptor.

    Unlike ``functools.cached_property`` before Python 3.12, a fill takes no
    lock: two threads that race on it both compute it, to equal values,
    since it derives from fields that never change.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _from_checked(cls, **fields):
    """A frozen ``cls`` holding ``fields``, built without ``__init__`` and
    its checks: each field must be taken from an instance that passed them,
    or be derived from such fields in a way that keeps what they check."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


# ---------------------------------------------------------------------------
# quaternions
# ---------------------------------------------------------------------------

def quat_norm(q: Quat) -> float:
    return math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])


def quat_conjugate(q: Quat) -> Quat:
    return (q[0], -q[1], -q[2], -q[3])


def quat_mul(a: Quat, b: Quat) -> Quat:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by + ay * bw + az * bx - ax * bz,
        aw * bz + az * bw + ax * by - ay * bx,
    )


# The input and result of unit_quat's last call on a tuple. Most calls
# normalize the orientation of a pose that the call before normalized too,
# and the result is a function of the input's floats alone. The input is
# compared by identity: a tuple cannot change, and the entry holds it, so its
# id is not reused. A list can change between calls, so it is never stored.
# The entry is one tuple replaced whole, so it needs no lock.
_last_unit: tuple[tuple, Quat] | None = None


def unit_quat(q) -> Quat:
    """q as four floats divided by its norm; raises ValueError when it is
    not 4 long or its norm is more than 1e-6 off 1 or not finite.

    Written out because ``Pose6D`` calls it on every controller step: the
    same norm expression as quat_norm.
    """
    global _last_unit
    last = _last_unit
    if last is not None and last[0] is q:
        return last[1]
    floats = tuple(map(float, q))
    if len(floats) != 4:
        raise ValueError("orientation must have 4 components (w, x, y, z)")
    w, x, y, z = floats
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if not abs(n - 1.0) <= _UNIT_TOL:  # a NaN or infinite norm fails too
        raise ValueError(f"orientation is not unit norm ({abs(n - 1.0):.2e} off): {floats}")
    unit = (w / n, x / n, y / n, z / n)
    if type(q) is tuple:
        _last_unit = (q, unit)
    return unit


def quat_from_axis_angle(axis: Vec3, angle: float) -> Quat:
    n = math.sqrt(axis[0] ** 2 + axis[1] ** 2 + axis[2] ** 2)
    if n < 1e-12:
        raise ValueError("rotation axis must be non-zero")
    h = 0.5 * angle
    s = math.sin(h) / n
    return (math.cos(h), axis[0] * s, axis[1] * s, axis[2] * s)


def quat_from_yaw(yaw: float) -> Quat:
    h = 0.5 * yaw
    return (math.cos(h), 0.0, 0.0, math.sin(h))


def quat_rotate(q: Quat, v: Vec3) -> Vec3:
    # q * (0, v) * q^-1 expanded; cheaper than building matrices per call.
    w, x, y, z = q
    vx, vy, vz = v
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * tx + (y * tz - z * ty),
        vy + w * ty + (z * tx - x * tz),
        vz + w * tz + (x * ty - y * tx),
    )


def yaw_of(q: Quat) -> float:
    """Heading of the body x-axis projected into the world xy-plane."""
    r = quat_rotate(q, (1.0, 0.0, 0.0))
    return math.atan2(r[1], r[0])


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


def geodesic_angle(a: Quat, b: Quat) -> float:
    """Rotation angle between two unit quaternions, in degrees.

    Returns theta in [0, 180] with theta = 2*acos(|<a, b>|); symmetric in its
    arguments and invariant under a global sign flip of either input.
    Raises ValueError when an input deviates from unit norm by more than 1e-6
    or has a norm that is not finite.
    """
    for q in (a, b):
        if not abs(quat_norm(q) - 1.0) <= _UNIT_TOL:
            raise ValueError(f"quaternion is not unit norm: {q}")
    d = abs(a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3])
    d = min(1.0, d)
    return math.degrees(2.0 * math.acos(d))


def yaw_free_angle(q: Quat, target: Quat) -> float:
    """Min over psi of geodesic_angle(quat_from_yaw(psi) * q, target), degrees.

    Closed form: 2*acos(sqrt(w^2 + z^2)) of r = target * q^-1.
    """
    w, _, _, z = quat_mul(target, quat_conjugate(q))
    return math.degrees(2.0 * math.acos(min(1.0, math.sqrt(w * w + z * z))))


# ---------------------------------------------------------------------------
# poses
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class Pose6D:
    """Rigid transform in SE(3): position in meters + unit quaternion (wxyz)."""

    position: Vec3
    orientation: Quat = (1.0, 0.0, 0.0, 0.0)

    def __init__(self, position: Vec3, orientation: Quat = (1.0, 0.0, 0.0, 0.0)):
        # Built on every controller step, so the checks are written out and
        # the fields go straight into the instance dict, past the frozen
        # __setattr__.
        p = tuple(map(float, position))
        if len(p) != 3 or not (
            math.isfinite(p[0]) and math.isfinite(p[1]) and math.isfinite(p[2])
        ):
            raise ValueError(f"position must be 3 finite floats, got {position}")
        fields = self.__dict__
        fields["position"] = p
        fields["orientation"] = unit_quat(orientation)

    @property
    def x(self) -> float:
        return self.position[0]

    @property
    def y(self) -> float:
        return self.position[1]

    @property
    def z(self) -> float:
        return self.position[2]

    @property
    def yaw(self) -> float:
        return yaw_of(self.orientation)

    def transform_point(self, local: Vec3) -> Vec3:
        r = quat_rotate(self.orientation, local)
        return (r[0] + self.x, r[1] + self.y, r[2] + self.z)


def se2_error(current: Pose6D, target: Pose6D) -> tuple[float, float]:
    """Planar distance (m) and wrapped absolute heading difference (deg)."""
    dx = target.x - current.x
    dy = target.y - current.y
    dyaw = wrap_angle(target.yaw - current.yaw)
    return (math.hypot(dx, dy), abs(math.degrees(dyaw)))


# ---------------------------------------------------------------------------
# polygons
# ---------------------------------------------------------------------------

def _signed_area(vertices) -> float:
    s = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return 0.5 * s


def _segments_properly_intersect(p0, p1, q0, q1) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q0, q1, p0)
    d2 = orient(q0, q1, p1)
    d3 = orient(p0, p1, q0)
    d4 = orient(p0, p1, q1)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def nearest_edge(p: Vec2, verts) -> tuple[float, int, Vec2 | None]:
    """(distance, index, point) of the edge of a closed vertex ring nearest
    to p: index i names the edge from vertex i to vertex i + 1, and point is
    the closest point on it. The first of equally near edges wins, and an
    edge shorter than 1e-15 counts as its start vertex. A NaN coordinate
    gives (inf, -1, None).

    Written out, with no call per edge: this is point_in_polygon's inner
    loop.
    """
    px, py = p
    ax, ay = verts[0]
    best = math.inf
    best_i = -1
    best_t = 0.0
    i = 0
    for bx, by in verts[1:] + verts[:1]:
        dx, dy = bx - ax, by - ay
        L2 = dx * dx + dy * dy
        if L2 < 1e-30:
            t = 0.0
            d = math.hypot(px - ax, py - ay)
        else:
            t = ((px - ax) * dx + (py - ay) * dy) / L2
            t = t if t < 1.0 else 1.0  # max(0.0, min(1.0, t))
            t = t if t > 0.0 else 0.0
            d = math.hypot(px - (ax + t * dx), py - (ay + t * dy))
        if d < best:
            best, best_i, best_t = d, i, t
        ax, ay = bx, by
        i += 1
    if best_i < 0:
        return best, -1, None
    (ax, ay), (bx, by) = verts[best_i], verts[(best_i + 1) % len(verts)]
    return best, best_i, (ax + best_t * (bx - ax), ay + best_t * (by - ay))


@dataclass(frozen=True)
class Polygon2:
    """Simple counter-clockwise polygon in the world xy-plane (meters)."""

    vertices: tuple[Vec2, ...]

    def __post_init__(self):
        verts = tuple((float(v[0]), float(v[1])) for v in self.vertices)
        if len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        # NaN compares false, so a non-finite vertex would pass the area test
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in verts):
            raise ValueError(f"polygon vertices must be finite, got {verts}")
        if _signed_area(verts) <= 0.0:
            raise ValueError("polygon must be counter-clockwise with positive area")
        n = len(verts)
        for i in range(n):
            for j in range(i + 1, n):
                if abs(i - j) in (1, n - 1):
                    continue
                if _segments_properly_intersect(
                    verts[i], verts[(i + 1) % n], verts[j], verts[(j + 1) % n]
                ):
                    raise ValueError("polygon must be simple (non-self-intersecting)")
        object.__setattr__(self, "vertices", verts)

    @derived
    def bounds(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounding box as (xmin, xmax, ymin, ymax)."""
        return ring_bounds(self.vertices)

    @property
    def centroid(self) -> Vec2:
        a = 0.0
        cx = 0.0
        cy = 0.0
        n = len(self.vertices)
        for i in range(n):
            x0, y0 = self.vertices[i]
            x1, y1 = self.vertices[(i + 1) % n]
            cross = x0 * y1 - x1 * y0
            a += cross
            cx += (x0 + x1) * cross
            cy += (y0 + y1) * cross
        a *= 0.5
        return (cx / (6.0 * a), cy / (6.0 * a))

    def edges(self):
        n = len(self.vertices)
        for i in range(n):
            yield self.vertices[i], self.vertices[(i + 1) % n]

    def boundary_distance(self, p: Vec2) -> float:
        return nearest_edge(p, self.vertices)[0]

    def closest_boundary_point(self, p: Vec2) -> Vec2:
        return nearest_edge(p, self.vertices)[2]  # type: ignore[return-value]

    def translated(self, dx: float, dy: float) -> "Polygon2":
        return Polygon2(tuple((x + dx, y + dy) for x, y in self.vertices))


def point_in_polygon(p: Vec2, poly: Polygon2, tol: float = _BOUNDARY_TOL) -> bool:
    """True iff p is strictly inside or on the boundary (within tol)."""
    # Exact early return: a point more than tol outside the bounding box is
    # farther than tol from every edge, and a ray to its right crosses no
    # edge or every edge spanning its height, an even number, so the tests
    # below return False for it too. The extra 1e-9 covers their rounding
    # for coordinates up to ~1e6.
    x, y = p
    xmin, xmax, ymin, ymax = poly.bounds
    slack = max(tol, 0.0) + 1e-9
    if x < xmin - slack or x > xmax + slack or y < ymin - slack or y > ymax + slack:
        return False
    # crossing number first: it is cheaper than the boundary distance, which
    # only a point the crossings put outside needs, to count it in when it
    # lies within tol of an edge
    inside = False
    verts = poly.vertices
    x0, y0 = verts[0]
    for x1, y1 in verts[1:] + verts[:1]:
        if (y0 > y) != (y1 > y):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if xi > x:
                inside = not inside
        x0, y0 = x1, y1
    return inside or poly.boundary_distance(p) <= tol


def signed_interior_margin(p: Vec2, poly: Polygon2) -> float:
    """Distance to the boundary, positive inside and negative outside."""
    d = poly.boundary_distance(p)
    return d if point_in_polygon(p, poly, tol=0.0) or d <= _BOUNDARY_TOL else -d


def rect_polygon(cx: float, cy: float, half_x: float, half_y: float,
                 yaw: float = 0.0) -> Polygon2:
    c, s = math.cos(yaw), math.sin(yaw)
    corners = []
    for lx, ly in ((-half_x, -half_y), (half_x, -half_y), (half_x, half_y), (-half_x, half_y)):
        corners.append((cx + c * lx - s * ly, cy + s * lx + c * ly))
    return Polygon2(tuple(corners))


def convex_hull(points: list[Vec2]) -> list[Vec2]:
    """Andrew monotone chain; returns CCW hull without the repeated endpoint."""
    return _float_hull(set((float(x), float(y)) for x, y in points))


def _float_hull(points: set[Vec2]) -> list[Vec2]:
    """convex_hull of a set of float pairs, which it takes as they are."""
    pts = sorted(points)
    if len(pts) <= 2:
        return pts

    # pop while cross(chain[-2], chain[-1], p) <= 1e-15, cross written out
    lower: list[Vec2] = []
    for p in pts:
        px, py = p
        while len(lower) >= 2:
            (ox, oy), (ax, ay) = lower[-2], lower[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 1e-15:
                break
            lower.pop()
        lower.append(p)
    upper: list[Vec2] = []
    for p in reversed(pts):
        px, py = p
        while len(upper) >= 2:
            (ox, oy), (ax, ay) = upper[-2], upper[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 1e-15:
                break
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        # the 1e-15 cut pops real corners when points an ulp apart make the
        # float turns round to nothing; exact turns keep them
        return _exact_hull(pts)
    return hull


def _exact_hull(pts: list[Vec2]) -> list[Vec2]:
    """Monotone chain over sorted distinct float pairs, with each turn
    computed exactly in Fractions (Shewchuk, DCG 1997); it pops only
    collinear or clockwise turns."""
    exact = [(Fraction(x), Fraction(y)) for x, y in pts]

    def chain(order) -> list[int]:
        out: list[int] = []
        for i in order:
            px, py = exact[i]
            while len(out) >= 2:
                (ox, oy), (ax, ay) = exact[out[-2]], exact[out[-1]]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                    break
                out.pop()
            out.append(i)
        return out

    n = len(pts)
    return [pts[i] for i in chain(range(n))[:-1] + chain(reversed(range(n)))[:-1]]


def hull_polygon(hull) -> Polygon2:
    """``Polygon2(tuple(hull))`` for a ``convex_hull`` result.

    It raises what Polygon2 raises for too few vertices or a hull that is
    not counter-clockwise, and skips the simplicity test, since a monotone
    chain hull is simple; its vertices are already floats.
    """
    verts = tuple(hull)
    if len(verts) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    if _signed_area(verts) <= 0.0:
        raise ValueError("polygon must be counter-clockwise with positive area")
    return _from_checked(Polygon2, vertices=verts)


def clip_convex(subject: list[Vec2], clip: list[Vec2]) -> list[Vec2]:
    """Sutherland-Hodgman intersection of two convex CCW vertex rings."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        cx0, cy0 = clip[i]
        cx1, cy1 = clip[(i + 1) % n]
        ex, ey = cx1 - cx0, cy1 - cy0
        # each vertex's side is computed once and carried to the next one;
        # a crossing adds the intersection from prev to cur before cur
        new_output: list[Vec2] = []
        px, py = output[-1]
        p_in = ex * (py - cy0) - ey * (px - cx0) >= -1e-12
        for cur in output:
            qx, qy = cur
            q_in = ex * (qy - cy0) - ey * (qx - cx0) >= -1e-12
            if q_in != p_in:
                dx, dy = qx - px, qy - py
                denom = ex * dy - ey * dx
                if abs(denom) < 1e-18:
                    new_output.append(cur)
                else:
                    t = (ex * (cy0 - py) - ey * (cx0 - px)) / denom
                    t = t if t < 1.0 else 1.0  # max(0.0, min(1.0, t))
                    t = t if t > 0.0 else 0.0
                    new_output.append((px + t * dx, py + t * dy))
            if q_in:
                new_output.append(cur)
            px, py, p_in = qx, qy, q_in
        output = new_output
    return output


def ring_area(ring: list[Vec2]) -> float:
    if len(ring) < 3:
        return 0.0
    return abs(_signed_area(ring))


def ring_bounds(ring) -> tuple[float, float, float, float]:
    """Axis-aligned bounding box of a vertex ring as (xmin, xmax, ymin, ymax)."""
    xs = [v[0] for v in ring]
    ys = [v[1] for v in ring]
    return (min(xs), max(xs), min(ys), max(ys))


def bounds_disjoint(a: tuple[float, float, float, float],
                    b: tuple[float, float, float, float]) -> bool:
    """True iff two (xmin, xmax, ymin, ymax) boxes are strictly apart.

    Callers use it to skip a ``clip_convex`` pair whose clipped area they
    would discard anyway: the clip keeps subject points up to 1e-12 / |edge|
    outside a clip edge, so rings whose bounds are strictly apart clip to a
    sliver about that wide, with an area far under the 1e-9 to 1e-8
    tolerances the callers compare it with.
    """
    return a[1] < b[0] or b[1] < a[0] or a[3] < b[2] or b[3] < a[2]


# ---------------------------------------------------------------------------
# oriented bounding boxes
# ---------------------------------------------------------------------------

_LOCAL_FACES: tuple[tuple[int, float], ...] = (
    (0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0), (2, 1.0), (2, -1.0),
)
_CORNER_SIGNS: tuple[Vec3, ...] = tuple(
    (sx, sy, sz) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)
)
# Indices into _CORNER_SIGNS of each local face's corners, ordered
# (-a,-b), (+a,-b), (+a,+b), (-a,+b) over the other two axes a < b.
_FACE_CORNERS: dict[tuple[int, float], tuple[int, int, int, int]] = {
    (0, 1.0): (4, 6, 7, 5), (0, -1.0): (0, 2, 3, 1),
    (1, 1.0): (2, 6, 7, 3), (1, -1.0): (0, 4, 5, 1),
    (2, 1.0): (1, 5, 7, 3), (2, -1.0): (0, 4, 6, 2),
}


def box_corners(position: Vec3, q: Quat, half_extents: Vec3) -> tuple[Vec3, ...]:
    """World corners of a box centred at ``position`` with unit orientation
    ``q``, in ``_CORNER_SIGNS`` order."""
    # the transform_point of each signed half extent, with quat_rotate
    # written out
    hx, hy, hz = half_extents
    w, x, y, z = q
    px, py, pz = position
    out = []
    for sx, sy, sz in _CORNER_SIGNS:
        vx, vy, vz = sx * hx, sy * hy, sz * hz
        tx = 2.0 * (y * vz - z * vy)
        ty = 2.0 * (z * vx - x * vz)
        tz = 2.0 * (x * vy - y * vx)
        out.append((
            vx + w * tx + (y * tz - z * ty) + px,
            vy + w * ty + (z * tx - x * tz) + py,
            vz + w * tz + (x * ty - y * tx) + pz,
        ))
    return tuple(out)


def box_corner_heights(z: float, q: Quat, half_extents: Vec3) -> tuple[float, ...]:
    """The z of each ``box_corners((x, y, z), q, half_extents)`` corner, by
    the same expressions, for any x and y."""
    hx, hy, hz = half_extents
    w, x, y, qz = q
    out = []
    for sx, sy, sz in _CORNER_SIGNS:
        vx, vy, vz = sx * hx, sy * hy, sz * hz
        tx = 2.0 * (y * vz - qz * vy)
        ty = 2.0 * (qz * vx - x * vz)
        tz = 2.0 * (x * vy - y * vx)
        out.append(vz + w * tz + (x * ty - y * tx) + z)
    return tuple(out)


def down_face(q: Quat) -> tuple[int, float]:
    """Local face (axis index, sign) of a box with unit orientation ``q``
    whose outward normal points most downward."""
    # The z row of q's rotation: each value equals quat_rotate(q, axis)[2]
    # up to the sign of a zero, which no comparison below sees, and the
    # negative axes give the exact negations. A NaN q matches no face.
    w, x, y, z = q
    zx = w * (-2.0 * y) + x * (2.0 * z)
    zy = w * (2.0 * x) + y * (2.0 * z)
    zz = 1.0 + (x * (-2.0 * x) - y * (2.0 * y))
    best = None
    best_dz = math.inf
    for face, dz in zip(_LOCAL_FACES, (zx, -zx, zy, -zy, zz, -zz)):
        if dz < best_dz:
            best_dz = dz
            best = face
    return best  # type: ignore[return-value]


def face_normal(q: Quat, axis: int, sign: float) -> Vec3:
    """World outward normal of the local face (axis index, sign) of a box
    with orientation ``q``."""
    local = [0.0, 0.0, 0.0]
    local[axis] = sign
    return quat_rotate(q, tuple(local))


def largest_face_axis(h: Vec3) -> int:
    """Local axis of a box with half extents h whose two faces have the
    largest area."""
    areas = [h[1] * h[2], h[0] * h[2], h[0] * h[1]]
    return areas.index(max(areas))


@dataclass(frozen=True)
class Obb:
    """Oriented box: center pose plus strictly positive half extents."""

    center_pose: Pose6D
    half_extents: Vec3

    def __post_init__(self):
        h = tuple(float(c) for c in self.half_extents)
        if len(h) != 3 or not all(0.0 < c < math.inf for c in h):
            raise ValueError(f"half extents must be strictly positive, got {h}")
        object.__setattr__(self, "half_extents", h)

    # The box is frozen, so its world corners and what derives from them
    # are computed once per box, on first use.

    @derived
    def _corners(self) -> tuple[Vec3, ...]:
        pose = self.center_pose
        return box_corners(pose.position, pose.orientation, self.half_extents)

    @derived
    def _z_range(self) -> tuple[float, float]:
        zs = [c[2] for c in self._corners]
        return (min(zs), max(zs))

    @derived
    def xy_hull(self) -> tuple[Vec2, ...]:
        """Convex hull of the corners projected to the xy-plane (CCW)."""
        return tuple(_float_hull({(c[0], c[1]) for c in self._corners}))

    @derived
    def xy_bounds(self) -> tuple[float, float, float, float]:
        """Bounding box of the corners' xy projection as (xmin, xmax, ymin,
        ymax). It contains ``xy_hull``'s bounds, which lie an ulp or so
        inside it where the hull drops a near-duplicate corner."""
        return ring_bounds(self._corners)

    def corners(self) -> list[Vec3]:
        return list(self._corners)

    def bottom_z(self) -> float:
        return self._z_range[0]

    def top_z(self) -> float:
        return self._z_range[1]

    def down_face(self) -> tuple[int, float]:
        """Local face (axis index, sign) whose outward normal points most downward."""
        return down_face(self.center_pose.orientation)

    def footprint(self) -> Polygon2:
        """Convex hull of all corners projected to the xy-plane."""
        return self._footprint

    def resting_face(self) -> tuple[Vec2, ...]:
        """xy hull of the face currently pointing down (contact patch, CCW)."""
        return self._resting_face

    # a degenerate hull raises on every call: a fill that raises stores nothing
    @derived
    def _footprint(self) -> Polygon2:
        return hull_polygon(self.xy_hull)

    @derived
    def _resting_face(self) -> tuple[Vec2, ...]:
        face = _FACE_CORNERS[self.down_face()]
        cs = self._corners
        return tuple(_float_hull({(cs[i][0], cs[i][1]) for i in face}))

    def bottom_edges(self) -> list[tuple[Vec3, Vec3]]:
        """The four edges of the down face, as world point pairs."""
        face = _FACE_CORNERS[self.down_face()]
        cs = self._corners
        return [(cs[face[i]], cs[face[(i + 1) % 4]]) for i in range(4)]


def obbs_overlap(a: Obb, b: Obb, tol: float = 1e-9) -> bool:
    """True when the boxes' z intervals overlap by more than ``tol`` and
    their xy hulls' clipped intersection has more than ``tol`` area."""
    if a.bottom_z() >= b.top_z() - tol or b.bottom_z() >= a.top_z() - tol:
        return False
    if bounds_disjoint(a.xy_bounds, b.xy_bounds):
        return False
    if len(a.xy_hull) < 3 or len(b.xy_hull) < 3:
        return False
    return ring_area(clip_convex(a.xy_hull, b.xy_hull)) > tol


# ---------------------------------------------------------------------------
# sampling utilities
# ---------------------------------------------------------------------------

def farthest_point_sample(points: list[Vec2], k: int, start: int = 0) -> list[int]:
    """Greedy farthest-point sampling over 2D points.

    The first index is `start`; each subsequent index maximizes its minimum
    distance to all points already selected. Ties break toward the lowest
    index, making the result deterministic.
    """
    n = len(points)
    if n == 0:
        raise ValueError("points must be non-empty")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")
    if not 0 <= start < n:
        raise ValueError(f"start index {start} out of range")

    # One scan per pick: each point's distance to the last pick lowers its
    # minimum, which is then final for this round and enters the search for
    # the next pick in index order, so the lowest-index tie rule holds.
    chosen = [start]
    min_d2 = [math.inf] * n
    while len(chosen) < k:
        bx, by = points[chosen[-1]]
        best_i = 0
        best_d = -1.0
        i = 0
        for px, py in points:
            # ``** 2``, not ``dx * dx``: the two round differently for some
            # doubles, and the picks must not move
            d = (px - bx) ** 2 + (py - by) ** 2
            m = min_d2[i]
            if d < m:
                min_d2[i] = d
            else:
                d = m
            if d > best_d + 1e-15:
                best_d = d
                best_i = i
            i += 1
        chosen.append(best_i)
    return chosen
