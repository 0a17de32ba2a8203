"""Quasi-static tabletop rigid-body world.

The same scene type serves two roles: a rehearsal twin (role ``"twin"``)
used to settle-check candidate object poses, and the execution environment
(role ``"execution"``) in which controllers act. The execution role moves a
pushed object by only ``EXECUTION_PUSH_GAIN`` of the commanded step, so
rehearsed motions never match execution exactly; controllers must close the
loop.

Physics model, declared rather than simulated:

- Objects are oriented boxes resting face-down on flat surfaces, or tilted
  to the incline when supported by a slope.
- Static stability is the support-polygon test: an object is stable iff the
  ground projection of its center of mass lies inside the convex hull of
  its contact region (boundary inclusive).
- A push step translates by ``step * scene.push_gain()`` along the push
  direction and rotates in plane by ``PUSH_KAPPA * arm * step`` where
  ``arm`` is the signed moment arm of the contact about the center of mass.
  Motion is clipped so objects never interpenetrate terrain or each other.
- Pivoting rotates rigidly about a bottom edge; crossing the balance point
  (center of mass passing the vertical plane through the edge) completes
  the flip onto the adjacent face, otherwise the object relaxes back.

All scene values are immutable; operations return new scenes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from .geometry import (
    Obb,
    Polygon2,
    Pose6D,
    Quat,
    Vec2,
    Vec3,
    _BOUNDARY_TOL,
    _point_segment_distance,
    _from_checked,
    _signed_area,
    bounds_disjoint,
    box_corner_heights,
    box_corners,
    clip_convex,
    convex_hull,
    derived,
    down_face,
    geodesic_angle,
    hull_polygon,
    largest_face_axis,
    obbs_overlap,
    point_in_polygon,
    quat_from_axis_angle,
    quat_from_yaw,
    quat_mul,
    quat_rotate,
    ring_area,
    ring_bounds,
    signed_interior_margin,
    unit_quat,
    wrap_angle,
    yaw_of,
)

TERRAIN_KINDS = ("table_surface", "ground", "wall", "slope", "slot", "shelf")

_CONTACT_TOL = 1e-6
_AREA_TOL = 1e-8
_WALL_THICKNESS = 0.012
_CEILING_SLAB = 0.02

# The push model every scene simulates. The rehearsal twin moves a pushed
# object by the whole commanded step; execution moves it by this share.
EXECUTION_PUSH_GAIN = 0.85
PUSH_KAPPA = 50.0  # in-plane rotation, rad per (m arm * m step)
PUSH_STEP_CAP = 0.02  # longest push step, m
PUSH_CLIMB_TOL = 0.012  # max per-step surface rise an object can ride over, m

# The robot every scene simulates: a reach annulus about its base and a gripper
ROBOT_BASE = (0.0, -0.65)  # xy, m
REACH_MIN = 0.15  # m from the base
REACH_MAX = 0.95  # m from the base, without a tool
GRIPPER_APERTURE = 0.08  # widest pinch, m
FINGER_CLEARANCE = 0.015  # drop a finger needs below a grasped edge, m
# Coulomb friction of every object on a slope
FRICTION = 0.5


class PlacementCollision(Exception):
    """Placing an object here would interpenetrate another body or terrain."""


class SweptCollision(Exception):
    """A rigid motion sweep intersects terrain or another object."""


# ---------------------------------------------------------------------------
# scene data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TerrainFeature:
    kind: str
    footprint: Polygon2
    height: float
    extra: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if self.kind not in TERRAIN_KINDS:
            raise ValueError(f"unknown terrain kind {self.kind!r}")
        if self.height < 0.0:
            raise ValueError("terrain height must be >= 0")
        if self.kind == "wall" and self.extra.get("height", 0.0) <= 0.0:
            raise ValueError("wall needs extra['height'] > 0")
        if self.kind == "slope":
            angle = self.extra.get("angle_deg", 0.0)
            if not 0.0 < angle < 60.0:
                raise ValueError("slope angle must be in (0, 60) degrees")
            d = self.extra.get("downhill", (0.0, -1.0))
            n = math.hypot(d[0], d[1])
            if n < 1e-9:
                raise ValueError("slope downhill direction must be non-zero")
            ex = dict(self.extra)
            ex["downhill"] = (d[0] / n, d[1] / n)
            object.__setattr__(self, "extra", ex)
        if self.kind == "slot":
            if self.extra.get("depth", 0.0) <= 0.0:
                raise ValueError("slot needs extra['depth'] > 0")
        if self.kind == "shelf":
            if self.extra.get("clearance", 0.0) <= 0.0:
                raise ValueError("shelf needs extra['clearance'] > 0")


@dataclass(frozen=True)
class ToolSpec:
    kind: str  # "hook" | "pusher"
    effective_length: float
    tip_offset: Vec3

    def __post_init__(self):
        if self.kind not in ("hook", "pusher"):
            raise ValueError(f"unknown tool kind {self.kind!r}")
        if self.effective_length <= 0.0:
            raise ValueError("tool effective_length must be > 0")


@dataclass(frozen=True)
class RigidObject:
    id: str
    half_extents: Vec3  # of the box centred on the pose, along its local axes
    pose: Pose6D
    tool_spec: ToolSpec | None = None

    def __post_init__(self):
        # at_pose builds an object on every controller step, so the check
        # is written out
        h = tuple(map(float, self.half_extents))
        if len(h) != 3 or not (h[0] > 0.0 and h[1] > 0.0 and h[2] > 0.0):
            raise ValueError(f"object {self.id!r} half extents must be 3 positive "
                             f"numbers, got {h}")
        object.__setattr__(self, "half_extents", h)

    def world_obb(self) -> Obb:
        return self._world_obb

    # The object is frozen, so its world box, and with it the box's cached
    # corners and hull, is derived once per object; at_pose hands back the
    # object itself for its own pose, so a pose that does not change keeps
    # the box already derived.
    @derived
    def _world_obb(self) -> Obb:
        # the box's corner bits depend on normalizing the quaternion once
        # more; the position and half extents are checked already
        center = _from_checked(Pose6D, position=self.pose.position,
                               orientation=unit_quat(self.pose.orientation))
        return _from_checked(Obb, center_pose=center, half_extents=self.half_extents)

    @derived
    def _support_cell(self) -> SupportCell | None:
        """The object's top face as a support cell for the other objects,
        or None when its xy hull is degenerate."""
        box = self._world_obb
        if len(box.xy_hull) < 3:
            return None
        return SupportCell(box.xy_hull, "object", box.top_z(), object_id=self.id)

    def at_pose(self, pose: Pose6D) -> "RigidObject":
        """This object at ``pose``: itself when ``pose`` has the bits of its
        own pose, so every value derived from the pose is reused."""
        if _same_bits(pose.position, self.pose.position) and _same_bits(
            pose.orientation, self.pose.orientation
        ):
            return self
        return _from_checked(RigidObject, id=self.id, half_extents=self.half_extents,
                             pose=pose, tool_spec=self.tool_spec)


def _same_bits(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """True iff two float tuples are equal bit for bit: equal values, and
    zeros of the same sign, since a trace prints 0.0 and -0.0 apart."""
    return a == b and (0.0 not in a or all(
        math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in zip(a, b) if x == 0.0
    ))


@dataclass(frozen=True)
class SettleOutcome:
    status: str  # "stable" | "toppled" | "fell_off"
    final_pose: Pose6D


@dataclass(frozen=True)
class PushDelta:
    dx: float
    dy: float
    dyaw: float
    settle_status: str


@dataclass(frozen=True)
class TwinScene:
    terrain: Terrain  # any sequence of features; frozen in __post_init__
    objects: tuple[RigidObject, ...]
    role: str = "twin"
    held_id: str | None = None

    def __post_init__(self):
        # the terrain caches its derived geometry, so it is frozen once here
        # and shared by every dataclasses.replace copy of the scene
        if not isinstance(self.terrain, Terrain):
            object.__setattr__(self, "terrain", Terrain(self.terrain))
        if self.role not in ("twin", "execution"):
            raise ValueError("role must be 'twin' or 'execution'")
        ids = [o.id for o in self.objects]
        if len(ids) != len(set(ids)):
            raise ValueError("object ids must be unique")
        if self.held_id is not None and self.held_id not in ids:
            raise ValueError(f"held_id {self.held_id!r} not in scene")

    def object(self, object_id: str) -> RigidObject:
        for o in self.objects:
            if o.id == object_id:
                return o
        raise KeyError(f"no object {object_id!r} in scene")

    def replace_object(self, obj: RigidObject) -> "TwinScene":
        new = tuple(obj if o.id == obj.id else o for o in self.objects)
        if all(o is not obj for o in new):
            raise KeyError(f"no object {obj.id!r} in scene")
        # the ids, and with them the held id, are those of this scene
        return _from_checked(TwinScene, terrain=self.terrain, objects=new,
                             role=self.role, held_id=self.held_id)

    def with_held(self, object_id: str | None) -> "TwinScene":
        return replace(self, held_id=object_id)

    def as_twin(self) -> "TwinScene":
        return replace(self, role="twin")

    def as_execution(self) -> "TwinScene":
        return replace(self, role="execution")

    def push_gain(self) -> float:
        """The share of a commanded push step that this scene carries out."""
        return EXECUTION_PUSH_GAIN if self.role == "execution" else 1.0


# ---------------------------------------------------------------------------
# support cells and solids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportCell:
    ring: tuple[Vec2, ...]  # convex CCW
    kind: str
    height: float  # flat cells; a slope cell's crest
    feature: TerrainFeature | None = None
    object_id: str | None = None

    def height_at(self, p: Vec2) -> float:
        """The twin's terrain height rule: a slope cell's incline plane at
        ``p``, and the flat height of every other cell."""
        if self.kind == "slope":
            extra = self.feature.extra
            d = extra["downhill"]
            s_min = min(v[0] * d[0] + v[1] * d[1] for v in self.ring)
            s = p[0] * d[0] + p[1] * d[1]
            return self.height - math.tan(math.radians(extra["angle_deg"])) * (s - s_min)
        return self.height

    @derived
    def polygon(self) -> Polygon2:
        """The ring as a validated polygon, built on first use."""
        return Polygon2(self.ring)

    @derived
    def bounds(self) -> tuple[float, float, float, float]:
        """The ring's bounding box; object cells are built per query, so this
        skips the ``Polygon2`` that ``polygon.bounds`` would validate."""
        return ring_bounds(self.ring)

    @derived
    def rect(self) -> bool:
        """True iff the ring is a counter-clockwise axis-aligned rectangle:
        4 vertices, each edge changes exactly one coordinate, and the signed
        area is positive."""
        if len(self.ring) != 4:
            return False
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = self.ring
        return (
            (y0 == y1 and x1 == x2 and y2 == y3 and x3 == x0)
            or (x0 == x1 and y1 == y2 and x2 == x3 and y3 == y0)
        ) and _signed_area(self.ring) > 0.0


@dataclass(frozen=True)
class Solid:
    """An axis-extruded blocked volume (walls, shelf sides, raised slabs)."""

    ring: tuple[Vec2, ...]
    z0: float
    z1: float
    label: str = ""

    @derived
    def polygon(self) -> Polygon2:
        """The ring as a validated polygon, built on first use."""
        return Polygon2(self.ring)


def _axis_rect_bounds(ring):
    """(x0, x1, y0, y1) of an axis-aligned rectangle ring, else None."""
    if len(ring) != 4:
        return None
    x0, x1, y0, y1 = ring_bounds(ring)
    for vx, vy in ring:
        if (abs(vx - x0) > 1e-12 and abs(vx - x1) > 1e-12) or (
            abs(vy - y0) > 1e-12 and abs(vy - y1) > 1e-12
        ):
            return None
    return x0, x1, y0, y1


def _punch_slots(surface: TerrainFeature, slots: list[TerrainFeature]):
    """Split a flat surface footprint into convex rects around interior slots.

    Only axis-aligned rectangular cuts are supported, which covers every
    scene this package builds; anything else is rejected loudly.
    """
    rings = [surface.footprint.vertices]
    for slot in slots:
        sb = _axis_rect_bounds(slot.footprint.vertices)
        if sb is None:
            raise ValueError("slot footprints must be axis-aligned rectangles")
        sx0, sx1, sy0, sy1 = sb
        new_rings = []
        for ring in rings:
            rb = _axis_rect_bounds(ring)
            if rb is None:
                raise ValueError("slotted surfaces must be axis-aligned rectangles")
            rx0, rx1, ry0, ry1 = rb
            ix0, ix1 = max(rx0, sx0), min(rx1, sx1)
            iy0, iy1 = max(ry0, sy0), min(ry1, sy1)
            if ix0 >= ix1 or iy0 >= iy1:
                new_rings.append(ring)
                continue
            # frame decomposition: left / right strips, then top / bottom
            pieces = [
                (rx0, ix0, ry0, ry1),
                (ix1, rx1, ry0, ry1),
                (ix0, ix1, ry0, iy0),
                (ix0, ix1, iy1, ry1),
            ]
            for px0, px1, py0, py1 in pieces:
                if px1 - px0 > 1e-9 and py1 - py0 > 1e-9:
                    new_rings.append(
                        ((px0, py0), (px1, py0), (px1, py1), (px0, py1))
                    )
        rings = new_rings
    return rings


def _slotted_rings(terrain: tuple[TerrainFeature, ...], surface: TerrainFeature):
    """The surface footprint split around the slots that overlap it."""
    ring = list(surface.footprint.vertices)
    overlapping = [
        t for t in terrain
        if t.kind == "slot"
        and ring_area(clip_convex(ring, list(t.footprint.vertices))) > _AREA_TOL
    ]
    return _punch_slots(surface, overlapping)


class Terrain(tuple):
    """A scene's terrain features, with the geometry they fix for every scene
    that shares them.

    Each part is derived on first use, so a terrain that only one query
    rejects (a rotated shelf has no solids) fails only that query. Two
    threads that race on a part both derive it, to equal values.
    """

    @derived
    def cells(self) -> tuple[SupportCell, ...]:
        cells: list[SupportCell] = []
        for t in self:
            if t.kind in ("table_surface", "ground", "shelf"):
                for ring in _slotted_rings(self, t):
                    cells.append(SupportCell(tuple(ring), t.kind, t.height, feature=t))
            elif t.kind == "slot":
                cells.append(
                    SupportCell(tuple(t.footprint.vertices), "slot", t.height - t.extra["depth"], feature=t)
                )
            elif t.kind == "wall":
                cells.append(
                    SupportCell(tuple(t.footprint.vertices), "wall", t.height + t.extra["height"], feature=t)
                )
            elif t.kind == "slope":
                cells.append(SupportCell(tuple(t.footprint.vertices), "slope", t.height, feature=t))
        return tuple(cells)

    @derived
    def solids(self) -> tuple[Solid, ...]:
        solids: list[Solid] = []
        for t in self:
            if t.kind == "table_surface":
                for ring in _slotted_rings(self, t):
                    solids.append(Solid(tuple(ring), 0.0, t.height, label=t.name or "table"))
            elif t.kind == "wall":
                solids.append(
                    Solid(tuple(t.footprint.vertices), t.height, t.height + t.extra["height"],
                          label=t.name or "wall")
                )
            elif t.kind == "shelf":
                # an open-sided cubby: a back wall opposite the open face plus a
                # ceiling slab; the sides stay open so objects can swing out
                bounds = _axis_rect_bounds(t.footprint.vertices)
                if bounds is None:
                    raise ValueError("shelf footprints must be axis-aligned rectangles")
                x0, x1, y0, y1 = bounds
                open_face = t.extra.get("open_face", (0.0, -1.0))
                clearance = t.extra["clearance"]
                top = t.height + clearance + _CEILING_SLAB
                w = _WALL_THICKNESS
                dirs = {"+x": (1, 0), "-x": (-1, 0), "+y": (0, 1), "-y": (0, -1)}
                sides = {
                    "+x": ((x1, y0), (x1 + w, y0), (x1 + w, y1), (x1, y1)),
                    "-x": ((x0 - w, y0), (x0, y0), (x0, y1), (x0 - w, y1)),
                    "+y": ((x0, y1), (x1, y1), (x1, y1 + w), (x0, y1 + w)),
                    "-y": ((x0, y0 - w), (x1, y0 - w), (x1, y0), (x0, y0)),
                }
                open_key = max(
                    dirs, key=lambda k: dirs[k][0] * open_face[0] + dirs[k][1] * open_face[1]
                )
                back_key = {"+x": "-x", "-x": "+x", "+y": "-y", "-y": "+y"}[open_key]
                solids.append(Solid(sides[back_key], t.height, top,
                                    label=f"{t.name or 'shelf'} wall"))
                ceiling = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
                solids.append(
                    Solid(ceiling, t.height + clearance, top,
                          label=f"{t.name or 'shelf'} ceiling")
                )
        return tuple(solids)

    @derived
    def slopes(self) -> tuple[SupportCell, ...]:
        return tuple(c for c in self.cells if c.kind == "slope")


def support_cells(scene: TwinScene, exclude_id: str | None = None,
                  include_objects: bool = True) -> list[SupportCell]:
    cells = list(scene.terrain.cells)
    if include_objects:
        for o in scene.objects:
            if o.id == exclude_id or o.id == scene.held_id:
                continue
            cell = o._support_cell
            if cell is not None:
                cells.append(cell)
    return cells


def _slope_penetration(scene: TwinScene, box: Obb, tol: float,
                       climb_tol: float) -> bool:
    # Pointwise at the corners: correct for plane-aligned tilted boxes, which
    # a single bottom-z scalar would misclassify. Objects spanning a whole
    # slope feature are not modeled.
    for cell in scene.terrain.slopes:
        for c in box.corners():
            p = (c[0], c[1])
            if point_in_polygon(p, cell.polygon) and c[2] + climb_tol < cell.height_at(p) - tol:
                return True
    return False


def box_hits_solids(scene: TwinScene, box: Obb, tol: float = 1e-6,
                    climb_tol: float = 0.0, include_slopes: bool = True) -> Solid | None:
    """First terrain solid (or slope) the box enters by more than ``tol``, or
    None; ``climb_tol`` lifts the box bottom over low steps. A box with a
    degenerate xy hull enters nothing."""
    bottom, top = box.bottom_z(), box.top_z()
    # the hull is derived only for a solid that passes the z test, or for
    # the slopes; clipped, a hull of fewer than 3 points has no area
    for solid in scene.terrain.solids:
        if bottom + climb_tol >= solid.z1 - tol or top <= solid.z0 + tol:
            continue
        if bounds_disjoint(box.xy_bounds, solid.polygon.bounds):
            continue
        if ring_area(clip_convex(box.xy_hull, solid.ring)) > _AREA_TOL:
            return solid
    if not (include_slopes and scene.terrain.slopes) or len(box.xy_hull) < 3:
        return None
    if _slope_penetration(scene, box, tol, climb_tol):
        return Solid(box.xy_hull, 0.0, 0.0, label="slope")
    return None


def overlapping_object(scene: TwinScene, box: Obb, object_id: str) -> RigidObject | None:
    """First object whose box overlaps ``box``, skipping ``object_id`` and
    the held object."""
    for other in scene.objects:
        if other.id == object_id or other.id == scene.held_id:
            continue
        if obbs_overlap(box, other.world_obb(), tol=1e-7):
            return other
    return None


# ---------------------------------------------------------------------------
# orientation helpers
# ---------------------------------------------------------------------------

def _snap_face_down(q: Quat) -> Quat:
    """Minimal world rotation making the current down face exactly horizontal."""
    return _face_down_orientation(q, *down_face(unit_quat(q)))


def _face_down_orientation(q: Quat, axis: int, sign: float) -> Quat:
    """Rotate q so the given local face points straight down (minimal rotation)."""
    local = [0.0, 0.0, 0.0]
    local[axis] = sign
    n = quat_rotate(q, tuple(local))
    dot = max(-1.0, min(1.0, -n[2]))
    angle = math.acos(dot)
    if angle < 1e-12:
        return q
    ax = (-n[1], n[0], 0.0)  # cross(n, (0, 0, -1))
    norm = math.sqrt(ax[0] ** 2 + ax[1] ** 2)
    if norm < 1e-12:
        ax, norm = (1.0, 0.0, 0.0), 1.0
    correction = quat_from_axis_angle((ax[0] / norm, ax[1] / norm, 0.0), angle)
    return quat_mul(correction, q)


def slope_orientation(yaw_flat_quat: Quat, feature: TerrainFeature) -> Quat:
    """Tilt a face-flat orientation onto a slope's incline plane."""
    d = feature.extra["downhill"]
    theta = math.radians(feature.extra["angle_deg"])
    tilt_axis = (-d[1], d[0], 0.0)
    return quat_mul(quat_from_axis_angle(tilt_axis, theta), yaw_flat_quat)


def flat_pose_on_support(scene: TwinScene, obj: RigidObject, x: float, y: float,
                         yaw: float, base_orientation: Quat | None = None,
                         objects_as_support: bool = True) -> Pose6D:
    """Construct the supported-flat pose at (x, y, yaw) for this object.

    Orientation roll/pitch are pinned exactly: flat surfaces give a pure-yaw
    composition with the object's flattened base orientation; slopes tilt it
    onto the incline plane.
    """
    base = base_orientation if base_orientation is not None else obj.pose.orientation
    flat = _snap_face_down(base)
    delta = wrap_angle(yaw - yaw_of(flat))
    q = quat_mul(quat_from_yaw(delta), flat)
    probe = obj.at_pose(Pose6D((x, y, 1.0), q))
    hull = probe.world_obb().xy_hull
    best_cell = None
    best_h = -math.inf
    for h, cell, _ in _support_pieces(scene, obj.id, hull, objects_as_support):
        if h > best_h + 1e-9:
            best_h = h
            best_cell = cell
    if best_cell is None:
        return Pose6D((x, y, _half_height(obj, q)), q)
    if best_cell.kind == "slope":
        feature = best_cell.feature
        assert feature is not None
        q = slope_orientation(q, feature)
        return Pose6D((x, y, _rest_z(scene, obj, x, y, q)), q)
    return Pose6D((x, y, best_h + _half_height(obj, q)), q)


def _half_height(obj: RigidObject, q: Quat) -> float:
    """Height of the object's centre above its lowest corner at orientation q."""
    return -min(box_corner_heights(0.0, unit_quat(q), obj.half_extents))


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

def place_at(scene: TwinScene, object_id: str, pose: Pose6D) -> TwinScene:
    """Teleport an object to a pose without settling.

    Raises PlacementCollision when the new placement interpenetrates another
    object or a terrain solid (walls, raised slabs, shelf structure).
    """
    obj = scene.object(object_id)
    moved = obj.at_pose(pose)
    box = moved.world_obb()
    other = overlapping_object(scene, box, object_id)
    if other is not None:
        raise PlacementCollision(
            f"{object_id} at {pose.position} interpenetrates {other.id}"
        )
    solid = box_hits_solids(scene, box, tol=1e-3)
    if solid is not None:
        raise PlacementCollision(
            f"{object_id} at {pose.position} interpenetrates terrain ({solid.label})"
        )
    return scene.replace_object(moved)


def rest_on_support(scene: TwinScene, object_id: str,
                    pose: Pose6D) -> tuple[TwinScene, SettleOutcome] | None:
    """Place and settle an object: (rested scene, outcome), or None when the
    placement collides, the rest is unstable, or it is on the bare ground."""
    try:
        placed = place_at(scene, object_id, pose)
    except PlacementCollision:
        return None
    outcome = settle(placed, object_id)
    if outcome.status != "stable":
        return None
    rested = placed.replace_object(placed.object(object_id).at_pose(outcome.final_pose))
    if not raised_support(rested, object_id):
        return None
    return rested, outcome


def _support_pieces(scene: TwinScene, object_id: str, hull: tuple[Vec2, ...],
                    include_objects: bool = True):
    """(height, cell, piece) for every support cell the hull overlaps."""
    cells = support_cells(scene, exclude_id=object_id, include_objects=include_objects)
    scored: list[tuple[float, SupportCell, list[Vec2]]] = []
    bounds = ring_bounds(hull)
    hx0, hx1, hy0, hy1 = bounds
    for cell in cells:
        if bounds_disjoint(bounds, cell.bounds):
            continue
        cx0, cx1, cy0, cy1 = cell.bounds
        if cell.rect and cx0 <= hx0 and hx1 <= cx1 and cy0 <= hy0 and hy1 <= cy1:
            # for an axis-aligned edge the clip's side test is a coordinate
            # comparison that every vertex of a contained hull passes, so
            # the clip would return the hull unchanged
            piece = list(hull)
        else:
            piece = clip_convex(hull, cell.ring)
        if ring_area(piece) <= _AREA_TOL:
            continue
        if cell.kind != "slope":
            h = cell.height  # what height_at gives at every point
        else:
            h = max(cell.height_at(p) for p in piece)
        scored.append((h, cell, piece))
    return scored


def settle(scene: TwinScene, object_id: str) -> SettleOutcome:
    """Drop an object to rest and classify the outcome.

    The object falls along -z onto the highest support under its footprint.
    Orientation snaps to the nearest face-down orientation (or the incline
    orientation when a slope carries it). If the center of mass projects
    outside the support polygon the object topples over the nearest support
    edge, largest face down; with no raised support at all it lands on the
    ground and reports fell_off.
    """
    obj = scene.object(object_id)
    pose = obj.pose
    status = "stable"
    outward: Vec2 = (0.0, 0.0)
    for hop in range(3):
        flat_q = _snap_face_down(pose.orientation)
        pose = Pose6D(pose.position, flat_q)
        face = obj.at_pose(pose).world_obb().resting_face()
        scored = _support_pieces(scene, obj.id, face)
        raised = [(h, c, p) for h, c, p in scored if c.kind != "ground"]
        if not raised:
            z = _ground_height(scene) + _half_height(obj, flat_q)
            final = Pose6D((pose.x, pose.y, z), flat_q)
            # fell_off marks the transition; an object already at rest on the
            # ground is simply stable (keeps settle idempotent)
            already_resting = (
                status == "stable"
                and abs(obj.pose.z - z) <= 1e-6
                and geodesic_angle(obj.pose.orientation, flat_q) < 1e-7
            )
            return SettleOutcome("stable" if already_resting else "fell_off", final)

        com = (pose.x, pose.y)
        slope_cells = [c for _, c, _ in raised if c.kind == "slope"]

        # the tilted branch starts only once the COM is clearly on the
        # incline; around the foot line the flat contacts carry the object
        # (it leans on the rising sliver) so the transition cannot flicker
        for cell in slope_cells:
            if signed_interior_margin(com, cell.polygon) > 0.01:
                return _settle_on_slope(scene, obj, pose, cell, status)

        flat = [(h, c, p) for h, c, p in raised if c.kind != "slope"]
        if not flat and slope_cells:
            return _settle_on_slope(scene, obj, pose, slope_cells[0], status)

        h_star, hull = _support_polygon(flat)
        inside = len(hull) >= 3 and point_in_polygon(com, hull_polygon(hull))

        if inside:
            z = h_star + _half_height(obj, flat_q)
            final = Pose6D((pose.x, pose.y, z), flat_q)
            return SettleOutcome(status, final)

        if hop == 0:
            # topple over the nearest support edge, largest face ends down
            status = "toppled"
            pose, outward = _topple_once(obj, pose, hull, h_star)
        else:
            # a second unstable state means it tumbles clear: slide outward
            # until no raised support remains, then rest on the ground
            pose = _slide_clear(scene, obj, pose, outward)
    return _ground_rest(scene, obj, pose, "fell_off")


def _support_polygon(pieces) -> tuple[float, list[Vec2]]:
    """The highest height among (height, cell, piece) triples, and the convex
    hull of the pieces within 2 mm of it: the polygon an object rests on."""
    h_star = max(h for h, _, _ in pieces)
    return h_star, convex_hull([v for h, _, piece in pieces if h >= h_star - 0.002
                                for v in piece])


def cell_under(cells: Sequence[SupportCell], p: Vec2) -> SupportCell | None:
    """The cell with the highest support at a point, the first of equally
    high ones; None over the void."""
    best, best_h = None, -math.inf
    x, y = p
    slack = max(_BOUNDARY_TOL, 0.0) + 1e-9  # point_in_polygon's early return
    for cell in cells:
        if len(cell.ring) < 3:
            continue
        xmin, xmax, ymin, ymax = cell.bounds
        if x < xmin - slack or x > xmax + slack or y < ymin - slack or y > ymax + slack:
            continue
        if point_in_polygon(p, cell.polygon):
            h = cell.height_at(p)
            if h > best_h:
                best, best_h = cell, h
    return best


def support_height_at(cells: Sequence[SupportCell], p: Vec2) -> float | None:
    """Highest support height at a point over the given cells; None over the void."""
    cell = cell_under(cells, p)
    return None if cell is None else cell.height_at(p)


def _rest_z(scene: TwinScene, obj: RigidObject, x: float, y: float,
            q: Quat) -> float:
    """Center height at which no corner penetrates its local support."""
    probe = obj.at_pose(Pose6D((x, y, 1.0), q))
    cells = support_cells(scene, exclude_id=obj.id)
    offsets = [
        h - (c[2] - 1.0)
        for c in probe.world_obb().corners()
        for h in [support_height_at(cells, (c[0], c[1]))]
        if h is not None
    ]
    if not offsets:
        return _half_height(obj, q)
    return max(offsets)


def _settle_on_slope(scene: TwinScene, obj: RigidObject, pose: Pose6D,
                     cell: SupportCell, status: str) -> SettleOutcome:
    feature = cell.feature
    assert feature is not None
    theta = math.radians(feature.extra["angle_deg"])
    if FRICTION < math.tan(theta):
        # insufficient friction: slide down until the footprint leaves the slope
        d = feature.extra["downhill"]
        x, y = pose.x, pose.y
        for _ in range(200):
            x += d[0] * 0.01
            y += d[1] * 0.01
            if not point_in_polygon((x, y), feature.footprint):
                break
        slid = obj.at_pose(Pose6D((x, y, pose.z), pose.orientation))
        return settle(scene.replace_object(slid), obj.id)

    q = slope_orientation(pose.orientation, feature)
    probe = obj.at_pose(Pose6D((pose.x, pose.y, 1.0), q))
    piece = clip_convex(probe.world_obb().resting_face(), cell.ring)
    hull = convex_hull(piece) if ring_area(piece) > _AREA_TOL else []
    if len(hull) < 3 or signed_interior_margin(
        (pose.x, pose.y), hull_polygon(hull)
    ) < -1e-6:
        # carried past the crest or off the side: resolve as a topple to flat
        flat_q = _snap_face_down(pose.orientation)
        toppled, _ = _topple_once(obj, Pose6D(pose.position, flat_q), hull,
                                  feature.height)
        after = settle(scene.replace_object(obj.at_pose(toppled)), obj.id)
        stat = "toppled" if after.status == "stable" else after.status
        return SettleOutcome(stat, after.final_pose)

    z = _rest_z(scene, obj, pose.x, pose.y, q)
    final = Pose6D((pose.x, pose.y, z), q)
    return SettleOutcome(status, final)


def _slide_clear(scene: TwinScene, obj: RigidObject, pose: Pose6D,
                 outward: Vec2) -> Pose6D:
    dx, dy = outward
    if math.hypot(dx, dy) < 1e-9:
        dx, dy = 1.0, 0.0
    x, y = pose.x, pose.y
    for _ in range(80):
        probe = Pose6D((x, y, pose.z), pose.orientation)
        face = obj.at_pose(probe).world_obb().resting_face()
        scored = _support_pieces(scene, obj.id, face)
        if not any(c.kind != "ground" for _, c, _ in scored):
            break
        x += dx * 0.01
        y += dy * 0.01
    return Pose6D((x, y, pose.z), pose.orientation)


def _ground_rest(scene: TwinScene, obj: RigidObject, pose: Pose6D,
                 status: str) -> SettleOutcome:
    flat_q = _snap_face_down(pose.orientation)
    z = _ground_height(scene) + _half_height(obj, flat_q)
    return SettleOutcome(status, Pose6D((pose.x, pose.y, z), flat_q))


def _ground_height(scene: TwinScene) -> float:
    grounds = [c for c in support_cells(scene, include_objects=False) if c.kind == "ground"]
    return grounds[0].height if grounds else 0.0


def _topple_once(obj: RigidObject, pose: Pose6D, support_hull: list[Vec2],
                 h_star: float) -> tuple[Pose6D, Vec2]:
    com = (pose.x, pose.y)
    if len(support_hull) >= 2:
        best_a, best_b, best_d = support_hull[0], support_hull[-1], math.inf
        n = len(support_hull)
        for i in range(n if n > 2 else 1):
            a = support_hull[i]
            b = support_hull[(i + 1) % n]
            d = _point_segment_distance(com, a, b)
            if d < best_d:
                best_d = d
                best_a, best_b = a, b
        edge_a, edge_b = best_a, best_b
    else:
        p = support_hull[0] if support_hull else com
        edge_a, edge_b = (p[0], p[1] - 0.05), (p[0], p[1] + 0.05)

    ex, ey = edge_b[0] - edge_a[0], edge_b[1] - edge_a[1]
    L = math.hypot(ex, ey) or 1.0
    ex, ey = ex / L, ey / L
    # outward horizontal direction: from the edge toward the COM side
    ox, oy = com[0] - edge_a[0], com[1] - edge_a[1]
    t = ox * ex + oy * ey
    px, py = edge_a[0] + t * ex, edge_a[1] + t * ey
    dx, dy = com[0] - px, com[1] - py
    dn = math.hypot(dx, dy)
    if dn < 1e-9:
        dx, dy = -ey, ex
        dn = 1.0
    dx, dy = dx / dn, dy / dn

    largest_axis = largest_face_axis(obj.half_extents)
    q1 = quat_from_axis_angle((ex, ey, 0.0), _flip_sign((ex, ey), (dx, dy)))
    q_flipped = quat_mul(q1, pose.orientation)
    q_final = _face_down_orientation(q_flipped, largest_axis,
                                     _down_sign(q_flipped, largest_axis))
    # support function of the flipped box along the outward direction, so the
    # resolved pose clears the support edge instead of straddling it
    flipped = box_corners((0.0, 0.0, 0.0), unit_quat(q_final), obj.half_extents)
    e_out = max(abs(c[0] * dx + c[1] * dy) for c in flipped)
    new_center = (px + dx * (e_out + 1e-4), py + dy * (e_out + 1e-4))
    z = h_star + _half_height(obj, q_final)
    return Pose6D((new_center[0], new_center[1], z), q_final), (dx, dy)


def _down_sign(q: Quat, axis: int) -> float:
    local = [0.0, 0.0, 0.0]
    local[axis] = 1.0
    n = quat_rotate(q, tuple(local))
    return 1.0 if n[2] < 0 else -1.0


def _flip_sign(edge_dir: Vec2, outward: Vec2) -> float:
    # rotating +90 deg about the edge axis should carry the top toward outward
    cx = edge_dir[0] * outward[1] - edge_dir[1] * outward[0]
    return math.pi / 2 if cx < 0 else -math.pi / 2


def stability_margin(scene: TwinScene, object_id: str) -> float:
    """Signed COM-inside-support-polygon margin at the object's current pose."""
    obj = scene.object(object_id)
    scored = _support_pieces(scene, obj.id, obj.world_obb().resting_face())
    raised = [(h, c, p) for h, c, p in scored if c.kind != "ground"]
    if not raised:
        raised = scored  # resting on bare ground
    if not raised:
        return -math.inf
    _, hull = _support_polygon(raised)
    if len(hull) < 3:
        return -math.inf
    return signed_interior_margin((obj.pose.x, obj.pose.y), hull_polygon(hull))


def raised_support(scene: TwinScene, object_id: str) -> bool:
    """True when the object rests on something other than the bare ground."""
    obj = scene.object(object_id)
    scored = _support_pieces(scene, obj.id, obj.world_obb().resting_face())
    return any(c.kind != "ground" for _, c, _ in scored)


# ---------------------------------------------------------------------------
# pushing
# ---------------------------------------------------------------------------

def _surface_distance_to_obb(box: Obb, point: Vec3) -> float:
    pose = box.center_pose
    rel = (point[0] - pose.x, point[1] - pose.y, point[2] - pose.z)
    inv = quat_rotate((pose.orientation[0], -pose.orientation[1],
                       -pose.orientation[2], -pose.orientation[3]), rel)
    h = box.half_extents
    dx = max(abs(inv[0]) - h[0], 0.0)
    dy = max(abs(inv[1]) - h[1], 0.0)
    dz = max(abs(inv[2]) - h[2], 0.0)
    outside = math.sqrt(dx * dx + dy * dy + dz * dz)
    if outside > 0.0:
        return outside
    return -min(h[0] - abs(inv[0]), h[1] - abs(inv[1]), h[2] - abs(inv[2]))


def _pose_after_planar_motion(pose: Pose6D, dx: float, dy: float, dyaw: float) -> Pose6D:
    q = quat_mul(quat_from_yaw(dyaw), pose.orientation)
    return Pose6D((pose.x + dx, pose.y + dy, pose.z), q)


def _motion_blocked(scene: TwinScene, moved: RigidObject) -> bool:
    # inclines never block planar motion: objects ride up and settle re-tilts
    # them; steps taller than the climb tolerance (pads, rails, walls) do
    box = moved.world_obb()
    if box_hits_solids(scene, box, tol=1e-6, climb_tol=PUSH_CLIMB_TOL,
                       include_slopes=False) is not None:
        return True
    return overlapping_object(scene, box, moved.id) is not None


def _clip_fraction(scene: TwinScene, obj: RigidObject, full: RigidObject,
                   tx: float, ty: float, dyaw: float) -> float:
    """The largest share of the planar motion, bisected to 14 steps, that the
    object can make without entering terrain or another object; ``full`` is
    the object after the whole motion."""
    if not _motion_blocked(scene, full):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(14):
        mid = 0.5 * (lo + hi)
        pose_mid = _pose_after_planar_motion(obj.pose, tx * mid, ty * mid, dyaw * mid)
        if _motion_blocked(scene, obj.at_pose(pose_mid)):
            hi = mid
        else:
            lo = mid
    return lo


# The inputs of apply_push's last _clip_fraction call, and its result. A push
# pinned against a wall repeats the same step, bit for bit, until the
# controller's stall limit fires. The key holds every value the bisection
# reads, so an equal key gives an equal result. The terrain is compared by
# identity, which scene copies share, and the rest by value. The entry is
# one tuple replaced whole, so it needs no lock.
_last_clip: tuple[tuple, float] | None = None


def apply_push(scene: TwinScene, object_id: str, contact: Vec3,
               direction: Vec2, step: float) -> tuple[TwinScene, PushDelta]:
    """One quasi-static push step at a surface contact point.

    Translation is ``step * scene.push_gain()`` along the horizontal unit
    direction; the in-plane rotation is ``PUSH_KAPPA * arm * step`` with
    ``arm`` the signed moment arm of the contact about the COM. Motion is
    clipped against terrain and other objects, then the object is settled.
    """
    obj = scene.object(object_id)
    if not 0.0 < step <= PUSH_STEP_CAP + 1e-12:
        raise ValueError(f"step must be in (0, {PUSH_STEP_CAP}], got {step}")
    n = math.hypot(direction[0], direction[1])
    if abs(n - 1.0) > 1e-6:
        raise ValueError("push direction must be a horizontal unit vector")
    box = obj.world_obb()
    if _surface_distance_to_obb(box, contact) > 5e-3:
        raise ValueError(f"contact point {contact} is not on the object surface")

    gain = scene.push_gain()
    tx = direction[0] * step * gain
    ty = direction[1] * step * gain
    rx = contact[0] - obj.pose.x
    ry = contact[1] - obj.pose.y
    arm = rx * direction[1] - ry * direction[0]
    dyaw = PUSH_KAPPA * arm * step

    # the whole motion: what the clip tests first, and, since tx * 1.0 == tx,
    # the moved object itself when nothing blocks it
    full = obj.at_pose(_pose_after_planar_motion(obj.pose, tx, ty, dyaw))
    global _last_clip
    key = (scene.terrain, scene.objects, scene.held_id, object_id, tx, ty, dyaw)
    last = _last_clip
    if last is not None and last[0][0] is key[0] and last[0][1:] == key[1:]:
        frac = last[1]
    else:
        frac = _clip_fraction(scene, obj, full, tx, ty, dyaw)
        _last_clip = (key, frac)

    moved = scene.replace_object(full if frac == 1.0 else obj.at_pose(
        _pose_after_planar_motion(obj.pose, tx * frac, ty * frac, dyaw * frac)))
    outcome = settle(moved, object_id)
    settled = moved.replace_object(moved.object(object_id).at_pose(outcome.final_pose))
    delta = PushDelta(tx * frac, ty * frac, dyaw * frac, outcome.status)
    return settled, delta


# ---------------------------------------------------------------------------
# pivoting
# ---------------------------------------------------------------------------

def _rotate_pose_about_line(pose: Pose6D, p0: Vec3, axis: Vec3, angle: float) -> Pose6D:
    q = quat_from_axis_angle(axis, angle)
    rel = (pose.x - p0[0], pose.y - p0[1], pose.z - p0[2])
    rot = quat_rotate(q, rel)
    return Pose6D(
        (p0[0] + rot[0], p0[1] + rot[1], p0[2] + rot[2]),
        quat_mul(q, pose.orientation),
    )


def _balance_angle(obj: RigidObject, p0: Vec3, axis: Vec3) -> float:
    """Pivot angle at which the COM crosses the vertical plane through the edge."""
    pose = obj.pose
    rel = (pose.x - p0[0], pose.y - p0[1], pose.z - p0[2])
    ax, ay, az = axis
    dot = rel[0] * ax + rel[1] * ay + rel[2] * az
    perp = (rel[0] - dot * ax, rel[1] - dot * ay, rel[2] - dot * az)
    horiz = math.hypot(perp[0], perp[1])
    vert = perp[2]
    return math.atan2(horiz, max(vert, 1e-9))


def pivot_rotate(scene: TwinScene, object_id: str, pivot_edge: tuple[Vec3, Vec3],
                 angle: float, swept_clear: set[float] | None = None
                 ) -> tuple[TwinScene, SettleOutcome]:
    """Rotate an object rigidly about a bottom edge, then settle.

    Below the balance point the object relaxes back to its original rest;
    past it the flip completes onto the adjacent face. The swept volume is
    collision-checked against terrain solids and other objects in 5-degree
    increments; a hit raises SweptCollision.

    ``swept_clear``, when given, holds sweep angles already found clear for
    this scene, object and edge: they are skipped, and each angle found
    clear is added. A caller that pivots the same object about the same
    edge of an unchanged scene at growing angles passes one set to every
    call, so each distinct angle is checked once and the first hit is the
    same.
    """
    obj = scene.object(object_id)
    if abs(angle) > math.pi / 2 + 1e-9:
        raise ValueError("pivot angle magnitude must be <= pi/2")
    p0, p1 = pivot_edge
    box = obj.world_obb()
    edge_ok = False
    for a, b in box.bottom_edges():
        if (_dist3(p0, a) < 5e-3 and _dist3(p1, b) < 5e-3) or (
            _dist3(p0, b) < 5e-3 and _dist3(p1, a) < 5e-3
        ):
            edge_ok = True
            break
    if not edge_ok:
        raise ValueError("pivot_edge is not a bottom edge of the object's box")
    support = support_height_at(scene.terrain.cells,
                                (0.5 * (p0[0] + p1[0]), 0.5 * (p0[1] + p1[1])))
    edge_z = 0.5 * (p0[2] + p1[2])
    if support is None or abs(edge_z - support) > 5e-3:
        near_cells = [
            c for c in support_cells(scene, exclude_id=object_id)
            if abs(edge_z - c.height_at((p0[0], p0[1]))) <= 5e-3
        ]
        if not near_cells:
            raise ValueError("pivot edge is not in contact with a surface or lip")

    if abs(angle) < 1e-12:
        return scene, SettleOutcome("stable", obj.pose)

    axis = (p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2])
    L = math.sqrt(axis[0] ** 2 + axis[1] ** 2 + axis[2] ** 2)
    if L < 1e-9:
        raise ValueError("degenerate pivot edge")
    axis = (axis[0] / L, axis[1] / L, axis[2] / L)

    # choose the rotation sign that lifts the COM side over the edge
    probe = _rotate_pose_about_line(obj.pose, p0, axis, math.copysign(0.01, angle))
    if probe.z < obj.pose.z - 1e-9:
        angle = -angle  # requested direction would drive the object into the support

    steps = max(1, int(math.ceil(abs(angle) / math.radians(5.0))))
    for i in range(1, steps + 1):
        a = angle * i / steps
        if swept_clear is not None and a in swept_clear:
            continue
        pose_i = _rotate_pose_about_line(obj.pose, p0, axis, a)
        box_i = obj.at_pose(pose_i).world_obb()
        solid = box_hits_solids(scene, box_i, tol=2e-3)
        if solid is not None:
            raise SweptCollision(
                f"pivot sweep of {object_id} hits {solid.label or 'terrain'} at "
                f"{math.degrees(a):.0f} deg"
            )
        other = overlapping_object(scene, box_i, object_id)
        if other is not None:
            raise SweptCollision(f"pivot sweep of {object_id} hits {other.id}")
        if swept_clear is not None:
            swept_clear.add(a)

    balance = _balance_angle(obj, p0, axis)
    if abs(angle) + 1e-9 < balance:
        outcome = settle(scene, object_id)
        settled = scene.replace_object(obj.at_pose(outcome.final_pose))
        return settled, outcome

    flipped = _rotate_pose_about_line(obj.pose, p0, axis, math.copysign(math.pi / 2, angle))
    moved = scene.replace_object(obj.at_pose(flipped))
    outcome = settle(moved, object_id)
    settled = moved.replace_object(moved.object(object_id).at_pose(outcome.final_pose))
    return settled, outcome


def _dist3(a: Vec3, b: Vec3) -> float:
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


# ---------------------------------------------------------------------------
# serialization (versioned JSON; lengths in meters, angles in degrees)
# ---------------------------------------------------------------------------

SCENE_SCHEMA_VERSION = 1


def scene_to_dict(scene: TwinScene) -> dict:
    return {
        "version": SCENE_SCHEMA_VERSION,
        "role": scene.role,
        "terrain": [
            {
                "kind": t.kind,
                "name": t.name,
                "footprint": [list(v) for v in t.footprint.vertices],
                "height": t.height,
                "extra": {k: list(v) if isinstance(v, tuple) else v
                          for k, v in t.extra.items()},
            }
            for t in scene.terrain
        ],
        "objects": [
            {
                "id": o.id,
                "shape": {"half_extents": list(o.half_extents)},
                "pose": {
                    "xyz": list(o.pose.position),
                    "quat_wxyz": list(o.pose.orientation),
                },
                "tool_spec": None
                if o.tool_spec is None
                else {
                    "kind": o.tool_spec.kind,
                    "effective_length": o.tool_spec.effective_length,
                    "tip_offset": list(o.tool_spec.tip_offset),
                },
            }
            for o in scene.objects
        ],
        "held_id": scene.held_id,
    }


class _JsonObject(dict):
    """A JSON object from a file that names its section when a required
    key is missing, instead of raising the bare KeyError."""

    def __init__(self, value: dict, what: str):
        super().__init__(value)
        self.what = what

    def __missing__(self, key):
        raise ValueError(f"{self.what} is missing key {key!r}")


def _json_object(value, what: str) -> dict:
    """The file's value for ``what``, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object (got {value!r})")
    return _JsonObject(value, what)


def _json_list(value, what: str) -> list:
    """The file's value for ``what``, which must be a JSON list."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list (got {value!r})")
    return value


def _json_string(value, what: str) -> str:
    """The file's value for ``what``, which must be a JSON string."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string (got {value!r})")
    return value


def _is_number(value) -> bool:
    """True for a finite JSON number: Python's json also reads NaN, Infinity
    and integers too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _json_number(value, what: str):
    """The file's value for ``what``, which must be a JSON number."""
    if not _is_number(value):
        raise ValueError(f"{what} must be a number (got {value!r})")
    return value


def _json_vector(value, n: int, what: str) -> tuple:
    """The file's value for ``what``, which must be a list of n numbers."""
    if not (isinstance(value, list) and len(value) == n and all(map(_is_number, value))):
        raise ValueError(f"{what} must be a list of {n} numbers (got {value!r})")
    return tuple(value)


def _json_polygon(value, what: str) -> Polygon2:
    """The file's value for ``what``, which must be a list of [x, y] points."""
    if not isinstance(value, list) or not all(
        isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)) for v in value
    ):
        raise ValueError(f"{what} must be a list of [x, y] points (got {value!r})")
    return Polygon2(tuple((v[0], v[1]) for v in value))


def _json_extra(value, kind, what: str) -> dict:
    """A terrain's ``extra`` object, whose known keys must hold a number or,
    for a direction, an [x, y] pair. A slot's ``width``, which older files
    carry and nothing reads, is dropped."""
    extra = dict(_json_object(value, what))
    if kind == "slot":
        extra.pop("width", None)
    for key in ("height", "angle_deg", "depth", "clearance"):
        if key in extra:
            _json_number(extra[key], f"{what} {key}")
    for key in ("downhill", "open_face"):
        if key in extra:
            _json_vector(extra[key], 2, f"{what} {key}")
    return extra


def _json_pose(value, what: str) -> Pose6D:
    """The file's value for ``what``: an object with ``xyz`` and ``quat_wxyz``."""
    value = _json_object(value, what)
    return Pose6D(_json_vector(value["xyz"], 3, f"{what} xyz"),
                  _json_vector(value["quat_wxyz"], 4, f"{what} quat_wxyz"))


def _check_fixed(values: dict, fixed, what: str, why: str) -> None:
    """Older files carry values the twin now fixes: each of ``fixed``'s
    (key, value) pairs that ``values`` holds must hold the twin's value."""
    for key, value in fixed:
        if isinstance(value, list):
            got = list(_json_vector(values.get(key, value), len(value), f"{what} {key}"))
        else:
            got = _json_number(values.get(key, value), f"{what} {key}")
        if got != value:
            raise ValueError(f"{what} {key} must be {value} (got {got}): {why}")


def scene_from_dict(data: dict) -> TwinScene:
    if data.get("version") != SCENE_SCHEMA_VERSION:
        raise ValueError(f"unsupported scene schema version {data.get('version')!r}")
    terrain = []
    for i, t in enumerate(_json_list(data["terrain"], "scene terrain")):
        where = f"terrain {i}"
        t = _json_object(t, where)
        terrain.append(TerrainFeature(
            kind=t["kind"],
            footprint=_json_polygon(t["footprint"], f"{where} footprint"),
            height=_json_number(t["height"], f"{where} height"),
            extra=_json_extra(t.get("extra", {}), t["kind"], f"{where} extra"),
            name=_json_string(t.get("name", ""), f"{where} name"),
        ))
    objects = []
    for i, o in enumerate(_json_list(data["objects"], "scene objects")):
        where = f"object {i}"
        o = _json_object(o, where)
        shape = _json_object(o["shape"], f"{where} shape")
        _check_fixed(shape, (("offset_xyz", [0, 0, 0]), ("offset_quat_wxyz", [1, 0, 0, 0])),
                     f"{where} shape", "only boxes centred on their pose are simulated")
        _check_fixed(o, (("friction", FRICTION),), where,
                     "every object has the twin's friction")
        ts = o.get("tool_spec")
        if ts is not None:
            ts = _json_object(ts, f"{where} tool_spec")
            ts = ToolSpec(
                ts["kind"],
                _json_number(ts["effective_length"], f"{where} tool_spec effective_length"),
                _json_vector(ts["tip_offset"], 3, f"{where} tool_spec tip_offset"),
            )
        object_id = _json_string(o["id"], f"{where} id")
        if not object_id:
            raise ValueError(f"{where} id must not be empty")
        objects.append(
            RigidObject(
                id=object_id,
                half_extents=_json_vector(shape["half_extents"], 3,
                                          f"{where} shape half_extents"),
                pose=_json_pose(o["pose"], f"{where} pose"),
                tool_spec=ts,
            )
        )
    _check_fixed(_json_object(data.get("robot", {}), "scene robot"), (
        ("base_position", list(ROBOT_BASE)), ("reach_min", REACH_MIN),
        ("reach_max", REACH_MAX), ("gripper_aperture", GRIPPER_APERTURE),
        ("finger_clearance", FINGER_CLEARANCE),
    ), "robot", "the twin simulates one robot")
    for section, fixed in (
        ("dynamics_perturbation", (("friction_scale", 1.0),
                                   ("push_gain_scale", EXECUTION_PUSH_GAIN))),
        ("push_model", (("gain", 1.0), ("kappa", PUSH_KAPPA), ("step_cap", PUSH_STEP_CAP),
                        ("climb_tol", PUSH_CLIMB_TOL))),
    ):
        _check_fixed(_json_object(data.get(section, {}), f"scene {section}"), fixed,
                     section, "the twin's push physics is fixed")
    return TwinScene(
        terrain=terrain,
        objects=tuple(objects),
        role=data.get("role", "twin"),
        held_id=data.get("held_id"),
    )
