"""Heuristic low-level controllers: push, rotate, grasp, moveto, release.

Controllers consume object-centric sub-goal poses and act in the execution
scene through the twin's quasi-static primitives. They are deterministic
single-threaded loops; each owns one scene chain. Failures come back as
typed ExecError values inside the trace, never as exceptions (exceptions
are reserved for programmer errors such as violated preconditions).

Success is always re-derived from the final scene snapshot, so a controller
cannot report success that the scene does not support.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from operator import itemgetter

from .domain import PrimitiveInstance
from .geometry import (
    Polygon2,
    Pose6D,
    Quat,
    Vec2,
    Vec3,
    bounds_disjoint,
    clip_convex,
    face_normal,
    geodesic_angle,
    point_in_polygon,
    quat_from_axis_angle,
    quat_mul,
    quat_rotate,
    ring_area,
    se2_error,
    wrap_angle,
    yaw_free_angle,
)
from .twin import (
    FINGER_CLEARANCE,
    GRIPPER_APERTURE,
    PUSH_KAPPA,
    PUSH_STEP_CAP,
    REACH_MAX,
    REACH_MIN,
    ROBOT_BASE,
    SWEEP_MARGIN,
    PlacementCollision,
    RigidObject,
    SweptCollision,
    ToolSpec,
    TwinScene,
    apply_push,
    box_hits_solids,
    overlapping_object,
    pivot_rotate,
    place_at,
    settle_in_place,
    support_cells,
    support_height_at,
    sweep_is_clear,
)

IK_FAILURE_MESSAGE = "Unable to solve an IK solution"


class ErrorKind(enum.Enum):
    IK_FAILURE = "IkFailure"
    OUT_OF_REACH = "OutOfReach"
    COLLISION = "Collision"
    NO_GRASP_FOUND = "NoGraspFound"
    CONVERGENCE_TIMEOUT = "ConvergenceTimeout"
    OBJECT_LOST = "ObjectLost"


@dataclass(frozen=True)
class ExecError:
    kind: ErrorKind
    message: str
    step: PrimitiveInstance | None = None

    def __post_init__(self):
        if not self.message:
            raise ValueError("ExecError message must be non-empty")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "message": self.message,
            "step": None if self.step is None else self.step.describe(),
        }


@dataclass
class ExecTrace:
    result: ExecError | None = None  # None means success
    iterations: int = 0
    snapshots: int = 0  # scene snapshots the controller made

    @property
    def ok(self) -> bool:
        return self.result is None

    def fail(self, kind: ErrorKind, message: str) -> "ExecTrace":
        """Record the failure; the episode loop attaches the failing step."""
        self.result = ExecError(kind, message)
        return self


# push controller: PD gains on the position error, 1 cm / 5 degree tolerances
_KP = 1.0
_KD = 0.2
_POS_TOL = 0.01
_YAW_TOL_DEG = 5.0
_MAX_PUSH_ITERS = 300
_STALL_ITERS = 25
# yaw contacts sit this far in from each end of a footprint edge, or a
# quarter of a shorter edge's length: at an edge's midpoint a rectangle's
# moment arm is zero, so both contacts of a short edge must stay off it
_EDGE_INSET = 0.01
_APPROACH_LEN = 0.06
# yaw pushes drift the object; keep them small and let position float
# inside a hysteresis band so the phases do not thrash
_POS_BAND = 0.04
_YAW_STEP_CAP = 0.012
# this many stalled yaw steps outside the band force a translate back into it
_YAW_STALL_STEPS = 3
# align yaw while still far from the target (safe open ground) so the
# remaining approach is a straight shove that preserves heading
_YAW_EARLY_DIST = 0.08

# grasp rules and transport
_MIN_TOP_HEIGHT = 0.03
_MIN_OVERHANG = 0.02
_LIFT = 0.06
_HOVER = 0.06

# rotate controller
_INCREMENT_DEG = 5.0
_ORIENT_TOL_DEG = 10.0
_MAX_INCREMENTS = 18


def current_tool(scene: TwinScene) -> ToolSpec | None:
    if scene.held_id is None:
        return None
    return scene.object(scene.held_id).tool_spec


def effective_reach(tool: ToolSpec | None = None) -> float:
    """Maximum contact distance: bare reach plus a held tool's length."""
    return REACH_MAX + (tool.effective_length if tool is not None else 0.0)


def _reach_ok(point: Vec2, tool: ToolSpec | None = None) -> bool:
    d = math.hypot(point[0] - ROBOT_BASE[0], point[1] - ROBOT_BASE[1])
    return REACH_MIN <= d <= effective_reach(tool)


def _grip_point_for(obj_pose: Pose6D, tool: ToolSpec | None) -> Vec2:
    """Where the gripper must be for the held object at this pose."""
    if tool is None:
        return (obj_pose.x, obj_pose.y)
    grip_local = tuple(-c for c in tool.tip_offset)
    g = obj_pose.transform_point(grip_local)
    return (g[0], g[1])


# ---------------------------------------------------------------------------
# grasp rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraspAssessment:
    ok: bool
    rule: str | None  # "top" | "side"
    point: Vec3 | None
    overhang: float
    failures: tuple[str, ...]


def _min_footprint_width(footprint: Polygon2) -> float:
    verts = footprint.vertices
    best = math.inf
    n = len(verts)
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        L = math.hypot(ex, ey)
        if L < 1e-12:
            continue
        nx, ny = -ey / L, ex / L
        ds = [nx * (vx - ax) + ny * (vy - ay) for vx, vy in verts]
        best = min(best, max(ds) - min(ds))
    return best


def _support_height_below(scene: TwinScene, obj_id: str,
                          points: list[Vec2]) -> list[float | None]:
    """The highest support height at each point, over every support but the
    object's own; None over the void. One ``support_cells`` query serves
    all the points."""
    cells = support_cells(scene, exclude_id=obj_id)
    return [support_height_at(cells, p) for p in points]


def _overhang_edges(scene: TwinScene, obj: RigidObject):
    """Overhanging face edges with finger clearance below them.

    Returns (depth, grasp_point) candidates sorted by depth descending.
    Each edge is probed on three lines just beyond it and marched inward in
    2 mm steps. A march asks only the cells that can stop it: those whose
    ``_near_box`` meets the bounds of its 40 probe points, which are its
    first and last since each coordinate is monotone in the step, and of
    those a flat cell only when its height gives the clearance. Some cell
    under a probe gives the clearance iff the highest one does, since float
    subtraction is monotone.
    """
    box = obj.world_obb()
    cells = support_cells(scene, exclude_id=obj.id)
    results = []
    for a, b in box.bottom_edges():
        mx, my = 0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1])
        edge_z = 0.5 * (a[2] + b[2])
        nx, ny = mx - obj.pose.x, my - obj.pose.y
        L = math.hypot(nx, ny)
        if L < 1e-9:
            continue
        nx, ny = nx / L, ny / L
        # probe just beyond the edge: need a drop big enough for a finger
        fractions = (0.3, 0.5, 0.7)
        depths = []
        for f in fractions:
            sx = a[0] + f * (b[0] - a[0])
            sy = a[1] + f * (b[1] - a[1])
            below = support_height_at(cells, (sx + nx * 0.004, sy + ny * 0.004))
            drop = edge_z if below is None else edge_z - below
            if drop < FINGER_CLEARANCE:
                depths.append(0.0)
                continue
            # march inward until support rises back near the contact height;
            # the crossing lies within the last 2 mm step, so take its midpoint
            xs = (sx - nx * 0.002, sx - nx * (0.002 * 40))
            ys = (sy - ny * 0.002, sy - ny * (0.002 * 40))
            line = (min(xs), max(xs), min(ys), max(ys))
            stops = [c for c in cells if not bounds_disjoint(line, c._near_box)
                     and (c.kind == "slope" or edge_z - c.height < FINGER_CLEARANCE)]
            depth = 0.0
            for k in range(1, 41):
                q = (sx - nx * (0.002 * k), sy - ny * (0.002 * k))
                if any(c.contains(q) and edge_z - c.height_at(q) < FINGER_CLEARANCE
                       for c in stops):
                    depth = 0.002 * k - 0.001
                    break
                depth = 0.002 * k
            depths.append(depth)
        depth = min(depths)
        if depth <= 0.0:
            continue
        results.append((depth, (mx, my, 0.5 * (box.bottom_z() + box.top_z()))))
    results.sort(key=lambda r: -r[0])
    return results


def assess_grasp(scene: TwinScene, object_id: str) -> GraspAssessment:
    """Rule-based graspability check at the object's current pose."""
    obj = scene.object(object_id)
    box = obj.world_obb()
    failures = []

    height = box.top_z() - box.bottom_z()
    footprint = box.footprint()
    min_width = _min_footprint_width(footprint)
    down_axis, down_sign = box.down_face()
    n_world = face_normal(box.center_pose.orientation, down_axis, down_sign)
    top_is_flat = n_world[2] < -math.cos(math.radians(8.0))

    if not top_is_flat:
        failures.append("top grasp needs a level top face")
    if height < _MIN_TOP_HEIGHT:
        failures.append(
            f"top grasp needs height >= {_MIN_TOP_HEIGHT:.3f} m (got {height:.3f})"
        )
    if min_width > GRIPPER_APERTURE:
        failures.append(
            f"top grasp needs min width <= {GRIPPER_APERTURE:.3f} m "
            f"(got {min_width:.3f})"
        )
    if top_is_flat and height >= _MIN_TOP_HEIGHT and min_width <= GRIPPER_APERTURE:
        gp = (obj.pose.x, obj.pose.y, box.top_z())
        return GraspAssessment(True, "top", gp, 0.0, ())

    thickness = height  # side grasps pinch vertically across the slab
    overhangs = _overhang_edges(scene, obj)
    viable = [o for o in overhangs if o[0] >= _MIN_OVERHANG]
    if thickness > GRIPPER_APERTURE:
        failures.append(
            f"side grasp needs thickness <= {GRIPPER_APERTURE:.3f} m "
            f"(got {thickness:.3f})"
        )
        viable = []
    if not viable:
        if not overhangs:
            failures.append(
                f"side grasp needs an edge overhang >= {_MIN_OVERHANG:.3f} m "
                f"with finger clearance"
            )
        else:
            failures.append(
                f"side grasp overhang too small (best {overhangs[0][0]:.3f} m "
                f"< {_MIN_OVERHANG:.3f} m)"
            )
        return GraspAssessment(False, None, None,
                               overhangs[0][0] if overhangs else 0.0,
                               tuple(failures))
    depth, gp = viable[0]
    return GraspAssessment(True, "side", gp, depth, ())


def _vertical_approach_blocked(scene: TwinScene, obj: RigidObject) -> str | None:
    """A top-grasp approach descends a column above the object's footprint."""
    box = obj.world_obb()
    hull = box.footprint()
    top = box.top_z()
    for solid in scene.terrain.solids:
        if solid.z1 <= top + 1e-6:
            continue
        if ring_area(clip_convex(list(hull.vertices), list(solid.ring))) > 1e-8:
            return solid.label or "terrain"
    return None


# ---------------------------------------------------------------------------
# push controller
# ---------------------------------------------------------------------------

def _surface_contact(obj: RigidObject, direction: Vec2) -> Vec3:
    """Boundary point antipodal to the push direction, exactly on the box."""
    q = obj.pose.orientation
    inv_q = (q[0], -q[1], -q[2], -q[3])
    dx, dy, _ = quat_rotate(inv_q, (-direction[0], -direction[1], 0.0))
    n = math.hypot(dx, dy)
    if n < 1e-9:
        dx, dy = 1.0, 0.0
    else:
        dx, dy = dx / n, dy / n
    hx, hy, _hz = obj.half_extents
    tx = abs(hx / dx) if abs(dx) > 1e-12 else math.inf
    ty = abs(hy / dy) if abs(dy) > 1e-12 else math.inf
    t = min(tx, ty)
    local = (dx * t, dy * t, 0.0)
    return obj.pose.transform_point(local)


def _approach_blocked(scene: TwinScene, obj_id: str, contact: Vec3,
                      direction: Vec2) -> str | None:
    """Check the short straight hand approach onto the contact point."""
    sx = contact[0] - direction[0] * _APPROACH_LEN
    sy = contact[1] - direction[1] * _APPROACH_LEN
    seg_samples = [(sx + (contact[0] - sx) * t, sy + (contact[1] - sy) * t)
                   for t in (0.0, 0.5, 1.0)]
    for other in scene.objects:
        if other.id == obj_id or other.id == scene.held_id:
            continue
        fp = other.world_obb().footprint()
        ztop = other.world_obb().top_z()
        if ztop < contact[2] - 0.02:
            continue
        for p in seg_samples:
            if point_in_polygon(p, fp):
                return other.id
    for solid in scene.terrain.solids:
        if solid.z1 < contact[2] - 0.01 or solid.z0 > contact[2] + 0.05:
            continue
        for p in seg_samples:
            if point_in_polygon(p, solid.polygon):
                return solid.label or "terrain"
    return None


def exec_push(scene: TwinScene, object_id: str,
              subgoal: Pose6D) -> tuple[TwinScene, ExecTrace]:
    """Two-phase planar push: translate toward the sub-goal, then align yaw.

    The translate phase pushes through the COM from the antipodal boundary
    point, which leaves heading untouched. The yaw phase pushes along a
    footprint edge's inward normal from a contact near one of the edge's
    ends, where the moment arm is extreme, preferring contacts whose
    incidental translation points back toward the position target so drift
    self-corrects. Yaw work happens while the object is still far from the
    target or once it is within the position band, never during the final
    approach. When 3 yaw steps in a row stall outside the band (the object
    jammed against something), the push translates until it is back inside
    the band and then yaws again.
    """
    trace = ExecTrace()
    obj = scene.object(object_id)
    if scene.held_id == object_id:
        raise ValueError("cannot push a held object")
    tool = current_tool(scene)

    # annulus precheck before any motion
    radius = max(obj.half_extents[0], obj.half_extents[1])
    goal_d = math.hypot(subgoal.x - ROBOT_BASE[0], subgoal.y - ROBOT_BASE[1])
    if goal_d > effective_reach(tool) + radius:
        return scene, trace.fail(
            ErrorKind.OUT_OF_REACH,
            f"push target at {goal_d:.2f} m exceeds reach "
            f"{effective_reach(tool):.2f} m + object radius {radius:.2f} m",
        )

    target_yaw = subgoal.yaw
    prev_pos_err: float | None = None
    stall = 0
    yaw_stall = 0  # consecutive stalled yaw steps outside the position band
    recentre = False  # translating back into the band after yaw stalled
    last = None  # the object that the values below were derived from

    for it in range(_MAX_PUSH_ITERS):
        obj = scene.object(object_id)
        trace.iterations = it
        # a stalled step hands back the same object: its errors, contact,
        # reach test and approach test depend only on that object, the
        # subgoal and the other objects, which apply_push leaves as they were
        if obj is not last:
            last = obj
            pose = obj.pose
            vx = subgoal.x - pose.x
            vy = subgoal.y - pose.y
            pos_err = math.hypot(vx, vy)
            remaining = wrap_angle(target_yaw - pose.yaw)
            yaw_err = abs(math.degrees(remaining))  # as se2_error gives it
            if pos_err <= _POS_TOL and yaw_err <= _YAW_TOL_DEG:
                break

            if pos_err <= _POS_BAND:
                recentre = False
            yaw_phase = not recentre and yaw_err > _YAW_TOL_DEG and (
                pos_err <= _POS_BAND or pos_err >= _YAW_EARLY_DIST
            )
            if not yaw_phase:
                direction = (vx / pos_err, vy / pos_err)
                contact = _surface_contact(obj, direction)
            else:
                direction, contact, arm = _yaw_contact(obj, remaining, (vx, vy))
                if arm is None:
                    return scene, trace.fail(
                        ErrorKind.CONVERGENCE_TIMEOUT,
                        "no rotating contact available for yaw alignment",
                    )
                push_step = max(1e-4, min(
                    PUSH_STEP_CAP,
                    _YAW_STEP_CAP,
                    _KP * abs(remaining) / (PUSH_KAPPA * max(abs(arm), 1e-4)),
                ))

            if not _reach_ok((contact[0], contact[1]), tool):
                return scene, trace.fail(
                    ErrorKind.OUT_OF_REACH,
                    f"push contact at ({contact[0]:.2f}, {contact[1]:.2f}) is outside "
                    f"the reach annulus",
                )
            blocker = _approach_blocked(scene, object_id, contact, direction)
            if blocker is not None and blocker not in ("table", "ground"):
                return scene, trace.fail(ErrorKind.COLLISION,
                                         f"push approach sweeps through {blocker}")

        if not yaw_phase:
            derr = 0.0 if prev_pos_err is None else pos_err - prev_pos_err
            raw = _KP * pos_err + _KD * derr
            push_step = max(1e-4, min(PUSH_STEP_CAP, raw))
            prev_pos_err = pos_err

        scene, delta = apply_push(scene, object_id, contact, direction, push_step)
        trace.snapshots += 1
        if delta.settle_status != "stable":
            return scene, trace.fail(
                ErrorKind.OBJECT_LOST,
                f"object {object_id} {delta.settle_status} during pushing",
            )
        moved = math.hypot(delta.dx, delta.dy) + abs(delta.dyaw) * 0.1
        stalled = moved < 0.1 * push_step
        if stalled:
            stall += 1
            if stall >= _STALL_ITERS:
                return scene, trace.fail(
                    ErrorKind.CONVERGENCE_TIMEOUT,
                    f"pushing made no progress for {stall} consecutive steps",
                )
        else:
            stall = 0
        if stalled and yaw_phase and pos_err > _POS_BAND:
            yaw_stall += 1
            if yaw_stall >= _YAW_STALL_STEPS:
                recentre = True
                last = None  # derive the translate step for this object
        else:
            yaw_stall = 0
    else:
        # success is re-derived from the final scene, never trusted from the
        # loop: a break means that scene is in tolerance, so only running out
        # of iterations needs the check
        obj = scene.object(object_id)
        pos_err, yaw_err = se2_error(obj.pose, subgoal)
        if pos_err > _POS_TOL or yaw_err > _YAW_TOL_DEG:
            return scene, trace.fail(
                ErrorKind.CONVERGENCE_TIMEOUT,
                f"push did not converge in {_MAX_PUSH_ITERS} iterations "
                f"(err {pos_err:.3f} m, {yaw_err:.1f} deg)",
            )
    trace.snapshots += 1
    return scene, trace


def _yaw_contact(obj: RigidObject, remaining: float, to_goal: Vec2):
    """Pick a boundary contact whose inward-normal push rotates toward the goal.

    The moment arm ``(p - o) x n`` of a push along an edge's inward normal is
    linear along the edge, so its extremes lie at the edge's ends (Mason,
    IJRR 1986). Each edge offers two contacts, inset ``min(1 cm, L/4)`` from
    its ends. Among contacts with the right rotation sense and a near-maximal
    arm, prefer one whose incidental translation also points toward the
    position target, so the drift from yaw alignment self-corrects instead
    of accumulating.
    """
    verts = obj.world_obb().footprint().vertices
    need = 1.0 if remaining > 0 else -1.0
    ox, oy = obj.pose.x, obj.pose.y
    scored = []
    for i, (ax, ay) in enumerate(verts):
        bx, by = verts[(i + 1) % len(verts)]
        dx, dy = bx - ax, by - ay
        length = math.hypot(dx, dy)
        if length < 1e-9:  # a near-repeated hull vertex has no edge normal
            continue
        ux, uy = dx / length, dy / length
        n = (-uy, ux)  # the footprint is counter-clockwise: inward is left
        inset = min(_EDGE_INSET, 0.25 * length)
        for t in (inset, length - inset):
            p = (ax + t * ux, ay + t * uy)
            arm = (p[0] - ox) * n[1] - (p[1] - oy) * n[0]
            scored.append((need * arm, arm, p, n))
    # stable, so equal scores keep their boundary order
    scored.sort(key=itemgetter(0), reverse=True)
    positive = [s for s in scored if s[0] > 1e-6]
    if not positive:
        return (1.0, 0.0), (obj.pose.x, obj.pose.y, obj.pose.z), None
    # among near-maximal moment arms, prefer drift toward the position target
    strong = [s for s in positive if s[0] >= 0.6 * positive[0][0]]
    helpful = [
        s for s in strong
        if s[3][0] * to_goal[0] + s[3][1] * to_goal[1] >= -1e-9
    ]
    pick = helpful[0] if helpful else positive[0]
    _, arm, p, n = pick
    contact = _clamp_to_surface(obj, (p[0], p[1], obj.pose.z))
    return n, contact, arm


def _clamp_to_surface(obj: RigidObject, point: Vec3) -> Vec3:
    q = obj.pose.orientation
    inv_q = (q[0], -q[1], -q[2], -q[3])
    rel = (point[0] - obj.pose.x, point[1] - obj.pose.y, point[2] - obj.pose.z)
    in_body = quat_rotate(inv_q, rel)
    h = obj.half_extents
    clamped = tuple(max(-h[i], min(h[i], in_body[i])) for i in range(3))
    return obj.pose.transform_point(clamped)


# ---------------------------------------------------------------------------
# rotate controller
# ---------------------------------------------------------------------------

def flip_orientation_about(pose: Pose6D, edge: tuple[Vec3, Vec3]) -> Quat:
    """Orientation after a completed 90-degree flip over a bottom edge."""
    p0, p1 = edge
    axis = (p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2])
    L = math.sqrt(sum(c * c for c in axis))
    axis = (axis[0] / L, axis[1] / L, axis[2] / L)
    for sign in (1.0, -1.0):
        q = quat_from_axis_angle(axis, sign * math.pi / 2)
        rel = (pose.x - p0[0], pose.y - p0[1], pose.z - p0[2])
        rot = quat_rotate(q, rel)
        if p0[2] + rot[2] >= pose.z - 1e-9:
            return quat_mul(q, pose.orientation)
    return quat_mul(quat_from_axis_angle(axis, math.pi / 2), pose.orientation)


def exec_rotate(scene: TwinScene, object_id: str,
                subgoal: Pose6D) -> tuple[TwinScene, ExecTrace]:
    """Out-of-plane reorientation by pivoting about a bottom box edge.

    Chooses the bottom edge whose completed flip lands closest to the target
    orientation, then rehearses growing tilt angles in 5-degree increments
    until the balance point is crossed and the flip completes.
    """
    trace = ExecTrace()
    obj = scene.object(object_id)
    if scene.held_id == object_id:
        raise ValueError("cannot rotate a held object")

    start_gap = geodesic_angle(obj.pose.orientation, subgoal.orientation)
    if start_gap <= _ORIENT_TOL_DEG:
        trace.snapshots += 1
        return scene, trace

    box = obj.world_obb()
    edges = box.bottom_edges()
    best_edge = None
    best_gap = math.inf
    for edge in edges:
        q_flip = flip_orientation_about(obj.pose, edge)
        gap = yaw_free_angle(q_flip, subgoal.orientation)
        if gap < best_gap - 1e-9:
            best_gap = gap
            best_edge = edge
    assert best_edge is not None

    # contact on the face opposite the pivot edge
    p0, p1 = best_edge
    mid = ((p0[0] + p1[0]) / 2, (p0[1] + p1[1]) / 2)
    away = (obj.pose.x - mid[0], obj.pose.y - mid[1])
    L = math.hypot(away[0], away[1])
    if L > 1e-9:
        away = (away[0] / L, away[1] / L)
        contact_xy = (obj.pose.x + away[0] * L, obj.pose.y + away[1] * L)
    else:
        contact_xy = (obj.pose.x, obj.pose.y)
    if not _reach_ok(contact_xy):
        return scene, trace.fail(
            ErrorKind.OUT_OF_REACH,
            f"pivot contact at ({contact_xy[0]:.2f}, {contact_xy[1]:.2f}) is "
            f"outside the reach annulus",
        )

    inc = math.radians(_INCREMENT_DEG)
    # every increment pivots the same object about the same edge of the same
    # scene, so the quarter turn's broad phase is derived once per sign
    reachable: dict[float, bool] = {}
    for i in range(1, _MAX_INCREMENTS + 1):
        angle = min(i * inc, math.pi / 2)
        try:
            new_scene, outcome = pivot_rotate(scene, object_id, best_edge, angle,
                                              reachable)
        except SweptCollision as exc:
            return scene, trace.fail(ErrorKind.COLLISION, str(exc))
        except ValueError as exc:
            return scene, trace.fail(ErrorKind.CONVERGENCE_TIMEOUT,
                                     f"pivot rejected: {exc}")
        trace.snapshots += 1
        flipped = geodesic_angle(outcome.final_pose.orientation,
                                 obj.pose.orientation) > 45.0
        if flipped:
            final_gap = geodesic_angle(outcome.final_pose.orientation,
                                       subgoal.orientation)
            if final_gap > _ORIENT_TOL_DEG:
                return scene, trace.fail(
                    ErrorKind.CONVERGENCE_TIMEOUT,
                    f"flip landed {final_gap:.1f} deg from the sub-goal orientation",
                )
            trace.snapshots += 1
            return new_scene, trace
        if angle >= math.pi / 2 - 1e-9:
            break
    return scene, trace.fail(
        ErrorKind.CONVERGENCE_TIMEOUT,
        "balance point was never crossed within the increment budget",
    )


# ---------------------------------------------------------------------------
# prehensile controllers
# ---------------------------------------------------------------------------

def exec_grasp(scene: TwinScene, object_id: str) -> tuple[TwinScene, ExecTrace]:
    """Rule-based grasp: top pinch on a graspable prism, or a side pinch on an
    overhanging edge with finger clearance below it."""
    trace = ExecTrace()
    if scene.held_id is not None:
        raise ValueError("gripper is not free")
    obj = scene.object(object_id)

    assessment = assess_grasp(scene, object_id)
    if not assessment.ok:
        return scene, trace.fail(
            ErrorKind.NO_GRASP_FOUND,
            "no grasp pose found: " + "; ".join(assessment.failures),
        )
    gp = assessment.point
    assert gp is not None
    if not _reach_ok((gp[0], gp[1])):
        return scene, trace.fail(
            ErrorKind.OUT_OF_REACH,
            f"grasp point at ({gp[0]:.2f}, {gp[1]:.2f}) is outside the reach annulus",
        )
    if assessment.rule == "top":
        blocker = _vertical_approach_blocked(scene, obj)
        if blocker is not None:
            return scene, trace.fail(
                ErrorKind.COLLISION,
                f"grasp approach from above sweeps through {blocker}",
            )

    lifted_pose = Pose6D(
        (obj.pose.x, obj.pose.y, obj.pose.z + _LIFT), obj.pose.orientation
    )
    held_scene = scene.with_held(object_id)
    try:
        held_scene = place_at(held_scene, object_id, lifted_pose)
    except PlacementCollision as exc:
        return scene, trace.fail(ErrorKind.COLLISION,
                                 f"lift after grasp collides: {exc}")
    trace.snapshots += 1
    return held_scene, trace


def exec_moveto(scene: TwinScene, subgoal: Pose6D) -> tuple[TwinScene, ExecTrace]:
    """Transport the held object on a straight line at hover height, then
    lower it onto the sub-goal pose (still held).

    The path is checked against walls and other objects at 2 cm waypoints.
    Every waypoint box has the sub-goal orientation and the hover height, so
    the bounds of the first and last, grown by SWEEP_MARGIN (1e-7 m), hold
    them all; when ``sweep_is_clear`` finds nothing within that bound, no
    waypoint box is built."""
    trace = ExecTrace()
    if scene.held_id is None:
        raise ValueError("no object is held")
    object_id = scene.held_id
    obj = scene.object(object_id)
    tool = current_tool(scene)

    grip = _grip_point_for(subgoal, tool)
    if not _reach_ok(grip):
        return scene, trace.fail(ErrorKind.IK_FAILURE, IK_FAILURE_MESSAGE)

    # hover sweep along the straight line against walls and other objects
    start = obj.pose
    hover_z = max(start.z, subgoal.z) + _HOVER
    dist = math.hypot(subgoal.x - start.x, subgoal.y - start.y)
    steps = max(2, int(dist / 0.02))

    def hover_box(t: float):
        x = start.x + (subgoal.x - start.x) * t
        y = start.y + (subgoal.y - start.y) * t
        return obj.at_pose(Pose6D((x, y, hover_z), subgoal.orientation)).world_obb()

    first, last = hover_box(0.0), hover_box(1.0)
    (ax0, ax1, ay0, ay1), (bx0, bx1, by0, by1) = first.xy_bounds, last.xy_bounds
    m = SWEEP_MARGIN
    bound = (min(ax0, bx0) - m, max(ax1, bx1) + m, min(ay0, by0) - m,
             max(ay1, by1) + m, first.bottom_z() - m, first.top_z() + m)
    if sweep_is_clear(scene, object_id, bound, tol=1e-6, include_slopes=False):
        trace.snapshots += steps + 1
    else:
        for i in range(steps + 1):
            box = hover_box(i / steps)
            solid = box_hits_solids(scene, box, include_slopes=False)
            if solid is not None:
                return scene, trace.fail(
                    ErrorKind.COLLISION,
                    f"transport path crosses {solid.label or 'terrain'}",
                )
            other = overlapping_object(scene, box, object_id)
            if other is not None:
                return scene, trace.fail(ErrorKind.COLLISION,
                                         f"transport path crosses {other.id}")
            trace.snapshots += 1

    try:
        lowered = place_at(scene, object_id, subgoal)
    except PlacementCollision as exc:
        return scene, trace.fail(ErrorKind.COLLISION,
                                 f"lowering onto the sub-goal collides: {exc}")
    trace.snapshots += 1
    return lowered, trace


def exec_release(scene: TwinScene) -> tuple[TwinScene, ExecTrace]:
    """Open the gripper and settle the released object where it is."""
    trace = ExecTrace()
    if scene.held_id is None:
        raise ValueError("no object is held")
    object_id = scene.held_id
    released, _ = settle_in_place(scene.with_held(None), object_id)
    trace.snapshots += 1
    return released, trace
