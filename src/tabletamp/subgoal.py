"""Mental-rehearsal pipeline: anchors, pose sampling, settle-filtering, and
sub-goal selection.

A primitive's region is resolved to a 3D anchor point, candidate 6D object
poses are sampled around it under the primitive's allowed degrees of
freedom, every candidate is placed and settled in a twin snapshot, the
unstable ones are discarded, and survivors are ranked by reachability. The
top four are kept and one becomes the primitive's sub-goal pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ._rng import default_rng
from .control import _MIN_OVERHANG, _support_height_below, assess_grasp
from .domain import NEEDS_TARGET, PrimitiveInstance, PrimitiveKind, RegionDescriptor
from .geometry import (
    Pose6D,
    Vec3,
    geodesic_angle,
    wrap_angle,
    yaw_free_angle,
    yaw_of,
)
from .twin import (
    REACH_MAX,
    ROBOT_BASE,
    SweptCollision,
    TwinScene,
    flat_pose_on_support,
    pivot_rotate,
    rest_on_support,
    stability_margin,
)

RegionResolver = Callable[[TwinScene, str], Vec3]
RegionRegistry = dict[str, RegionResolver]


class NoFeasiblePose(Exception):
    """Every sampled candidate toppled, fell, or collided."""


class UnknownRegion(KeyError):
    """A plan step names a region the episode's scene cannot resolve."""

    def __str__(self) -> str:
        return str(self.args[0])


_N_SAMPLES = 16
_DISC_RADIUS = 0.06  # candidate position spread around the anchor
_YAW_SPREAD_DEG = 45.0
_MAX_KEEP = 4
# steps that carry an exact target pose have ~zero region uncertainty;
# sample tightly so every retained candidate still serves the goal
_HINT_DISC_RADIUS = 0.015
_HINT_YAW_SPREAD_DEG = 4.0


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

def resolve_anchor(
    region: RegionDescriptor,
    scene: TwinScene,
    registry: RegionRegistry,
    object_id: str,
) -> Vec3:
    """Resolve a region description to a 3D world anchor point, computed
    geometrically by the scenario's registry."""
    resolver = registry.get(region.name)
    if resolver is None:
        raise UnknownRegion(f"unknown region {region.name!r}")
    try:
        return resolver(scene, object_id)
    except (KeyError, StopIteration) as exc:
        raise UnknownRegion(f"region {region.name!r} cannot be resolved in the "
                            f"scene ({exc!r})") from exc


# ---------------------------------------------------------------------------
# candidate sampling
# ---------------------------------------------------------------------------

class Sample:
    """A sampled candidate sub-goal pose: its x and y, and its ``pose``,
    built on first use and kept.

    Every pose ``sample_candidates`` builds keeps the x and y it is built
    at, so ``filter_and_rank`` scores a sample without building it."""

    __slots__ = ("x", "y", "_build", "_pose")

    def __init__(self, x: float, y: float, build: Callable[[], Pose6D]):
        self.x = float(x)
        self.y = float(y)
        self._build = build
        self._pose: Pose6D | None = None

    @classmethod
    def of(cls, pose: Pose6D) -> Sample:
        """The sample of a pose that already exists."""
        sample = cls(pose.x, pose.y, None)
        sample._pose = pose
        return sample

    @property
    def pose(self) -> Pose6D:
        if self._pose is None:
            self._pose = self._build()
        return self._pose


def _flat_sample(scene: TwinScene, obj, x: float, y: float, yaw: float,
                 base_orientation=None) -> Sample:
    """The sample of ``flat_pose_on_support`` at (x, y, yaw), built when
    first read; that pose keeps x and y."""
    return Sample(x, y, partial(flat_pose_on_support, scene, obj, x, y, yaw,
                                base_orientation=base_orientation))


def sample_candidates(
    primitive: PrimitiveInstance,
    anchor: Vec3,
    scene: TwinScene,
    rng_seed: int = 0,
) -> list[Sample]:
    """Sample candidate 6D poses under the primitive's allowed DOF.

    Pushes vary (x, y, yaw) with z/roll/pitch pinned to supported-flat
    values; rotations enumerate face flips about the current bottom edges
    (plus the no-op orientation); moveto samples full placements over the
    anchor's surface. When the primitive carries a target pose hint, a
    moveto's first candidate is the hint itself and a push's is the flat
    pose at the hint's xy, so rehearsal can validate the requested pose
    directly. Deterministic in rng_seed.

    Every x, y and yaw is drawn here, but a flat pose (a push's or a
    moveto's) is built only when its ``Sample.pose`` is first read, which
    ``filter_and_rank`` does only for the candidates it rests. Rotation
    candidates come from pivoting the object, so they are built here.
    """
    rng = default_rng(rng_seed)
    obj = scene.object(primitive.object_id)
    hint = primitive.target_pose_hint

    if primitive.kind is PrimitiveKind.ROTATE:
        return [Sample.of(p) for p in _rotate_candidates(scene, primitive.object_id)]

    if primitive.kind not in NEEDS_TARGET:
        raise ValueError(f"{primitive.kind.value} does not take a sub-goal pose")
    push = primitive.kind is PrimitiveKind.PUSH
    disc = _HINT_DISC_RADIUS if hint is not None else _DISC_RADIUS
    yaw_spread = _HINT_YAW_SPREAD_DEG if hint is not None else _YAW_SPREAD_DEG
    # a push keeps the object's own orientation and only takes a hint's yaw
    base_q = obj.pose.orientation if push or hint is None else hint.orientation
    base_yaw = yaw_of(hint.orientation) if hint is not None else obj.pose.yaw

    if hint is None:
        out = [_flat_sample(scene, obj, anchor[0], anchor[1], base_yaw, base_q)]
        if push:
            out.extend(_overhang_probes(scene, obj, anchor))
    elif push:
        out = [_flat_sample(scene, obj, hint.x, hint.y, base_yaw)]
    else:
        out = [Sample.of(hint)]
    while len(out) < _N_SAMPLES:
        r = disc * math.sqrt(rng.uniform())
        th = rng.uniform(0.0, 2.0 * math.pi)
        if push or hint is not None:
            yaw = base_yaw + math.radians(rng.uniform(-yaw_spread, yaw_spread))
        else:
            yaw = rng.uniform(-math.pi, math.pi)
        out.append(_flat_sample(scene, obj, anchor[0] + r * math.cos(th),
                                anchor[1] + r * math.sin(th), yaw, base_q))
    return out


def _support_drop_direction(scene: TwinScene, object_id: str, anchor: Vec3):
    """Unit direction from the anchor toward falling support, if any.

    Ties among equally-low probe directions (a void arc past a straight
    edge) average out to the boundary's outward normal.
    """
    dirs = [(math.cos(a), math.sin(a))
            for a in (2.0 * math.pi * k / 16.0 for k in range(16))]
    ref, *ring = _support_height_below(
        scene, object_id,
        [(anchor[0], anchor[1])]
        + [(anchor[0] + 0.02 * d[0], anchor[1] + 0.02 * d[1]) for d in dirs],
    )
    if ref is None:
        return None
    heights = [(-1e9 if h is None else h, d) for h, d in zip(ring, dirs)]
    low = min(h for h, _ in heights)
    if low > ref - 0.01:
        return None  # support is effectively flat around the anchor
    tied = [d for h, d in heights if h <= low + 1e-6]
    sx = sum(d[0] for d in tied)
    sy = sum(d[1] for d in tied)
    norm = math.hypot(sx, sy)
    if norm < 1e-9:
        return tied[0]
    return (sx / norm, sy / norm)


def _overhang_probes(scene: TwinScene, obj, anchor: Vec3) -> list[Sample]:
    """Deterministic samples whose long side juts over the falling support.

    Uniform sampling almost never lands in the narrow band where an edge
    overhang is deep enough to grasp yet the COM keeps a safe margin, so
    these probes place the object there directly (both long-axis headings,
    two overhang depths).
    """
    drop = _support_drop_direction(scene, obj.id, anchor)
    if drop is None:
        return []
    hx, hy, _hz = obj.half_extents
    long_axis_yaw = math.atan2(drop[1], drop[0]) + (math.pi / 2.0 if hy > hx else 0.0)
    # (leading half-extent, yaw aligning that axis with the drop direction);
    # the short axis needs no in-place rotation when it is deep enough
    options = [(max(hx, hy), long_axis_yaw)]
    if min(hx, hy) >= 0.034 + 0.012:
        options.append((min(hx, hy), long_axis_yaw + math.pi / 2.0))
    probes = []
    for h_lead, axis_yaw in options:
        for yaw in (axis_yaw, axis_yaw + math.pi):
            for overhang in (0.034, 0.026):
                cx = anchor[0] - drop[0] * (h_lead - overhang)
                cy = anchor[1] - drop[1] * (h_lead - overhang)
                probes.append(_flat_sample(scene, obj, cx, cy, yaw))
    return probes


def _rotate_candidates(scene: TwinScene, object_id: str) -> list[Pose6D]:
    """Face flips about each bottom edge, plus keeping the current face."""
    twin = scene.as_twin()
    obj = twin.object(object_id)
    candidates = [obj.pose]
    for edge in obj.world_obb().bottom_edges():
        try:
            _, outcome = pivot_rotate(twin, object_id, edge, math.pi / 2)
        except (SweptCollision, ValueError):
            continue
        if outcome.status == "stable":
            candidates.append(outcome.final_pose)
    return candidates


# ---------------------------------------------------------------------------
# feasibility filter and ranking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Candidate:
    pose: Pose6D
    reachability_score: float
    stability_margin: float = 0.0
    source_index: int = 0


@dataclass(frozen=True)
class CandidateSet:
    candidates: tuple[Candidate, ...]

    def __post_init__(self):
        if not 1 <= len(self.candidates) <= _MAX_KEEP:
            raise ValueError(f"candidate set must hold 1..{_MAX_KEEP} candidates")
        scores = [c.reachability_score for c in self.candidates]
        if any(scores[i] < scores[i + 1] - 1e-12 for i in range(len(scores) - 1)):
            raise ValueError("candidates must be sorted by reachability descending")


def _reach_score(x: float, y: float) -> float:
    """``clamp(1 - d/R, 0, 1)`` with d the horizontal distance of (x, y)
    from the robot base and R its maximum reach."""
    d = math.hypot(x - ROBOT_BASE[0], y - ROBOT_BASE[1])
    return max(0.0, min(1.0, 1.0 - d / REACH_MAX))


def filter_and_rank(
    candidates: list[Sample],
    object_id: str,
    scene: TwinScene,
) -> CandidateSet:
    """Place, settle, and rank candidates; keep the stable top four.

    Candidates that interpenetrate terrain or other objects are discarded,
    as are those that topple, fall off, or end up resting on the bare
    ground. Survivors score ``_reach_score`` of where they rest. Scores
    within 0.05 of the best survivor's form one tie band, which takes the
    best score and keeps sampling order (anchor and probes first); the
    survivors below it follow by score, then sampling order.

    Only the candidates that decide the kept four are rested, in two walks:
    by (score, index) until the first survivor, whose score is the best;
    then through the band by index and the rest by (score, index) until
    four survivors are kept. Each rest is made once, and a survivor's
    margin is taken right after its rest, while ``_support_pieces`` still
    holds that answer. A candidate's ``Sample.pose`` is read only to rest
    it, so the poses of the candidates left unrested are never built.

    The walks know every score before any rest, from each sample's x and
    y, because, where no slope slides, a stable rest keeps the xy it was
    placed at: the flat rest, the kept rest, the slope tilt and the ground
    rest each keep the pose's x and y, and a hop after a topple never ends
    stable. Only the slide off a slope steeper than friction holds moves a
    rest. On such a terrain every candidate is rested first and scored
    where it rests, and the same walks then read the answers.
    """
    if not candidates:
        raise ValueError("candidate list must be non-empty")
    twin = scene.as_twin()
    rests: dict[int, tuple[Pose6D, float] | None] = {}

    def rest(i: int) -> tuple[Pose6D, float] | None:
        """Candidate i's rested pose and stability margin, or None."""
        if i not in rests:
            found = rest_on_support(twin, object_id, candidates[i].pose)
            if found is None:
                rests[i] = None  # collides, topples, or rests on the bare ground
            else:
                rested, outcome = found
                rests[i] = outcome.final_pose, stability_margin(rested, object_id)
        return rests[i]

    slides = twin.terrain.slides
    scores = []
    for i, sample in enumerate(candidates):
        found = rest(i) if slides else None
        at = sample if found is None else found[0]
        scores.append(_reach_score(at.x, at.y))
    by_score = sorted(range(len(candidates)), key=lambda i: (-scores[i], i))
    best = next((scores[i] for i in by_score if rest(i) is not None), None)
    if best is None:
        raise NoFeasiblePose(
            f"no feasible sub-goal pose for {object_id}: all {len(candidates)} "
            f"candidates toppled, fell off, or collided"
        )
    # scores within 0.05 of the best are reachability noise
    floor = best - 0.05
    band = [i for i in range(len(candidates)) if not scores[i] < floor]
    kept: list[Candidate] = []
    for i in band + [i for i in by_score if scores[i] < floor]:
        found = rest(i)
        if found is None:
            continue
        score = scores[i] if scores[i] < floor else best
        kept.append(Candidate(found[0], score, found[1], i))
        if len(kept) == _MAX_KEEP:
            break
    return CandidateSet(tuple(kept))


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def _pose_gap(pose: Pose6D, target: Pose6D) -> float:
    d = math.hypot(target.x - pose.x, target.y - pose.y)
    return d + 0.005 * geodesic_angle(pose.orientation, target.orientation)


_EXEC_SLOP = 0.012  # push-controller position tolerance plus a little


def _grasp_score(scene: TwinScene, object_id: str, candidate: Candidate):
    """Prefer candidates whose grasp survives controller slop, then stability
    margin, then overhang, then the least yaw work to get there."""
    probe = scene.as_twin().replace_object(
        scene.object(object_id).at_pose(candidate.pose)
    )
    a = assess_grasp(probe, object_id)
    robust = a.ok and (a.rule == "top" or a.overhang >= _MIN_OVERHANG + _EXEC_SLOP)
    margin = min(candidate.stability_margin, 0.02)
    current = scene.object(object_id).pose
    yaw_cost = abs(math.degrees(wrap_angle(candidate.pose.yaw - current.yaw)))
    return (
        1 if robust else 0,
        1 if a.ok else 0,
        round(margin, 4),
        round(min(a.overhang, 0.045), 4),
        -round(yaw_cost, 1),
        candidate.reachability_score,
    )


def select_subgoal(
    cset: CandidateSet,
    step: PrimitiveInstance,
    next_step: PrimitiveInstance | None,
    scene: TwinScene,
) -> Candidate:
    """Choose ``step``'s sub-goal pose from the retained candidates.

    Scripted rules, by primitive context:
      1. the step carries a target pose hint: closest candidate to the hint
         (position plus orientation gap, yaw-agnostic for rotations);
      2. next step is a grasp: prefer candidates the grasp rules accept,
         then larger stability margin, then larger overhang;
      3. next step is a rotation: least yaw work (the flip ignores yaw and
         extra in-place rotation near obstacles is pure risk);
      4. otherwise: highest reachability.
    """
    if step.target_pose_hint is not None:
        hint = step.target_pose_hint
        if step.kind is PrimitiveKind.ROTATE:
            return min(
                cset.candidates,
                key=lambda c: (round(yaw_free_angle(
                    c.pose.orientation, hint.orientation), 1), c.source_index),
            )
        return min(
            cset.candidates,
            key=lambda c: (_pose_gap(c.pose, hint), c.source_index),
        )
    if next_step is not None and next_step.kind is PrimitiveKind.GRASP:
        return max(
            cset.candidates,
            key=lambda c: _grasp_score(scene, step.object_id, c),
        )
    if next_step is not None and next_step.kind is PrimitiveKind.ROTATE:
        cur_yaw = scene.object(step.object_id).pose.yaw
        return min(
            cset.candidates,
            key=lambda c: (
                round(abs(math.degrees(wrap_angle(c.pose.yaw - cur_yaw))), 0),
                -c.reachability_score,
                c.source_index,
            ),
        )
    return cset.candidates[0]
