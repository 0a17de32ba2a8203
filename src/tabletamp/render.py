"""Deterministic top-down orthographic SVG rendering of twin scenes.

Output is plain text with fixed float formatting so renders diff cleanly in
tests and across runs. Candidate poses draw solid; the current object pose
draws translucent behind them; pose goals draw as a dashed outline.
"""

from __future__ import annotations

import math

from .geometry import Polygon2, Pose6D
from .scenarios import Goal
from .subgoal import CandidateSet
from .twin import ROBOT_BASE, RigidObject, TwinScene

_TERRAIN_FILL = {
    "ground": "#d9d4c7",
    "table_surface": "#c9a36a",
    "wall": "#6b5b4a",
    "slope": "#b4c4a8",
    "slot": "#7a6a55",
    "shelf": "#a98f6f",
}

_SCALE = 400.0  # px per meter
_SIZE_PX = 480  # image width and height


def _fmt(v: float) -> str:
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


def _poly_points(poly: Polygon2, cx: float, cy: float) -> str:
    return " ".join(
        f"{_fmt((x - cx) * _SCALE)},{_fmt(-(y - cy) * _SCALE)}"
        for x, y in poly.vertices
    )


def _object_footprint(obj: RigidObject, pose: Pose6D | None = None) -> Polygon2:
    body = obj if pose is None else obj.at_pose(pose)
    return body.world_obb().footprint()


def render_scene(
    scene: TwinScene,
    highlight: dict[str, Pose6D] | None = None,
    goal_pose: tuple[str, Pose6D] | None = None,
    goal_zone: Polygon2 | None = None,
    caption: str = "",
) -> str:
    """Render a scene to an SVG string.

    highlight maps object ids to candidate poses drawn solid, with the
    current pose of the same object drawn translucent underneath.
    """
    cx, cy = 0.0, 0.0
    tables = [t for t in scene.terrain if t.kind == "table_surface"]
    if tables:
        cx, cy = tables[0].footprint.centroid

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE_PX}" '
        f'height="{_SIZE_PX}" viewBox="{-_SIZE_PX // 2} {-_SIZE_PX // 2} '
        f'{_SIZE_PX} {_SIZE_PX}">',
        f'<rect x="{-_SIZE_PX // 2}" y="{-_SIZE_PX // 2}" width="{_SIZE_PX}" '
        f'height="{_SIZE_PX}" fill="#f4f1ea"/>',
    ]

    order = {"ground": 0, "table_surface": 1, "slope": 2, "slot": 3, "shelf": 4, "wall": 5}
    for t in sorted(scene.terrain, key=lambda f: (order.get(f.kind, 9), f.name)):
        fill = _TERRAIN_FILL.get(t.kind, "#cccccc")
        parts.append(
            f'<polygon points="{_poly_points(t.footprint, cx, cy)}" fill="{fill}" '
            f'stroke="#54483a" stroke-width="1"><title>{t.kind}:{t.name}</title></polygon>'
        )

    if goal_zone is not None:
        parts.append(
            f'<polygon points="{_poly_points(goal_zone, cx, cy)}" fill="#f5e04c" '
            f'fill-opacity="0.45" stroke="#b8a416" stroke-width="1.5">'
            f"<title>target zone</title></polygon>"
        )

    highlight = highlight or {}
    for obj in sorted(scene.objects, key=lambda o: o.id):
        fp = _object_footprint(obj)
        translucent = obj.id in highlight
        opacity = "0.35" if translucent else "1.0"
        fill = "#4f7bd9" if obj.tool_spec is None else "#d97b4f"
        parts.append(
            f'<polygon points="{_poly_points(fp, cx, cy)}" fill="{fill}" '
            f'fill-opacity="{opacity}" stroke="#1d2f54" stroke-width="1.2">'
            f"<title>{obj.id}</title></polygon>"
        )
        hx, hy = fp.centroid
        yaw = obj.pose.yaw
        tipx = hx + 0.8 * 0.03 * math.cos(yaw)
        tipy = hy + 0.8 * 0.03 * math.sin(yaw)
        parts.append(
            f'<line x1="{_fmt((hx - cx) * _SCALE)}" y1="{_fmt(-(hy - cy) * _SCALE)}" '
            f'x2="{_fmt((tipx - cx) * _SCALE)}" y2="{_fmt(-(tipy - cy) * _SCALE)}" '
            f'stroke="#1d2f54" stroke-width="1" opacity="{opacity}"/>'
        )

    for obj_id, pose in sorted(highlight.items()):
        obj = scene.object(obj_id)
        fp = _object_footprint(obj, pose)
        parts.append(
            f'<polygon points="{_poly_points(fp, cx, cy)}" fill="#2c9e4b" '
            f'fill-opacity="0.9" stroke="#0c4d1f" stroke-width="1.5">'
            f"<title>{obj_id} candidate</title></polygon>"
        )

    if goal_pose is not None:
        obj_id, pose = goal_pose
        obj = scene.object(obj_id)
        fp = _object_footprint(obj, pose)
        parts.append(
            f'<polygon points="{_poly_points(fp, cx, cy)}" fill="none" '
            f'stroke="#9e2c2c" stroke-width="1.5" stroke-dasharray="5,3">'
            f"<title>{obj_id} goal</title></polygon>"
        )

    base = ROBOT_BASE
    parts.append(
        f'<circle cx="{_fmt((base[0] - cx) * _SCALE)}" '
        f'cy="{_fmt(-(base[1] - cy) * _SCALE)}" r="8" fill="#333333">'
        f"<title>robot base</title></circle>"
    )
    if caption:
        parts.append(
            f'<text x="{-_SIZE_PX // 2 + 8}" y="{-_SIZE_PX // 2 + 18}" '
            f'font-family="monospace" font-size="12" fill="#333333">{caption}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def render_goal(scene: TwinScene, goal: Goal, object_id: str, caption: str) -> str:
    """Render a scene with ``object_id``'s goal: a pose goal as a dashed
    outline of the object, a region goal as a filled zone."""
    return render_scene(
        scene,
        goal_pose=(object_id, goal.target) if goal.kind == "pose" else None,
        goal_zone=goal.zone if goal.kind == "region" else None,
        caption=caption,
    )


def render_candidates(scene: TwinScene, object_id: str, cset: CandidateSet) -> list[str]:
    """One SVG per kept candidate, in rank order: the twin snapshot the
    candidates were rehearsed in, so ``object_id`` draws translucent at its
    pre-step pose, with the candidate's rested pose highlighted."""
    return [render_scene(scene, highlight={object_id: c.pose}) for c in cset.candidates]
