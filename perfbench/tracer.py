"""In-memory tracing of the tabletamp layers from outside the package.

The package's modules import names directly (``from .twin import settle``),
so a wrapper has to replace the function under every name that refers to
it in every ``tabletamp`` module, not only where it is defined. Functions
of ``harness``, ``planner``, ``subgoal`` and ``control`` get spans (name,
start, end, causing span, episode); ``twin`` and ``geometry`` get counts
only, because they are called tens of thousands of times per episode set.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass

from stats import self_times
from tabletamp.subgoal import NoFeasiblePose
from tabletamp.twin import PlacementCollision

PACKAGE = "tabletamp"

# (module, attribute path). These get spans named "<module>.<function>".
SPANNED = (
    ("harness", "run_episode"),
    ("harness", "randomize"),
    ("harness", "randomized_goal"),
    ("harness", "observe"),
    ("harness", "check_success"),
    ("planner", "ScriptedPlanner.plan"),
    ("planner", "ScriptedPlanner.reflect"),
    ("subgoal", "resolve_anchor"),
    ("subgoal", "sample_candidates"),
    ("subgoal", "filter_and_rank"),
    ("subgoal", "select_subgoal"),
    ("control", "assess_grasp"),
    ("control", "exec_push"),
    ("control", "exec_rotate"),
    ("control", "exec_grasp"),
    ("control", "exec_moveto"),
    ("control", "exec_release"),
)

# (module, attribute path, metric name). These are counted only.
COUNTED = (
    ("control", "_support_height_below", "control.support_height_below.calls"),
    ("twin", "support_cells", "twin.support_cells.calls"),
    ("twin", "settle", "twin.settle.calls"),
    ("twin", "place_at", "twin.place_at.calls"),
    ("twin", "apply_push", "twin.apply_push.calls"),
    ("geometry", "Polygon2.__post_init__", "geometry.polygon2.constructed"),
    ("geometry", "clip_convex", "geometry.clip_convex.calls"),
    ("geometry", "point_in_polygon", "geometry.point_in_polygon.calls"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    episode: str
    name: str
    start: float
    end: float = 0.0


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.split('.')[-1]}"


class Tracer:
    """Wraps the layer functions while active; restores them on exit.

    Use as a context manager around the calls to trace, and set
    ``episode`` before each episode so its spans share an identifier.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.episode = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module, path in SPANNED:
                self._replace(module, path, self._spanned(module, path))
            for module, path, metric in COUNTED:
                self._replace(module, path, self._counted(metric))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _replace(self, module: str, path: str, make_wrapper) -> None:
        mod = sys.modules[f"{PACKAGE}.{module}"]
        *owner_path, name = path.split(".")
        owner = mod
        for part in owner_path:
            owner = getattr(owner, part)
        original = vars(owner)[name]
        wrapper = functools.wraps(original)(make_wrapper(original))
        if owner is not mod:
            # a method: every caller looks it up on the class
            self._undo.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        for other_name, other in list(sys.modules.items()):
            if other is None or not (other_name == PACKAGE
                                     or other_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._undo.append((other, attr, original))
                    setattr(other, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _counted(self, metric: str):
        counts = self.counts
        on_error = _ERROR_HOOKS.get(metric)

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[metric] += 1
                if on_error is None:
                    return fn(*args, **kwargs)
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    on_error(counts, exc)
                    raise
            return wrapper
        return make

    def _spanned(self, module: str, path: str):
        name = span_name(module, path)
        on_result = _RESULT_HOOKS.get(name)
        on_error = _ERROR_HOOKS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                span = Span(len(spans), stack[-1] if stack else None,
                            self.episode, name, clock())
                spans.append(span)
                stack.append(span.id)
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(counts, exc)
                    raise
                finally:
                    span.end = clock()
                    stack.pop()
                if on_result is not None:
                    on_result(counts, result)
                return result
            return wrapper
        return make

    # -- results ----------------------------------------------------------

    def busy(self, scale: dict[str, float]) -> dict[str, float]:
        """Self time summed per span name, in seconds, each span's multiplied
        by its episode's factor in ``scale``."""
        out: Counter = Counter()
        own = self_times(self.spans)
        for s in self.spans:
            out[s.name] += own[s.id] * scale[s.episode]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(s.name for s in self.spans)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _count_sampled(counts, candidates) -> None:
    counts["subgoal.candidates_sampled"] += len(candidates)


def _count_kept(counts, cset) -> None:
    counts["subgoal.candidates_kept"] += len(cset.candidates)


def _count_exec(counts, result) -> None:
    _, trace = result
    if trace.result is not None:
        counts[f"control.errors.{trace.result.kind.value}"] += 1


def _count_push(counts, result) -> None:
    _count_exec(counts, result)
    counts["control.exec_push.iterations"] += result[1].iterations


def _count_no_pose(counts, exc) -> None:
    if isinstance(exc, NoFeasiblePose):
        counts["subgoal.no_feasible_pose"] += 1


def _count_collision(counts, exc) -> None:
    if isinstance(exc, PlacementCollision):
        counts["twin.place_at.collisions"] += 1


_RESULT_HOOKS = {
    "subgoal.sample_candidates": _count_sampled,
    "subgoal.filter_and_rank": _count_kept,
    "control.exec_push": _count_push,
    "control.exec_rotate": _count_exec,
    "control.exec_grasp": _count_exec,
    "control.exec_moveto": _count_exec,
    "control.exec_release": _count_exec,
}
# keyed by span name for spanned functions, by metric for counted ones
_ERROR_HOOKS = {
    "subgoal.filter_and_rank": _count_no_pose,
    "twin.place_at.calls": _count_collision,
}
