"""Desk-scale hybrid pick/push task-and-motion-planning sandbox.

A planner proposes sequences of prehensile (grasp, moveto, release) and
non-prehensile (push, rotate) primitives; a quasi-static rigid-body twin
rehearses candidate 6D object sub-goal poses; heuristic controllers execute
primitives in a perturbed execution scene; and a reflection loop revises
the plan from typed execution errors until the task succeeds or the replan
budget runs out.
"""

from .control import ErrorKind, ExecError, effective_reach
from .domain import (
    PlanSkeleton,
    PrimitiveInstance,
    PrimitiveKind,
    RegionDescriptor,
    parse_skeleton,
    serialize_skeleton,
    validate_skeleton,
)
from .geometry import Obb, Polygon2, Pose6D, geodesic_angle, se2_error
from .harness import (
    EpisodeResult,
    check_success,
    randomize,
    run_benchmark,
    run_episode,
)
from .planner import Observation, PlannerConfig, ReflectionInput
from .scenarios import SCENARIO_IDS, Scenario, all_scenarios, build_scenario
from .subgoal import Candidate, CandidateSet, NoFeasiblePose
from .twin import (
    RigidObject,
    SettleOutcome,
    TerrainFeature,
    ToolSpec,
    TwinScene,
    apply_push,
    pivot_rotate,
    place_at,
    settle,
)

__version__ = "0.1.0"
