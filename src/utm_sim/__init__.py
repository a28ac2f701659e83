"""Multi-UAV traffic simulation: sampled waypoint planning, velocity-obstacle
collision avoidance, a potential-field baseline, and scenario tooling."""

from .apf_core import apf_step
from .geom2d import Bounds, Vec2, distance, normalize_angle
from .metrics import RunReport, build_report, pairwise_distances, path_length
from .obstacle_field import ObstacleField, RectObstacle, discretize_rectangle
from .params import Params
from .rrt_planner import PlanningError, check_endpoints, plan_path, steer
from .scenario_cli import (Scenario, ScenarioError, UavSpec, export_result,
                           load_scenario, main, save_scenario)
from .sim_engine import (SimResult, UavState, assign_waypoint, detect_collisions,
                         plan_paths, run, run_planned, step)
from .vo_core import (AvoidResult, CollisionCone, FeasibleSet, Threat, avoid,
                      collision_cone, in_cone, prune_feasible, search_feasible,
                      select_velocity)

__all__ = [
    "apf_step",
    "Bounds", "Vec2", "distance", "normalize_angle",
    "RunReport", "build_report", "pairwise_distances", "path_length",
    "ObstacleField", "RectObstacle", "discretize_rectangle",
    "Params",
    "PlanningError", "check_endpoints", "plan_path", "steer",
    "Scenario", "ScenarioError", "UavSpec", "export_result", "load_scenario",
    "main", "save_scenario",
    "SimResult", "UavState", "assign_waypoint", "detect_collisions",
    "plan_paths", "run", "run_planned", "step",
    "AvoidResult", "CollisionCone", "FeasibleSet", "Threat",
    "avoid", "collision_cone", "in_cone", "prune_feasible", "search_feasible",
    "select_velocity",
]
