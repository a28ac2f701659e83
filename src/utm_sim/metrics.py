"""Run post-processing: path lengths, pairwise separations, event tallies."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from .geom2d import Vec2, distance
from .sim_engine import SimResult

COLLISION_MARKER = "--"

EVENT_KINDS = (
    "arrived",
    "waypoint_advanced",
    "empty_feasible_set",
    "uav_uav_collision",
    "uav_obstacle_collision",
)


def path_length(points: Sequence[Vec2]) -> float:
    """Total polyline length of a recorded trajectory (0.0 for a single sample).

    A segment whose two samples are the same object is skipped: its length
    is `hypot(0, 0)`, and adding 0.0 to a sum of non-negative lengths, which
    starts at 0.0, leaves it unchanged.
    """
    if len(points) == 0:
        raise ValueError("empty trajectory")
    return sum((distance(a, b) for a, b in zip(points, points[1:]) if a is not b), 0.0)


def pairwise_distances(
    trajectories: Mapping[str, Sequence[Vec2]],
) -> tuple[dict[tuple[str, str], list[float]], dict[tuple[str, str], float]]:
    """Per-step distance series and minima for every unordered UAV pair.

    All trajectories must be time-aligned (equal sample counts). Pair keys
    follow the mapping's iteration order. A sample whose two positions are
    the same objects (`is`) as the previous sample's repeats the previous
    distance, the very float: same objects, same `distance`. So a pair of
    parked UAVs costs one `hypot` per parking, not one per sample.
    """
    ids = list(trajectories)
    lengths = {len(trajectories[i]) for i in ids}
    if len(lengths) > 1:
        raise ValueError(f"trajectories are not time-aligned: sample counts {sorted(lengths)}")
    if lengths == {0}:
        raise ValueError("empty trajectories")
    series: dict[tuple[str, str], list[float]] = {}
    minima: dict[tuple[str, str], float] = {}
    for a, b in combinations(ids, 2):
        ds: list[float] = []
        append = ds.append
        last_p = last_q = None
        for p, q in zip(trajectories[a], trajectories[b]):
            if p is not last_p or q is not last_q:
                last_p, last_q, d = p, q, math.hypot(q.x - p.x, q.y - p.y)  # distance(p, q)
            append(d)
        series[(a, b)] = ds
        minima[(a, b)] = min(ds)
    return series, minima


@dataclass
class RunReport:
    """What `build_report` measures of one run.

    path_lengths maps a collided UAV to None (rendered as the '--' marker on
    export); the number is never replaced by a sentinel value. pair_distances
    holds the per-sample series whose minima are pair_min_distances, in the
    same pair order. event_counts tallies the run's events by kind, with
    every kind of EVENT_KINDS present.
    """

    path_lengths: dict[str, float | None]
    pair_min_distances: dict[tuple[str, str], float]
    pair_distances: dict[tuple[str, str], list[float]]
    event_counts: dict[str, int]


def build_report(result: SimResult) -> RunReport:
    if not result.states or not result.states[0]:
        raise ValueError("result has no UAV states")

    event_counts = {kind: 0 for kind in EVENT_KINDS}
    collided: set[str] = set()
    for ev in result.events:
        event_counts[ev.kind] = event_counts.get(ev.kind, 0) + 1
        if ev.kind == "uav_uav_collision":
            collided.add(ev.details["a"])
            collided.add(ev.details["b"])
        elif ev.kind == "uav_obstacle_collision":
            collided.add(ev.details["uav"])

    positions = {column[0].id: [u.position for u in column]
                 for column in zip(*result.states)}
    path_lengths: dict[str, float | None] = {
        uid: (None if uid in collided else path_length(pts))
        for uid, pts in positions.items()
    }
    series, minima = pairwise_distances(positions)
    return RunReport(
        path_lengths=path_lengths,
        pair_min_distances=minima,
        pair_distances=series,
        event_counts=event_counts,
    )
