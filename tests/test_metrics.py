import math
import random
from dataclasses import replace

import pytest

from utm_sim.geom2d import Vec2
from utm_sim.metrics import (
    COLLISION_MARKER,
    build_report,
    pairwise_distances,
    path_length,
)
from utm_sim.params import Params
from utm_sim.sim_engine import SimEvent, SimResult, UavState


class TestPathLength:
    def test_polyline(self):
        pts = [Vec2(0.0, 0.0), Vec2(3.0, 4.0), Vec2(3.0, 10.0)]
        assert path_length(pts) == 11.0

    def test_single_point_is_zero(self):
        assert path_length([Vec2(5.0, 5.0)]) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            path_length([])

    def test_reversal_invariant(self):
        rng = random.Random(14)
        pts = [Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(40)]
        assert path_length(pts) == pytest.approx(path_length(pts[::-1]), rel=1e-12)

    def test_at_least_straight_line_distance(self):
        rng = random.Random(15)
        for _ in range(200):
            pts = [Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(10)]
            d = math.hypot(pts[-1].x - pts[0].x, pts[-1].y - pts[0].y)
            assert path_length(pts) >= d - 1e-9


class TestPairwiseDistances:
    def test_parallel_offset_minimum(self):
        a = [Vec2(float(i), 0.0) for i in range(11)]
        b = [Vec2(float(i), 1.0) for i in range(11)]
        series, minima = pairwise_distances({"a": a, "b": b})
        assert minima[("a", "b")] == 1.0
        assert series[("a", "b")] == [1.0] * 11

    def test_crossing_minimum_zero(self):
        a = [Vec2(float(i), 0.0) for i in range(11)]
        b = [Vec2(10.0 - i, 0.0) for i in range(11)]
        _, minima = pairwise_distances({"a": a, "b": b})
        assert minima[("a", "b")] == 0.0

    def test_three_uavs_all_pairs_insertion_order(self):
        traj = {
            "u2": [Vec2(0.0, 0.0)],
            "u1": [Vec2(3.0, 4.0)],
            "u3": [Vec2(0.0, 8.0)],
        }
        series, minima = pairwise_distances(traj)
        assert list(series) == [("u2", "u1"), ("u2", "u3"), ("u1", "u3")]
        assert minima[("u2", "u1")] == 5.0
        assert minima[("u2", "u3")] == 8.0
        assert minima[("u1", "u3")] == 5.0

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distances({"a": [Vec2(0, 0)], "b": [Vec2(0, 0), Vec2(1, 1)]})

    def test_single_uav_no_pairs(self):
        series, minima = pairwise_distances({"a": [Vec2(0, 0)]})
        assert series == {} and minima == {}


def _state(uid, x, y, arrived):
    return UavState(uid, Vec2(x, y), Vec2(0.0, 0.0), (Vec2(x, y),), arrived=arrived)


def make_result(events):
    states = [
        (_state("u1", 0.0, 0.0, False), _state("u2", 30.0, 0.0, False),
         _state("u3", 100.0, 100.0, False)),
        (_state("u1", 3.0, 4.0, True), _state("u2", 27.0, 0.0, True),
         _state("u3", 100.0, 95.0, True)),
    ]
    return SimResult(Params(), states, events)


class TestBuildReport:
    def test_clean_run(self):
        result = make_result([SimEvent(0.1, "arrived", {"uav": "u1"})])
        rep = build_report(result)
        assert result.completed and result.steps == 1 and result.params.algorithm == "vo"
        assert rep.path_lengths["u1"] == 5.0
        assert rep.path_lengths["u2"] == 3.0
        assert rep.path_lengths["u3"] == 5.0
        assert rep.event_counts["uav_uav_collision"] == 0
        assert rep.event_counts["uav_obstacle_collision"] == 0
        assert rep.event_counts["empty_feasible_set"] == 0
        assert rep.event_counts["arrived"] == 1
        assert ("u1", "u2") in rep.pair_min_distances

    def test_pair_distances_are_the_series_behind_the_minima(self):
        result = make_result([])
        rep = build_report(result)
        positions = {"u1": [Vec2(0.0, 0.0), Vec2(3.0, 4.0)],
                     "u2": [Vec2(30.0, 0.0), Vec2(27.0, 0.0)],
                     "u3": [Vec2(100.0, 100.0), Vec2(100.0, 95.0)]}
        assert (rep.pair_distances, rep.pair_min_distances) == pairwise_distances(positions)
        assert list(rep.pair_distances) == list(rep.pair_min_distances)

    def test_collision_marks_both_uavs_with_marker_not_number(self):
        events = [SimEvent(0.1, "uav_uav_collision",
                           {"a": "u1", "b": "u2", "distance": 20.0})]
        rep = build_report(make_result(events))
        assert rep.path_lengths["u1"] is None
        assert rep.path_lengths["u2"] is None
        assert rep.path_lengths["u3"] == 5.0
        assert rep.event_counts["uav_uav_collision"] == 1
        # the marker is not any numeric sentinel
        assert not isinstance(rep.path_lengths["u1"], float)
        assert COLLISION_MARKER == "--"

    def test_obstacle_collision_marks_single_uav(self):
        events = [
            SimEvent(0.0, "uav_obstacle_collision",
                     {"uav": "u3", "rect": "r1", "distance": 5.0}),
            SimEvent(0.1, "empty_feasible_set", {"uav": "u1"}),
        ]
        rep = build_report(make_result(events))
        assert rep.path_lengths["u3"] is None
        assert rep.path_lengths["u1"] == 5.0
        assert rep.event_counts["uav_obstacle_collision"] == 1
        assert rep.event_counts["empty_feasible_set"] == 1

    def test_empty_trajectories_rejected(self):
        with pytest.raises(ValueError):
            build_report(SimResult(Params(), [], []))
        with pytest.raises(ValueError):
            build_report(SimResult(Params(), [()], []))

    def test_steps_and_completed_are_read_off_the_states(self):
        result = make_result([])
        moving = replace(result.states[-1][0], arrived=False, velocity=Vec2(1.0, 0.0))
        result.states.append((moving,) + result.states[-1][1:])
        assert result.steps == 2 and not result.completed
