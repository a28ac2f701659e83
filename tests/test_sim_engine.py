import math
from dataclasses import fields, replace
from pathlib import Path

import pytest

from utm_sim.apf_core import ApfParams
from utm_sim.geom2d import Bounds, Vec2, distance
from utm_sim.obstacle_field import ObstacleField, RectObstacle
from utm_sim.params import Params
from utm_sim.rrt_planner import PlannerParams, PlanningError, WaypointPath
from utm_sim.scenario_cli import Scenario, UavSpec, load_scenario
from utm_sim.sim_engine import (
    DEFAULT_UAV_RADIUS,
    SimParams,
    UavState,
    World,
    assign_waypoint,
    build_world,
    derive_uav_seed,
    detect_collisions,
    gather_threats,
    plan_paths,
    run,
    run_planned,
    step,
)
from utm_sim.vo_core import VoParams

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def make_uav(uid, pos, wps, vel=Vec2(0.0, 0.0), radius=12.0, wp_index=0, arrived=False):
    return UavState(id=uid, position=pos, velocity=vel, radius=radius,
                    path=WaypointPath(tuple(wps)), waypoint_index=wp_index,
                    arrived=arrived)


def make_world(uavs, rects=()):
    return World(uavs=list(uavs), field=ObstacleField(list(rects)))


def make_scenario(uavs, rects=(), bounds=Bounds(0.0, 0.0, 400.0, 400.0), **params_kw):
    return Scenario(name="test", rectangles=tuple(rects), uavs=tuple(uavs),
                    sim=Params(bounds=bounds, **params_kw))


def test_sim_params_defaults_and_validation():
    p = SimParams()
    assert (p.dt, p.kp, p.dist_wp, p.max_steps, p.algorithm) == (0.1, 0.2, 10.0, 20_000, "vo")
    with pytest.raises(ValueError):
        SimParams(algorithm="magic")
    with pytest.raises(ValueError):
        SimParams(dt=0.0)
    with pytest.raises(ValueError):
        SimParams(max_steps=0)


def test_default_uav_radius():
    assert DEFAULT_UAV_RADIUS == 12.0


class TestOneTable:
    def test_former_names_are_the_one_table(self):
        assert SimParams is Params and VoParams is Params
        assert ApfParams is Params and PlannerParams is Params

    def test_no_second_table_in_world_or_scenario(self):
        assert [f.name for f in fields(World)] == ["uavs", "field"]
        assert [f.name for f in fields(Scenario)] == ["name", "rectangles", "uavs", "sim"]
        sc = make_scenario([UavSpec("u1", Vec2(20.0, 200.0), Vec2(120.0, 200.0))],
                           uav_radius=9.0)
        assert sc.planner is sc.sim and sc.uav_radius == 9.0 and sc.bounds is sc.sim.bounds

    def test_inflation_defaults_to_uav_radius(self):
        assert Params().inflation == 12.0
        assert Params(uav_radius=9.0).inflation == 9.0
        assert Params(uav_radius=9.0, inflation=0.0).inflation == 0.0
        with pytest.raises(ValueError, match="circle_spacing must be < 2"):
            Params(obstacle_circle_radius=5.0, circle_spacing=10.0)

    def test_build_world_takes_sizes_from_the_run_table(self):
        sc = make_scenario([UavSpec("u1", Vec2(20.0, 200.0), Vec2(120.0, 200.0))],
                           rects=[RectObstacle(Vec2(200.0, 100.0), 30.0, 30.0, "r")])
        params = replace(sc.sim, uav_radius=9.0, obstacle_circle_radius=5.0,
                         circle_spacing=8.0)
        world = build_world(sc, params, plan_paths(sc, 1))
        assert [u.radius for u in world.uavs] == [9.0]
        assert {c.radius for c in world.field.circles} == {5.0}
        # 30 m edges at spacing 8: four circles per edge
        assert len(world.field.circles) == 16

    def test_kp_on_the_run_table_steers_vo(self):
        sc = load_scenario(SCENARIOS / "head_on_duel.json")
        slow = run(sc, replace(sc.sim, algorithm="vo"), seed=1)
        fast = run(sc, replace(sc.sim, algorithm="vo", kp=0.6), seed=1)
        for res, kp in ((slow, 0.2), (fast, 0.6)):
            a0, a1 = res.trajectories["a"][:2]
            wp = plan_paths(sc, 1)["a"].waypoints[1]
            assert a1.velocity == Vec2(kp * (wp.x - a0.position.x), kp * (wp.y - a0.position.y))
        assert slow.completed and fast.completed
        assert fast.steps < slow.steps

    def test_dt_on_the_run_table_sets_the_apf_step(self):
        sc = load_scenario(SCENARIOS / "head_on_duel.json")
        res = run(sc, replace(sc.sim, algorithm="apf", dt=0.05, max_steps=1), seed=1)
        for samples in res.trajectories.values():
            first, second = samples
            assert second.t == 0.05
            assert distance(first.position, second.position) == pytest.approx(0.05 * 8.0)
            assert second.velocity.norm() == pytest.approx(8.0)  # k_att: moved dt * k_att

    def test_apf_reads_activation_range_from_the_run_table(self):
        def first_move(params):
            a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
            b = make_uav("b", Vec2(0.0, 40.0), [Vec2(0.0, 40.0)], arrived=True)
            world = make_world([a, b])
            step(world, params, t=params.dt)
            return world.uavs[0].position

        assert first_move(Params(algorithm="apf", dist_uav=30.0)) == Vec2(0.8, 0.0)
        pushed = first_move(Params(algorithm="apf"))  # b at 40 < 50 repels a
        assert pushed.y < 0.0


class TestUavState:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_uav("a", Vec2(0, 0), [Vec2(1, 1)], radius=0.0)
        with pytest.raises(ValueError):
            make_uav("a", Vec2(0, 0), [Vec2(1, 1)], wp_index=1)

    def test_current_waypoint(self):
        u = make_uav("a", Vec2(0, 0), [Vec2(1, 1), Vec2(2, 2)], wp_index=1)
        assert u.current_waypoint() == Vec2(2, 2)


class TestAssignWaypoint:
    def test_far_from_waypoint_unchanged(self):
        u = make_uav("a", Vec2(0.0, 0.0), [Vec2(15.0, 0.0), Vec2(30.0, 0.0)])
        assert assign_waypoint(u, 10.0) is u

    def test_advances_one_waypoint(self):
        u = make_uav("a", Vec2(0.0, 0.0), [Vec2(5.0, 0.0), Vec2(6.0, 0.0), Vec2(30.0, 0.0)])
        nxt = assign_waypoint(u, 10.0)
        assert nxt.waypoint_index == 1  # exactly one advance per call
        assert not nxt.arrived
        assert nxt.position == u.position

    def test_arrival_at_last_waypoint_parks(self):
        u = make_uav("a", Vec2(29.0, 0.0), [Vec2(5.0, 0.0), Vec2(30.0, 0.0)],
                     vel=Vec2(3.0, 0.0), wp_index=1)
        nxt = assign_waypoint(u, 10.0)
        assert nxt.arrived
        assert nxt.velocity == Vec2(0.0, 0.0)
        assert nxt.waypoint_index == 1

    def test_threshold_is_strict(self):
        u = make_uav("a", Vec2(0.0, 0.0), [Vec2(10.0, 0.0), Vec2(30.0, 0.0)])
        assert assign_waypoint(u, 10.0) is u  # exactly dist_wp away: no advance

    def test_arrived_passthrough(self):
        u = make_uav("a", Vec2(0.0, 0.0), [Vec2(0.0, 1.0)], arrived=True)
        assert assign_waypoint(u, 10.0) is u


class TestGatherThreats:
    def test_activation_distance_strict(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        b = make_uav("b", Vec2(50.0, 0.0), [Vec2(0.0, 0.0)])
        c = make_uav("c", Vec2(49.0, 0.0), [Vec2(0.0, 0.0)])
        field = ObstacleField([])
        threats = gather_threats(a, [a, b, c], field, 50.0, 20.0)
        assert [t.source_id for t in threats] == ["c"]  # b at exactly 50 is out

    def test_canonical_order_distance_kind_id(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        # two UAVs at identical distance, plus obstacle circles
        b = make_uav("b", Vec2(30.0, 0.0), [Vec2(0.0, 0.0)])
        d = make_uav("d", Vec2(-30.0, 0.0), [Vec2(0.0, 0.0)])
        rect = RectObstacle(Vec2(0.0, 18.0), 15.0, 15.0, "r1")  # corners 10.5 away-ish
        field = ObstacleField([rect])
        threats = gather_threats(a, [a, d, b], field, 50.0, 20.0)
        kinds = [(t.kind, t.source_id) for t in threats]
        # nearest first: the two bottom rect corners (distance ~12.9), then b/d
        dists = [distance(a.position, t.position) for t in threats]
        assert dists == sorted(dists)
        assert kinds[-2:] == [("uav", "b"), ("uav", "d")]  # id tie-break at 30.0
        assert all(k == "obstacle" for k, _ in kinds[:-2])

    def test_uav_before_obstacle_on_distance_tie(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        # obstacle circle corner exactly at (12.5, 0): put a uav at same distance
        rect = RectObstacle(Vec2(20.0, 0.0), 15.0, 15.0, "r1")
        field = ObstacleField([rect])
        b = make_uav("b", Vec2(0.0, math.hypot(12.5, 7.5)), [Vec2(0.0, 0.0)])
        threats = gather_threats(a, [a, b], field, 50.0, 20.0)
        tied = [t for t in threats
                if distance(a.position, t.position) == math.hypot(12.5, 7.5)]
        assert [t.kind for t in tied] == ["uav", "obstacle", "obstacle"]

    def test_combined_radius_and_self_exclusion(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)], radius=10.0)
        b = make_uav("b", Vec2(20.0, 0.0), [Vec2(0.0, 0.0)], radius=7.0)
        threats = gather_threats(a, [a, b], ObstacleField([]), 50.0, 20.0)
        assert len(threats) == 1
        assert threats[0].combined_radius == 17.0
        assert threats[0].velocity == b.velocity

    def test_arrived_uavs_still_threats(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        b = make_uav("b", Vec2(20.0, 0.0), [Vec2(20.0, 0.0)], arrived=True)
        threats = gather_threats(a, [a, b], ObstacleField([]), 50.0, 20.0)
        assert [t.source_id for t in threats] == ["b"]

    def test_rect_prefilter_does_not_hide_circles(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        near = RectObstacle(Vec2(25.0, 0.0), 20.0, 20.0, "near")  # face at x=15
        far = RectObstacle(Vec2(200.0, 0.0), 20.0, 20.0, "far")
        field = ObstacleField([near, far])
        threats = gather_threats(a, [a], field, 50.0, 20.0)
        assert threats  # left corners of `near` are 18.0 away
        assert {t.kind for t in threats} == {"obstacle"}
        assert all(t.source_id.startswith("near#") for t in threats)
        for t in threats:
            assert distance(a.position, t.position) < 20.0


class TestDetectCollisions:
    def test_uav_uav_strict_inequality(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(1.0, 1.0)])
        b = make_uav("b", Vec2(24.0, 0.0), [Vec2(1.0, 1.0)])
        assert detect_collisions(make_world([a, b]), 0.0) == []
        c = make_uav("c", Vec2(23.999, 0.0), [Vec2(1.0, 1.0)])
        events = detect_collisions(make_world([a, c]), 1.5)
        assert len(events) == 1
        ev = events[0]
        assert ev.kind == "uav_uav_collision"
        assert ev.t == 1.5
        assert ev.details["a"] == "a" and ev.details["b"] == "c"

    def test_uav_rect_ground_truth(self):
        rect = RectObstacle(Vec2(50.0, 50.0), 20.0, 20.0, "r")
        inside = make_uav("a", Vec2(50.0, 50.0), [Vec2(1.0, 1.0)])
        events = detect_collisions(make_world([inside], [rect]), 0.0)
        assert [e.kind for e in events] == ["uav_obstacle_collision"]
        near = make_uav("a", Vec2(72.5, 50.0), [Vec2(1.0, 1.0)])  # 12.5 > 12 clear
        assert detect_collisions(make_world([near], [rect]), 0.0) == []
        grazing = make_uav("a", Vec2(71.9, 50.0), [Vec2(1.0, 1.0)])  # 11.9 < 12
        assert len(detect_collisions(make_world([grazing], [rect]), 0.0)) == 1

    def test_event_order_independent_of_world_order(self):
        rect = RectObstacle(Vec2(0.0, 40.0), 30.0, 30.0, "r")
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(1.0, 1.0)])
        b = make_uav("b", Vec2(10.0, 0.0), [Vec2(1.0, 1.0)])
        c = make_uav("c", Vec2(0.0, 20.0), [Vec2(1.0, 1.0)])
        ev1 = detect_collisions(make_world([a, b, c], [rect]), 0.0)
        ev2 = detect_collisions(make_world([c, b, a], [rect]), 0.0)
        assert ev1 == ev2
        assert len(ev1) >= 2  # a-b overlap plus c against the rect


class TestStep:
    def test_free_space_velocity_and_position(self):
        u = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        world = make_world([u])
        events = step(world, SimParams(), t=0.1)
        assert events == []
        moved = world.uavs[0]
        assert moved.velocity == Vec2(20.0, 0.0)  # kp * (wp - pos)
        assert moved.position == Vec2(2.0, 0.0)  # dt * velocity
        assert not moved.arrived

    def test_waypoint_advance_event_then_motion_toward_new_target(self):
        u = make_uav("a", Vec2(0.0, 0.0), [Vec2(5.0, 0.0), Vec2(0.0, 50.0)])
        world = make_world([u])
        events = step(world, SimParams(), t=0.1)
        assert [e.kind for e in events] == ["waypoint_advanced"]
        assert events[0].details == {"uav": "a", "waypoint_index": 1}
        # motion this same step already aims at the new waypoint
        moved = world.uavs[0]
        assert moved.velocity == Vec2(0.0, 10.0)

    def test_arrival_parks_uav(self):
        u = make_uav("a", Vec2(99.0, 0.0), [Vec2(100.0, 0.0)])
        world = make_world([u])
        events = step(world, SimParams(), t=0.1)
        assert [e.kind for e in events] == ["arrived"]
        parked = world.uavs[0]
        assert parked.arrived
        assert parked.position == Vec2(99.0, 0.0)
        assert parked.velocity == Vec2(0.0, 0.0)
        # subsequent steps leave it exactly in place
        assert step(world, SimParams(), t=0.2) == []
        assert world.uavs[0].position == Vec2(99.0, 0.0)

    def test_permutation_invariance_of_interacting_pair(self):
        def build(order):
            a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)], vel=Vec2(20.0, 0.0))
            b = make_uav("b", Vec2(40.0, 0.0), [Vec2(-60.0, 0.0)], vel=Vec2(-20.0, 0.0))
            return make_world([a, b] if order == "ab" else [b, a])

        w1, w2 = build("ab"), build("ba")
        params = SimParams()
        for i in range(1, 120):
            e1 = step(w1, params, t=i * params.dt)
            e2 = step(w2, params, t=i * params.dt)
            assert e1 == e2
            s1 = {u.id: u for u in w1.uavs}
            s2 = {u.id: u for u in w2.uavs}
            assert s1 == s2  # bitwise identical per-id states

    def test_vo_engages_on_conflict(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        b = make_uav("b", Vec2(40.0, 0.0), [Vec2(40.0, 0.0)], arrived=True)
        world = make_world([a, b])
        step(world, SimParams(), t=0.1)
        moved = {u.id: u for u in world.uavs}["a"]
        assert moved.velocity != Vec2(20.0, 0.0)  # had to deviate

    def test_empty_feasible_set_event(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        b = make_uav("b", Vec2(10.0, 0.0), [Vec2(200.0, 0.0)], vel=Vec2(0.0, 0.0))
        c = make_uav("c", Vec2(-10.0, 0.0), [Vec2(200.0, 0.0)], vel=Vec2(30.0, 0.0))
        world = make_world([a, b, c])
        events = step(world, SimParams(), t=0.1)
        empty = [e for e in events if e.kind == "empty_feasible_set"]
        assert any(e.details["uav"] == "a" for e in empty)
        moved = {u.id: u for u in world.uavs}["a"]
        assert moved.position == Vec2(0.0, 0.0)  # hovered

    def test_apf_algorithm_velocity_is_displacement_rate(self):
        u = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        world = make_world([u])
        step(world, SimParams(algorithm="apf"), t=0.1)
        moved = world.uavs[0]
        assert moved.position == Vec2(0.8, 0.0)  # dt * k_att
        assert moved.velocity.x == pytest.approx(8.0)
        assert moved.velocity.y == 0.0


class TestSeedsAndPlanning:
    def test_derive_uav_seed_frozen_values(self):
        # frozen: derivation must stay stable across processes and platforms
        assert derive_uav_seed(42, "u1") == 5685552855435824631
        assert derive_uav_seed(42, "u2") == 970537742503280014
        assert derive_uav_seed(1, "u1") == 17257030451203217042
        assert derive_uav_seed(42, "u1") != derive_uav_seed(43, "u1")

    def test_plan_paths_deterministic_and_per_uav(self):
        scenario = make_scenario(
            [UavSpec("u1", Vec2(20.0, 20.0), Vec2(380.0, 380.0)),
             UavSpec("u2", Vec2(380.0, 20.0), Vec2(20.0, 380.0))],
            rects=[RectObstacle(Vec2(200.0, 200.0), 60.0, 60.0, "mid")],
        )
        p1 = plan_paths(scenario, 7)
        p2 = plan_paths(scenario, 7)
        assert p1 == p2
        assert set(p1) == {"u1", "u2"}
        assert p1["u1"] != p1["u2"]

    def test_planning_error_names_the_uav(self):
        walls = [
            RectObstacle(Vec2(200.0, 245.0), 110.0, 10.0, "t"),
            RectObstacle(Vec2(200.0, 155.0), 110.0, 10.0, "b"),
            RectObstacle(Vec2(155.0, 200.0), 10.0, 110.0, "l"),
            RectObstacle(Vec2(245.0, 200.0), 10.0, 110.0, "r"),
        ]
        scenario = make_scenario(
            [UavSpec("trapped", Vec2(20.0, 20.0), Vec2(200.0, 200.0))],
            rects=walls, max_iters=1500,
        )
        with pytest.raises(PlanningError, match="trapped"):
            plan_paths(scenario, 1)


class TestRun:
    def test_single_uav_completes(self):
        scenario = make_scenario([UavSpec("u1", Vec2(20.0, 200.0), Vec2(120.0, 200.0))])
        result = run(scenario, SimParams(), seed=3)
        assert result.completed
        assert result.algorithm == "vo"
        assert 0 < result.steps < 2000
        samples = result.trajectories["u1"]
        assert len(samples) == result.steps + 1
        assert samples[0].t == 0.0
        assert samples[0].position == Vec2(20.0, 200.0)
        assert samples[0].velocity == Vec2(0.0, 0.0)
        assert samples[-1].t == result.steps * 0.1
        # ends within dist_wp of the goal region center it was steering to
        final = samples[-1].position
        assert distance(final, Vec2(120.0, 200.0)) < 10.0 + 10.0  # goal_radius + dist_wp

    def test_time_axis_uniform(self):
        scenario = make_scenario([UavSpec("u1", Vec2(20.0, 200.0), Vec2(120.0, 200.0))])
        result = run(scenario, SimParams(), seed=3)
        ts = [s.t for s in result.trajectories["u1"]]
        for i, t in enumerate(ts):
            assert t == i * 0.1

    def test_initial_overlap_detected_at_t0(self):
        scenario = make_scenario([
            UavSpec("u1", Vec2(20.0, 200.0), Vec2(120.0, 200.0)),
            UavSpec("u2", Vec2(30.0, 200.0), Vec2(120.0, 300.0)),
        ])
        result = run(scenario, SimParams(max_steps=5), seed=3)
        t0 = [e for e in result.events if e.t == 0.0 and e.kind == "uav_uav_collision"]
        assert t0

    def test_max_steps_cutoff(self):
        scenario = make_scenario([UavSpec("u1", Vec2(20.0, 200.0), Vec2(380.0, 200.0))])
        result = run(scenario, SimParams(max_steps=7), seed=3)
        assert not result.completed
        assert result.steps == 7
        assert len(result.trajectories["u1"]) == 8

    def test_identical_runs_identical_results(self):
        scenario = make_scenario(
            [UavSpec("u1", Vec2(20.0, 20.0), Vec2(380.0, 380.0)),
             UavSpec("u2", Vec2(380.0, 20.0), Vec2(20.0, 380.0))],
            rects=[RectObstacle(Vec2(200.0, 200.0), 60.0, 60.0, "mid")],
        )
        r1 = run(scenario, SimParams(), seed=11)
        r2 = run(scenario, SimParams(), seed=11)
        assert r1.trajectories == r2.trajectories
        assert r1.events == r2.events

    def test_run_planned_shares_paths_between_algorithms(self):
        scenario = make_scenario([UavSpec("u1", Vec2(20.0, 200.0), Vec2(200.0, 200.0))])
        paths = plan_paths(scenario, 5)
        r_vo = run_planned(scenario, SimParams(algorithm="vo"), paths)
        r_apf = run_planned(scenario, SimParams(algorithm="apf"), paths)
        assert r_vo.completed and r_apf.completed
        assert r_vo.algorithm == "vo" and r_apf.algorithm == "apf"
