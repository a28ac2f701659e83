import json
import math
import tempfile
from dataclasses import fields, replace
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import utm_sim
from utm_sim.apf_core import apf_step
from utm_sim.geom2d import Bounds, Vec2, distance, point_rect_distance
from utm_sim.obstacle_field import (MAX_CIRCLES, MAX_UAV_STEPS, ObstacleField, RectObstacle,
                                    discretize_rectangle)
from utm_sim.params import Params
from utm_sim.metrics import RunReport, build_report
from utm_sim.rrt_planner import PlanningError
from utm_sim.scenario_cli import Scenario, ScenarioError, UavSpec, export_result, load_scenario
from utm_sim.sim_engine import (
    SimEvent,
    UavState,
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
from utm_sim.vo_core import Threat

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

P = Params()  # dist_wp 10, dist_uav 50, dist_obs 20, every radius 12


def make_uav(uid, pos, wps, vel=Vec2(0.0, 0.0), wp_index=0, arrived=False):
    return UavState(id=uid, position=pos, velocity=vel, path=tuple(wps),
                    waypoint_index=wp_index, arrived=arrived)


def make_world(uavs, rects=(), params=P):
    """What `build_world` returns: the UAV list `step` advances, and the field."""
    return list(uavs), ObstacleField(tuple(rects), params)


def make_scenario(uavs, rects=(), bounds=Bounds(0.0, 0.0, 400.0, 400.0), **params_kw):
    return Scenario(name="test", rectangles=tuple(rects), uavs=tuple(uavs),
                    sim=Params(bounds=bounds, **params_kw))


def test_sim_params_defaults_and_validation():
    p = Params()
    assert (p.dt, p.kp, p.dist_wp, p.max_steps, p.algorithm) == (0.1, 0.2, 10.0, 20_000, "vo")
    with pytest.raises(ValueError):
        Params(algorithm="magic")
    with pytest.raises(ValueError):
        Params(dt=0.0)
    with pytest.raises(ValueError):
        Params(max_steps=0)


_NUMERIC_FIELDS = [f.name for f in fields(Params) if f.name not in ("algorithm", "bounds")]


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("name", _NUMERIC_FIELDS)
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        Params(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("max_iters", 2.5), ("max_steps", 100.0), ("max_iters", True), ("max_steps", False),
    ("kp", True), ("k_att", False), ("inflation", True), ("dt", "0.1"),
])
def test_params_reject_wrong_types(name, value):
    # as the loader does: ints for int fields, numbers but not bools for floats
    sc = load_scenario(SCENARIOS / "head_on_duel.json")
    with pytest.raises(ValueError, match=rf"^{name} must be an? (integer|number), got"):
        run(sc, replace(sc.sim, **{name: value}), 1)


def test_params_accept_ints_for_float_fields():
    p = Params(kp=1, k_att=8, inflation=0)
    assert (p.kp, p.k_att, p.inflation) == (1.0, 8.0, 0.0)
    assert type(p.kp) is type(p.k_att) is type(p.inflation) is float


@pytest.mark.parametrize("name", ["kp", "inflation", "uav_radius"])
def test_params_reject_an_int_too_large_for_a_float(name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        Params(**{name: 10**400})


def test_params_take_none_only_for_inflation():
    assert Params(inflation=None).inflation == Params().uav_radius
    with pytest.raises(ValueError, match="^kp must be a number, got None"):
        Params(kp=None)


def test_non_finite_gain_rejected_before_the_run():
    sc = load_scenario(SCENARIOS / "head_on_duel.json")
    with pytest.raises(ValueError, match="k_att must be finite"):
        replace(sc.sim, k_att=math.inf, algorithm="apf")


def test_default_uav_radius():
    assert Params().uav_radius == 12.0


class TestOneTable:
    def test_public_names_are_one_name_each(self):
        names = utm_sim.__all__
        assert len(set(names)) == len(names)
        objects = [getattr(utm_sim, name) for name in names]  # every name resolves
        assert len({id(obj) for obj in objects}) == len(names)  # no second name for one object

    def test_no_second_table_in_world_or_scenario(self):
        assert [f.name for f in fields(Scenario)] == ["name", "rectangles", "uavs", "sim"]
        assert not [name for name, v in vars(Scenario).items() if isinstance(v, property)]
        # no body radius per vehicle and no circle object with its own radius
        assert [f.name for f in fields(UavState)] == [
            "id", "position", "velocity", "path", "waypoint_index", "arrived"]
        field = ObstacleField([RectObstacle(Vec2(0.0, 0.0), 30.0, 15.0, "r")], P)
        assert all(type(t.position) is Vec2 for _, ring, _ in field.rings for t in ring)

    def test_circle_threats_are_built_once(self):
        # two UAVs at two steps get the very same circle threats: each circle's
        # id and combined radius are formed once, when the field is built
        rect = RectObstacle(Vec2(200.0, 200.0), 30.0, 30.0, "r")
        params = Params(uav_radius=9.0, obstacle_circle_radius=5.0, circle_spacing=8.0)
        uavs, field = make_world([make_uav("a", Vec2(180.0, 178.0), [Vec2(100.0, 178.0)]),
                                  make_uav("b", Vec2(178.0, 192.0), [Vec2(100.0, 192.0)])],
                                 [rect], params)
        first = gather_threats(uavs[0], uavs, field, params)
        step(uavs, field, params, params.dt)
        second = gather_threats(uavs[1], uavs, field, params)
        circles = [t for t in first + second if t.source_id.startswith("r#")]
        shared = ({t.source_id for t in first} & {t.source_id for t in second}) - {"a", "b"}
        assert shared
        built = {t.source_id: t for _, ring, _ in field.rings for t in ring}
        assert all(t is built[t.source_id] for t in circles)
        for k, c in enumerate(discretize_rectangle(rect, params)):
            assert built[f"r#{k}"] == Threat(c, Vec2(0.0, 0.0), 9.0 + 5.0, f"r#{k}")

    def test_parked_uav_threat_is_built_once(self):
        # two observers at two steps get the very same threat for a parked
        # UAV, as for a circle: it is formed once, when first seen parked
        parked = make_uav("p", Vec2(200.0, 200.0), [Vec2(200.0, 200.0)], arrived=True)
        uavs, field = make_world([make_uav("a", Vec2(180.0, 200.0), [Vec2(100.0, 200.0)]),
                                  make_uav("b", Vec2(200.0, 230.0), [Vec2(200.0, 300.0)]),
                                  parked])
        first = gather_threats(uavs[0], uavs, field, P)
        step(uavs, field, P, P.dt)
        second = gather_threats(uavs[1], uavs, field, P)
        (t1,) = [t for t in first if t.source_id == "p"]
        (t2,) = [t for t in second if t.source_id == "p"]
        assert uavs[2] is parked and t1 is t2 is field.parked["p"]
        assert t1 == Threat(parked.position, Vec2(0.0, 0.0), 24.0, "p")
        # the threat holds the state's position and velocity objects: a copy
        # of the state keeps it, a new position object, even an equal one, not
        a = uavs[0]
        assert gather_threats(a, [a, replace(parked)], field, P)[0] is t1
        third = gather_threats(a, [a, replace(parked, position=Vec2(200.0, 200.0))],
                               field, P)
        assert third == [t1] and third[0] is not t1

    def test_run_report_holds_only_what_build_report_measures(self):
        # algorithm, completed and steps are read from the SimResult, and the
        # collision and empty-set counts from event_counts
        assert [f.name for f in fields(RunReport)] == [
            "path_lengths", "pair_min_distances", "pair_distances", "event_counts"]

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
        uavs, field = build_world(replace(sc, sim=params), plan_paths(sc, 1))
        circles = [t for _, ring, _ in field.rings for t in ring]
        # 30 m edges at spacing 8: four circles per edge, each of radius 9 + 5
        assert len(circles) == 16
        assert {t.combined_radius for t in circles} == {14.0}
        # a UAV between the body of another and the rectangle's left edge
        u = replace(uavs[0], position=Vec2(175.0, 100.0))
        other = replace(uavs[0], id="u2", position=Vec2(165.0, 100.0))
        threats = gather_threats(u, [u, other], field, params)
        assert {t.source_id: t.combined_radius for t in threats
                if t.source_id in ("u2", "r#0")} == {"u2": 18.0, "r#0": 14.0}

    def test_kp_on_the_run_table_steers_vo(self):
        sc = load_scenario(SCENARIOS / "head_on_duel.json")
        slow = run(sc, replace(sc.sim, algorithm="vo"), seed=1)
        fast = run(sc, replace(sc.sim, algorithm="vo", kp=0.6), seed=1)
        for res, kp in ((slow, 0.2), (fast, 0.6)):
            a0, a1 = (row[0] for row in res.states[:2])
            assert a0.id == a1.id == "a"
            wp = plan_paths(sc, 1)["a"][1]
            assert a1.velocity == Vec2(kp * (wp.x - a0.position.x), kp * (wp.y - a0.position.y))
        assert slow.completed and fast.completed
        assert fast.steps < slow.steps

    def test_dt_on_the_run_table_sets_the_apf_step(self):
        sc = load_scenario(SCENARIOS / "head_on_duel.json")
        res = run(sc, replace(sc.sim, algorithm="apf", dt=0.05, max_steps=1), seed=1)
        assert res.params.dt == 0.05 and res.steps == 1  # the second state is at t = 0.05
        for first, second in zip(*res.states):
            assert distance(first.position, second.position) == pytest.approx(0.05 * 8.0)
            assert second.velocity.norm() == pytest.approx(8.0)  # k_att: moved dt * k_att

    def test_apf_reads_activation_range_from_the_run_table(self):
        def first_move(params):
            a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
            b = make_uav("b", Vec2(0.0, 40.0), [Vec2(0.0, 40.0)], arrived=True)
            uavs, field = make_world([a, b])
            step(uavs, field, params, t=params.dt)
            return uavs[0].position

        assert first_move(Params(algorithm="apf", dist_uav=30.0)) == Vec2(0.8, 0.0)
        pushed = first_move(Params(algorithm="apf"))  # b at 40 < 50 repels a
        assert pushed.y < 0.0


class TestUavState:
    def test_validation(self):
        with pytest.raises(ValueError):
            Params(uav_radius=0.0)
        with pytest.raises(ValueError):
            make_uav("a", Vec2(0, 0), [Vec2(1, 1)], wp_index=1)
        with pytest.raises(ValueError):  # step passes parked states through as they are
            make_uav("a", Vec2(0, 0), [Vec2(1, 1)], vel=Vec2(3.0, -4.0), arrived=True)

    def test_current_waypoint(self):
        u = make_uav("a", Vec2(0, 0), [Vec2(1, 1), Vec2(2, 2)], wp_index=1)
        assert u.current_waypoint() == Vec2(2, 2)


class TestAssignWaypoint:
    def test_far_from_waypoint_unchanged(self):
        u = make_uav("a", Vec2(0.0, 0.0), [Vec2(15.0, 0.0), Vec2(30.0, 0.0)])
        assert assign_waypoint(u, P) is u

    def test_advances_one_waypoint(self):
        u = make_uav("a", Vec2(0.0, 0.0), [Vec2(5.0, 0.0), Vec2(6.0, 0.0), Vec2(30.0, 0.0)])
        nxt = assign_waypoint(u, P)
        assert nxt.waypoint_index == 1  # exactly one advance per call
        assert not nxt.arrived
        assert nxt.position == u.position

    def test_arrival_at_last_waypoint_parks(self):
        u = make_uav("a", Vec2(29.0, 0.0), [Vec2(5.0, 0.0), Vec2(30.0, 0.0)],
                     vel=Vec2(3.0, 0.0), wp_index=1)
        nxt = assign_waypoint(u, P)
        assert nxt.arrived
        assert nxt.velocity == Vec2(0.0, 0.0)
        assert nxt.waypoint_index == 1

    def test_threshold_is_strict(self):
        u = make_uav("a", Vec2(0.0, 0.0), [Vec2(10.0, 0.0), Vec2(30.0, 0.0)])
        assert assign_waypoint(u, P) is u  # exactly dist_wp away: no advance

    def test_arrived_passthrough(self):
        u = make_uav("a", Vec2(0.0, 0.0), [Vec2(0.0, 1.0)], arrived=True)
        assert assign_waypoint(u, P) is u


class TestGatherThreats:
    def test_activation_distance_strict(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        b = make_uav("b", Vec2(50.0, 0.0), [Vec2(0.0, 0.0)])
        c = make_uav("c", Vec2(49.0, 0.0), [Vec2(0.0, 0.0)])
        field = ObstacleField([], P)
        threats = gather_threats(a, [a, b, c], field, P)
        assert [t.source_id for t in threats] == ["c"]  # b at exactly 50 is out

    def test_canonical_order_distance_kind_id(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        # two UAVs at identical distance, plus obstacle circles
        b = make_uav("b", Vec2(30.0, 0.0), [Vec2(0.0, 0.0)])
        d = make_uav("d", Vec2(-30.0, 0.0), [Vec2(0.0, 0.0)])
        rect = RectObstacle(Vec2(0.0, 18.0), 15.0, 15.0, "r1")  # corners 10.5 away-ish
        field = ObstacleField([rect], P)
        threats = gather_threats(a, [a, d, b], field, P)
        ids = [t.source_id for t in threats]
        # nearest first: the two bottom rect corners (distance ~12.9), then b/d
        dists = [distance(a.position, t.position) for t in threats]
        assert dists == sorted(dists)
        assert ids[-2:] == ["b", "d"]  # id tie-break at 30.0
        assert all(sid.startswith("r1#") for sid in ids[:-2])  # circle ids carry `#`

    def test_uav_before_obstacle_on_distance_tie(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        # obstacle circle corner exactly at (12.5, 0): put a uav at same distance
        rect = RectObstacle(Vec2(20.0, 0.0), 15.0, 15.0, "r1")
        field = ObstacleField([rect], P)
        b = make_uav("b", Vec2(0.0, math.hypot(12.5, 7.5)), [Vec2(0.0, 0.0)])
        threats = gather_threats(a, [a, b], field, P)
        tied = [t for t in threats
                if distance(a.position, t.position) == math.hypot(12.5, 7.5)]
        # a circle's id is "<rect id>#<k>"; a UAV's id has no `#`
        assert ["#" in t.source_id for t in tied] == [False, True, True]
        assert tied[0].source_id == "b"

    def test_combined_radius_and_self_exclusion(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        b = make_uav("b", Vec2(20.0, 0.0), [Vec2(0.0, 0.0)])
        params = Params(uav_radius=8.5)
        threats = gather_threats(a, [a, b], ObstacleField([], params), params)
        assert len(threats) == 1
        assert threats[0].combined_radius == 17.0
        assert threats[0].velocity == b.velocity

    def test_arrived_uavs_still_threats(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        b = make_uav("b", Vec2(20.0, 0.0), [Vec2(20.0, 0.0)], arrived=True)
        threats = gather_threats(a, [a, b], ObstacleField([], P), P)
        assert [t.source_id for t in threats] == ["b"]

    def test_rect_prefilter_does_not_hide_circles(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        near = RectObstacle(Vec2(25.0, 0.0), 20.0, 20.0, "near")  # face at x=15
        far = RectObstacle(Vec2(200.0, 0.0), 20.0, 20.0, "far")
        field = ObstacleField([near, far], P)
        threats = gather_threats(a, [a], field, P)
        assert threats  # left corners of `near` are 18.0 away
        assert all(t.source_id.startswith("near#") for t in threats)
        for t in threats:
            assert distance(a.position, t.position) < 20.0


class TestDetectCollisions:
    def test_uav_uav_strict_inequality(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(1.0, 1.0)])
        b = make_uav("b", Vec2(24.0, 0.0), [Vec2(1.0, 1.0)])
        assert detect_collisions([a, b], [], P, 0.0) == []
        c = make_uav("c", Vec2(23.999, 0.0), [Vec2(1.0, 1.0)])
        events = detect_collisions([a, c], [], P, 1.5)
        assert len(events) == 1
        ev = events[0]
        assert ev.kind == "uav_uav_collision"
        assert ev.t == 1.5
        assert ev.details["a"] == "a" and ev.details["b"] == "c"

    def test_uav_rect_ground_truth(self):
        rect = RectObstacle(Vec2(50.0, 50.0), 20.0, 20.0, "r")
        inside = make_uav("a", Vec2(50.0, 50.0), [Vec2(1.0, 1.0)])
        events = detect_collisions([inside], [rect], P, 0.0)
        assert [e.kind for e in events] == ["uav_obstacle_collision"]
        near = make_uav("a", Vec2(72.5, 50.0), [Vec2(1.0, 1.0)])  # 12.5 > 12 clear
        assert detect_collisions([near], [rect], P, 0.0) == []
        grazing = make_uav("a", Vec2(71.9, 50.0), [Vec2(1.0, 1.0)])  # 11.9 < 12
        assert len(detect_collisions([grazing], [rect], P, 0.0)) == 1

    def test_event_order_independent_of_world_order(self):
        rect = RectObstacle(Vec2(0.0, 40.0), 30.0, 30.0, "r")
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(1.0, 1.0)])
        b = make_uav("b", Vec2(10.0, 0.0), [Vec2(1.0, 1.0)])
        c = make_uav("c", Vec2(0.0, 20.0), [Vec2(1.0, 1.0)])
        ev1 = detect_collisions([a, b, c], [rect], P, 0.0)
        ev2 = detect_collisions([c, b, a], [rect], P, 0.0)
        assert ev1 == ev2
        assert len(ev1) >= 2  # a-b overlap plus c against the rect


def oracle_assign_waypoint(state, params):
    """assign_waypoint without the axis-gap exit."""
    if state.arrived or distance(state.position, state.current_waypoint()) >= params.dist_wp:
        return state
    if state.waypoint_index + 1 < len(state.path):
        return replace(state, waypoint_index=state.waypoint_index + 1)
    return replace(state, arrived=True, velocity=Vec2(0.0, 0.0))


def oracle_gather_threats(uav, snapshot, obstacles, params):
    """gather_threats without the axis-gap exits or the x-window: every circle
    of every rectangle near enough, numbered in `discretize_rectangle`'s
    perimeter order (`obstacles` must be built from the same `params`)."""
    keyed = []
    for other in snapshot:
        d = distance(uav.position, other.position)
        if other.id != uav.id and d < params.dist_uav:
            keyed.append((d, 0, other.id, Threat(other.position, other.velocity,
                                                 params.uav_radius + params.uav_radius,
                                                 other.id)))
    for rect in obstacles.rectangles:
        if point_rect_distance(uav.position, rect) >= params.dist_obs:
            continue
        for k, c in enumerate(discretize_rectangle(rect, params)):
            d = distance(uav.position, c)
            if d < params.dist_obs:
                sid = f"{rect.id}#{k}"
                keyed.append((d, 1, sid, Threat(
                    c, Vec2(0.0, 0.0), params.uav_radius + params.obstacle_circle_radius, sid)))
    keyed.sort(key=lambda item: item[:3])
    return [item[3] for item in keyed]


def oracle_detect_collisions(uavs, rectangles, params, t):
    """detect_collisions without the axis-gap exits."""
    events = []
    uavs = sorted(uavs, key=lambda u: u.id)
    for a, b in combinations(uavs, 2):
        d = distance(a.position, b.position)
        if d < params.uav_radius + params.uav_radius:
            events.append(SimEvent(t, "uav_uav_collision", {"a": a.id, "b": b.id, "distance": d}))
    for u in uavs:
        for rect in rectangles:
            d = point_rect_distance(u.position, rect)
            if d < params.uav_radius:
                events.append(SimEvent(t, "uav_obstacle_collision",
                                       {"uav": u.id, "rect": rect.id, "distance": d}))
    return events


_lattice = st.integers(-320, 320).map(lambda k: k / 4)  # sums of these are exact
_coord = _lattice | st.floats(-80.0, 80.0, allow_nan=False)
_range = (st.integers(1, 12).map(lambda k: 5.0 * k) | st.integers(1, 120).map(lambda k: k / 2)
          | st.floats(0.5, 60.0))
_across = st.just(0.0) | st.integers(-20, 20).map(lambda k: k / 4) | st.floats(-5.0, 5.0)


# Every choice below is drawn from a strategy built once, here; the helpers
# take `draw` and compute the offsets in Python.
_sign = st.sampled_from([1.0, -1.0])
_nudge = st.sampled_from(["on", "inside", "outside"])
_how = st.sampled_from(["tie_x", "tie_y", "diagonal", "free"])
_triple = st.sampled_from([(3, 4, 5), (4, 3, 5), (5, 12, 13), (8, 15, 17)])
_side = st.integers(1, 80).map(lambda k: k / 2) | st.floats(0.5, 40.0)
_radius = st.sampled_from([12.0, 0.5, 7.25])
_wall_width = st.integers(40, 160).map(lambda k: 2.5 * k) | st.floats(100.0, 400.0)
_wall_height = st.integers(1, 80).map(lambda k: k / 2)
_n_rects, _n_near = st.integers(0, 3), st.integers(0, 5)
_parked = st.sampled_from([False, False, True])


@lru_cache(maxsize=None)
def _index(n):
    """`st.integers(0, n - 1)`, built once per n: the choice `st.sampled_from` makes among n."""
    return st.integers(0, n - 1)


def _pick(draw, items):
    return items[draw(_index(len(items)))]


def _offset(draw, base, gaps):
    """base +- gap for one gap in `gaps`, or the float just inside or outside it."""
    sign = draw(_sign)
    target = base + sign * _pick(draw, gaps)
    nudge = draw(_nudge)
    if nudge == "on":
        return target
    return math.nextafter(target, base if nudge == "inside" else sign * math.inf)


def _near_point(draw, anchor, gaps):
    """A point about a gap from `anchor`: exactly at, just inside or just
    outside +-gap along one axis, on a Pythagorean diagonal (distance exactly
    gap whenever gap / c is exact), or a free point."""
    how = draw(_how)
    if how == "free":
        return Vec2(draw(_coord), draw(_coord))
    if how == "diagonal":
        a, b, c = draw(_triple)
        g = _pick(draw, gaps) / c
        sx, sy = draw(_sign), draw(_sign)
        return Vec2(anchor.x + sx * a * g, anchor.y + sy * b * g)
    if how == "tie_x":
        return Vec2(_offset(draw, anchor.x, gaps), anchor.y + draw(_across))
    return Vec2(anchor.x + draw(_across), _offset(draw, anchor.y, gaps))


def _rect_and_edge_points(draw, index, gaps):
    """A rectangle plus points on its edges and about `gap` off its faces."""
    rect = RectObstacle(Vec2(draw(_lattice), draw(_lattice)), draw(_side), draw(_side),
                        f"r{index}")
    xs = (rect.min_x, rect.max_x, rect.center.x)
    ys = (rect.min_y, rect.max_y, rect.center.y)
    return rect, [Vec2(_pick(draw, xs), _pick(draw, ys))] + [
        Vec2(_offset(draw, _pick(draw, xs), gaps), _pick(draw, ys)) for _ in range(2)
    ] + [
        Vec2(_pick(draw, xs), _offset(draw, _pick(draw, ys), gaps)) for _ in range(2)
    ]


@st.composite
def _scenes(draw):
    dist_uav, dist_obs, dist_wp = draw(_range), draw(_range), draw(_range)
    radius = draw(_radius)
    params = Params(dist_uav=dist_uav, dist_obs=dist_obs, dist_wp=dist_wp, uav_radius=radius)
    gaps = [dist_uav, dist_obs, dist_wp, radius, 2.0 * radius]
    me = Vec2(draw(_coord), draw(_coord))
    rects, points = [], [me]
    for i in range(draw(_n_rects)):
        rect, edge_points = _rect_and_edge_points(draw, i, [dist_obs, radius])
        rects.append(rect)
        points.extend(edge_points)
    if draw(st.booleans()):
        # a wall with dozens of circles, and points dist_obs along x from one
        # circle centre, or the float just inside or outside that
        wall = RectObstacle(Vec2(draw(_lattice), draw(_lattice)), draw(_wall_width),
                            draw(_wall_height), "wall")
        rects.append(wall)
        circles = discretize_rectangle(wall, params)
        for _ in range(2):
            c = _pick(draw, circles)
            points.append(Vec2(_offset(draw, c.x, [dist_obs]), c.y + draw(_across)))
    points.extend(_near_point(draw, me, gaps) for _ in range(draw(_n_near)))
    uavs = []
    for i, pos in enumerate(points):
        wp = _near_point(draw, pos, gaps)
        wps = [wp, Vec2(wp.x + 1.0, wp.y)] if draw(st.booleans()) else [wp]
        if draw(_parked):
            uavs.append(make_uav(f"u{i}", pos, wps, arrived=True))
        else:
            uavs.append(make_uav(f"u{i}", pos, wps, vel=Vec2(draw(_coord), draw(_coord))))
    return uavs, ObstacleField(rects, params), params


class TestAxisGapExitsMatchOracle:
    """The axis-gap exits change nothing: exact lists and floats, ties included."""

    @settings(max_examples=400, deadline=None)
    @given(scene=_scenes())
    def test_engine_equals_plain_oracle(self, scene):
        uavs, field, params = scene
        for u in uavs:
            got, want = assign_waypoint(u, params), oracle_assign_waypoint(u, params)
            assert got == want and (got is u) == (want is u)
            assert (gather_threats(u, uavs, field, params)
                    == oracle_gather_threats(u, uavs, field, params))
        rects = field.rectangles
        assert (detect_collisions(uavs, rects, params, 1.0)
                == oracle_detect_collisions(uavs, rects, params, 1.0))

    def test_gap_equal_to_range_is_out_and_just_inside_is_in(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        on = make_uav("b", Vec2(0.0, -24.0), [Vec2(0.0, 0.0)])
        inside = make_uav("c", Vec2(math.nextafter(24.0, 0.0), 0.0), [Vec2(0.0, 0.0)])
        rect = RectObstacle(Vec2(-30.0, 0.0), 12.0, 12.0, "r")  # max_x = -24
        # b and the rect sit exactly 24 away along one axis, c just inside 24
        uavs = [a, on, inside]
        params = Params(dist_uav=24.0, dist_obs=24.0)
        threats = gather_threats(a, uavs, ObstacleField([rect], params), params)
        assert [t.source_id for t in threats] == ["c"]
        assert (detect_collisions(uavs, [rect], P, 0.0)
                == oracle_detect_collisions(uavs, [rect], P, 0.0))
        assert [e.details["b"] for e in detect_collisions(uavs, [rect], P, 0.0)] == ["c"]


class TestParkedScanMatchesOracle:
    """The collision scan keeps nothing between calls: parked or moving, listed
    in any order or twice, every call equals the plain oracle."""

    @settings(max_examples=60, deadline=None)
    @given(scene=_scenes(), data=st.data())
    def test_repeated_scans_equal_plain_oracle(self, scene, data):
        # between scans the moving UAVs move and some park, a parked state
        # may be replaced by one parked elsewhere, and the list's order may
        # change; every other parked state stays the same object
        uavs, field, params = scene
        uavs, rects = list(uavs), field.rectangles
        for k in range(4):
            t = float(k)
            assert (detect_collisions(uavs, rects, params, t)
                    == oracle_detect_collisions(uavs, rects, params, t))
            if k % 2:
                continue
            for i, u in enumerate(uavs):
                if u.arrived and not data.draw(_parked):
                    continue
                pos = data.draw(st.sampled_from(uavs)).position if data.draw(
                    st.booleans()) else Vec2(data.draw(_coord), data.draw(_coord))
                uavs[i] = replace(u, position=pos, velocity=Vec2(0.0, 0.0),
                                  arrived=u.arrived or data.draw(_parked))
            uavs = data.draw(st.permutations(uavs))

    def test_overlapping_parked_uavs_are_reported_every_step(self):
        # a and c parked on each other, d parked on the rectangle, b and e
        # moving through them; ids interleave, and the list is not in id order
        rect = RectObstacle(Vec2(200.0, 100.0), 20.0, 20.0, "r")
        a = make_uav("a", Vec2(100.0, 100.0), [Vec2(100.0, 100.0)], arrived=True)
        c = make_uav("c", Vec2(110.0, 100.0), [Vec2(110.0, 100.0)], arrived=True)
        d = make_uav("d", Vec2(185.0, 100.0), [Vec2(185.0, 100.0)], arrived=True)
        b = make_uav("b", Vec2(105.0, 108.0), [Vec2(105.0, 300.0)])
        e = make_uav("e", Vec2(195.0, 85.0), [Vec2(195.0, -100.0)])
        params = Params(algorithm="apf")
        uavs, field = make_world([e, c, b, a, d], [rect], params)
        for k in range(1, 21):
            t = k * params.dt
            events = step(uavs, field, params, t)
            got = [ev for ev in events if ev.kind.endswith("_collision")]
            assert got == oracle_detect_collisions(uavs, [rect], params, t)
            assert {"a", "c"} <= {ev.details.get("a") for ev in got} | {
                ev.details.get("b") for ev in got}
            assert ("d", "r") in {(ev.details.get("uav"), ev.details.get("rect")) for ev in got}
        assert [u.arrived for u in uavs] == [False, True, False, True, True]

    def test_a_state_listed_twice_is_scanned_as_listed(self):
        rect = RectObstacle(Vec2(0.0, 0.0), 10.0, 10.0, "r")
        a = make_uav("a", Vec2(0.0, 8.0), [Vec2(50.0, 8.0)])
        p = make_uav("a", Vec2(5.0, 0.0), [Vec2(5.0, 0.0)], arrived=True)
        for uavs in ([a, p, a], [p, a, p], [p, p]):
            for t in (0.0, 1.0):
                assert (detect_collisions(uavs, [rect], P, t)
                        == oracle_detect_collisions(uavs, [rect], P, t))


class TestCircleWindow:
    """gather_threats visits only a ring's circles inside the x-window; its
    edges are the exact `dx` tests, down to the last ulp."""

    # 360 x 30 around the origin: 52 circles, the bottom edge at y = -15 with
    # centres -180 + 15 k for k = 0..24
    WALL = RectObstacle(Vec2(0.0, 0.0), 360.0, 30.0, "w")

    def _ids(self, px):
        uav = make_uav("a", Vec2(px, -15.0), [Vec2(0.0, -100.0)])
        field = ObstacleField([self.WALL], P)
        got = gather_threats(uav, [uav], field, P)
        assert got == oracle_gather_threats(uav, [uav], field, P)
        return [t.source_id for t in got]

    @pytest.mark.parametrize("cx, far, near", [(135.0, "w#21", ["w#20", "w#19"]),
                                               (-135.0, "w#3", ["w#4", "w#5"])])
    def test_circle_range_away_along_x(self, cx, far, near):
        # the UAV 20 m short of a circle centre along x, then 1 ulp nearer
        # and 1 ulp farther; 115 + 20 rounds back to 135, so a window taken
        # from a precomputed px + 20 would drop the circle 1 ulp inside
        px = cx - math.copysign(20.0, cx)
        assert abs(cx - px) == 20.0
        assert self._ids(px) == near
        assert self._ids(math.nextafter(px, cx)) == near + [far]
        assert self._ids(math.nextafter(px, -cx)) == near

    def test_every_bottom_circle_at_either_window_edge(self):
        ring = {t.source_id: t.position for t in ObstacleField([self.WALL], P).rings[0][1]}
        assert len(ring) == 52
        for k in range(25):
            cx = ring[f"w#{k}"].x
            for side in (1.0, -1.0):
                # px with the computed gap side * (cx - px) at 20, then the
                # nearest floats that put it below and above 20
                def gap(p):
                    return side * (cx - p)

                px = step_until(cx - side * 20.0, cx, lambda p: gap(p) <= 20.0)
                px = step_until(px, -side * math.inf, lambda p: gap(p) >= 20.0)
                assert gap(px) == 20.0
                assert f"w#{k}" not in self._ids(px)
                assert f"w#{k}" in self._ids(step_until(px, cx, lambda p: gap(p) < 20.0))
                assert f"w#{k}" not in self._ids(
                    step_until(px, -side * math.inf, lambda p: gap(p) > 20.0))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dist_obs=_range, side=_sign, ulps=st.integers(-2, 2),
           across=_across)
    def test_threshold_on_a_centre_x_equals_the_full_scan(self, data, dist_obs, side, ulps,
                                                          across):
        # px - dist_obs or px + dist_obs, the point each end's bisection
        # starts from, lands exactly on a centre x (then moved a few ulps)
        wall = RectObstacle(Vec2(data.draw(_lattice), data.draw(_lattice)),
                            data.draw(_wall_width), data.draw(_wall_height), "w")
        params = Params(dist_obs=dist_obs)
        field = ObstacleField([wall], params)
        c = _pick(data.draw, field.rings[0][1]).position
        px = c.x + side * dist_obs
        px = step_until(px, math.inf, lambda p: p - side * dist_obs >= c.x)
        px = step_until(px, -math.inf, lambda p: p - side * dist_obs <= c.x)
        for _ in range(abs(ulps)):
            px = math.nextafter(px, ulps * math.inf)
        uav = make_uav("a", Vec2(px, c.y + across), [Vec2(0.0, -100.0)])
        assert (gather_threats(uav, [uav], field, params)
                == oracle_gather_threats(uav, [uav], field, params))


def step_until(x, toward, done):
    """x, or the first float stepped from x toward `toward` that is `done`."""
    while not done(x):
        x = math.nextafter(x, toward)
    return x


class TestStep:
    def test_free_space_velocity_and_position(self):
        u = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        uavs, field = make_world([u])
        events = step(uavs, field, Params(), t=0.1)
        assert events == []
        moved = uavs[0]
        assert moved.velocity == Vec2(20.0, 0.0)  # kp * (wp - pos)
        assert moved.position == Vec2(2.0, 0.0)  # dt * velocity
        assert not moved.arrived

    def test_waypoint_advance_event_then_motion_toward_new_target(self):
        u = make_uav("a", Vec2(0.0, 0.0), [Vec2(5.0, 0.0), Vec2(0.0, 50.0)])
        uavs, field = make_world([u])
        events = step(uavs, field, Params(), t=0.1)
        assert [e.kind for e in events] == ["waypoint_advanced"]
        assert events[0].details == {"uav": "a", "waypoint_index": 1}
        # motion this same step already aims at the new waypoint
        moved = uavs[0]
        assert moved.velocity == Vec2(0.0, 10.0)

    def test_arrival_parks_uav(self):
        u = make_uav("a", Vec2(99.0, 0.0), [Vec2(100.0, 0.0)])
        uavs, field = make_world([u])
        events = step(uavs, field, Params(), t=0.1)
        assert [e.kind for e in events] == ["arrived"]
        parked = uavs[0]
        assert parked.arrived
        assert parked.position == Vec2(99.0, 0.0)
        assert parked.velocity == Vec2(0.0, 0.0)
        # subsequent steps leave it exactly in place
        assert step(uavs, field, Params(), t=0.2) == []
        assert uavs[0].position == Vec2(99.0, 0.0)

    def test_permutation_invariance_of_interacting_pair(self):
        def build(order):
            a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)], vel=Vec2(20.0, 0.0))
            b = make_uav("b", Vec2(40.0, 0.0), [Vec2(-60.0, 0.0)], vel=Vec2(-20.0, 0.0))
            return make_world([a, b] if order == "ab" else [b, a])

        (u1, f1), (u2, f2) = build("ab"), build("ba")
        params = Params()
        for i in range(1, 120):
            e1 = step(u1, f1, params, t=i * params.dt)
            e2 = step(u2, f2, params, t=i * params.dt)
            assert e1 == e2
            s1 = {u.id: u for u in u1}
            s2 = {u.id: u for u in u2}
            assert s1 == s2  # bitwise identical per-id states

    def test_vo_engages_on_conflict(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        b = make_uav("b", Vec2(40.0, 0.0), [Vec2(40.0, 0.0)], arrived=True)
        uavs, field = make_world([a, b])
        step(uavs, field, Params(), t=0.1)
        moved = {u.id: u for u in uavs}["a"]
        assert moved.velocity != Vec2(20.0, 0.0)  # had to deviate

    def test_empty_feasible_set_event(self):
        a = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        b = make_uav("b", Vec2(10.0, 0.0), [Vec2(200.0, 0.0)], vel=Vec2(0.0, 0.0))
        c = make_uav("c", Vec2(-10.0, 0.0), [Vec2(200.0, 0.0)], vel=Vec2(30.0, 0.0))
        uavs, field = make_world([a, b, c])
        events = step(uavs, field, Params(), t=0.1)
        empty = [e for e in events if e.kind == "empty_feasible_set"]
        assert any(e.details["uav"] == "a" for e in empty)
        moved = {u.id: u for u in uavs}["a"]
        assert moved.position == Vec2(0.0, 0.0)  # hovered

    def test_apf_algorithm_velocity_is_displacement_rate(self):
        u = make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)])
        uavs, field = make_world([u])
        step(uavs, field, Params(algorithm="apf"), t=0.1)
        moved = uavs[0]
        assert moved.position == Vec2(0.8, 0.0)  # dt * k_att
        assert moved.velocity.x == pytest.approx(8.0)
        assert moved.velocity.y == 0.0

    def test_apf_velocity_is_the_commanded_force(self):
        # inputs where (new_pos - pos) / dt differs from the force in the last
        # bit, so the recorded velocity must be the command itself
        a = make_uav("a", Vec2(0.3, 0.7), [Vec2(100.0, 37.0)])
        b = make_uav("b", Vec2(30.0, 10.0), [Vec2(-50.0, 10.0)])
        uavs, field = make_world([a, b])
        params = Params(algorithm="apf")
        before = tuple(uavs)
        step(uavs, field, params, t=params.dt)
        for u, moved in zip(before, uavs):
            threats = gather_threats(u, before, field, params)
            assert threats  # a and b repel each other
            v = apf_step(u, threats, params)
            assert moved.velocity == v
            assert moved.position == Vec2(u.position.x + params.dt * v.x,
                                          u.position.y + params.dt * v.y)

    @pytest.mark.parametrize("algorithm", ("vo", "apf"))
    def test_parked_uav_passes_through_unchanged(self, algorithm):
        parked = make_uav("p", Vec2(20.0, 0.0), [Vec2(20.0, 0.0)], arrived=True)
        uavs, field = make_world([make_uav("a", Vec2(0.0, 0.0), [Vec2(100.0, 0.0)]), parked])
        step(uavs, field, Params(algorithm=algorithm), t=0.1)
        assert uavs[1] is parked


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
        result = run(scenario, Params(), seed=3)
        assert result.completed
        assert result.params == Params()
        assert 0 < result.steps < 2000
        samples = [u for (u,) in result.states]
        assert len(samples) == result.steps + 1
        assert samples[0].id == "u1"
        assert samples[0].position == Vec2(20.0, 200.0)
        assert samples[0].velocity == Vec2(0.0, 0.0)
        # ends within dist_wp of the goal region center it was steering to
        final = samples[-1].position
        assert distance(final, Vec2(120.0, 200.0)) < 10.0 + 10.0  # goal_radius + dist_wp

    def test_history_contract(self):
        """What export and metrics rely on: a parked UAV's state is one object
        from the step it arrives on, and steps and completed are read off the
        states."""
        sc = load_scenario(SCENARIOS / "corner_corridor.json")
        result = run(sc, replace(sc.sim, algorithm="apf"), seed=1)
        ids = [u.id for u in sc.uavs]
        assert all([u.id for u in row] == ids for row in result.states)
        assert result.steps == len(result.states) - 1
        assert result.completed == all(u.arrived for u in result.states[-1])
        arrived_at = {e.details["uav"]: e.t for e in result.events if e.kind == "arrived"}
        assert arrived_at
        for column in zip(*result.states):
            k = next((k for k, u in enumerate(column) if u.arrived), None)
            if k is None:
                assert column[0].id not in arrived_at
                continue
            assert arrived_at[column[0].id] == k * result.params.dt
            assert all(u is column[k] for u in column[k:])

    def test_time_axis_uniform(self, tmp_path):
        scenario = make_scenario([UavSpec("u1", Vec2(20.0, 200.0), Vec2(120.0, 200.0))])
        result = run(scenario, Params(), seed=3)
        export_result(result, build_report(result), tmp_path)
        lines = (tmp_path / "trajectories.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(lines) == result.steps + 1
        for i, line in enumerate(lines):
            assert line.split(",")[0] == "%.6f" % (i * 0.1)

    def test_initial_overlap_detected_at_t0(self):
        # with no inflation a start may lie 10 m from a rectangle, within the
        # 12 m body: the scenario is valid, and the body overlaps it at t = 0
        scenario = make_scenario([UavSpec("u1", Vec2(170.0, 200.0), Vec2(20.0, 200.0))],
                                 rects=[RectObstacle(Vec2(200.0, 200.0), 40.0, 40.0, "r")],
                                 inflation=0.0, max_steps=5)
        result = run_planned(scenario, scenario.sim, plan_paths(scenario, 3))
        t0 = [e for e in result.events if e.t == 0.0]
        assert t0 == [SimEvent(0.0, "uav_obstacle_collision",
                               {"uav": "u1", "rect": "r", "distance": 10.0})]

    def test_max_steps_cutoff(self):
        scenario = make_scenario([UavSpec("u1", Vec2(20.0, 200.0), Vec2(380.0, 200.0))])
        result = run(scenario, Params(max_steps=7), seed=3)
        assert not result.completed
        assert result.steps == 7
        assert len(result.states) == 8

    def test_max_steps_bounds_the_loop_exactly(self):
        # k is the step on which the last UAV arrives: a limit of k still
        # completes the run, one less stops it a step short
        sc = load_scenario(SCENARIOS / "head_on_duel.json")
        paths = plan_paths(sc, 1)
        full = run_planned(sc, sc.sim, paths)
        k = next(k for k, row in enumerate(full.states) if all(u.arrived for u in row))
        assert k == full.steps
        exact = run_planned(sc, replace(sc.sim, max_steps=k), paths)
        assert exact.completed and exact.steps == k
        assert exact.states == full.states and exact.events == full.events
        short = run_planned(sc, replace(sc.sim, max_steps=k - 1), paths)
        assert not short.completed and len(short.states) == k
        assert short.states == full.states[:k]

    def test_identical_runs_identical_results(self):
        scenario = make_scenario(
            [UavSpec("u1", Vec2(20.0, 20.0), Vec2(380.0, 380.0)),
             UavSpec("u2", Vec2(380.0, 20.0), Vec2(20.0, 380.0))],
            rects=[RectObstacle(Vec2(200.0, 200.0), 60.0, 60.0, "mid")],
        )
        r1 = run(scenario, Params(), seed=11)
        r2 = run(scenario, Params(), seed=11)
        assert r1.states == r2.states
        assert r1.events == r2.events

    def test_run_planned_shares_paths_between_algorithms(self):
        scenario = make_scenario([UavSpec("u1", Vec2(20.0, 200.0), Vec2(200.0, 200.0))])
        paths = plan_paths(scenario, 5)
        r_vo = run_planned(scenario, Params(algorithm="vo"), paths)
        r_apf = run_planned(scenario, Params(algorithm="apf"), paths)
        assert r_vo.completed and r_apf.completed
        assert r_vo.params.algorithm == "vo" and r_apf.params.algorithm == "apf"
        assert r_vo.states[0] == r_apf.states[0]
        assert r_vo.states[0][0].path is r_apf.states[0][0].path is paths["u1"]

    def _parked_pair(self):
        # both UAVs start within goal_radius (10 m) of their goals: the plans
        # are their starts, and the run ends after one step
        return make_scenario([UavSpec("a", Vec2(20.0, 200.0), Vec2(25.0, 200.0)),
                              UavSpec("b", Vec2(300.0, 200.0), Vec2(300.0, 205.0))])

    @staticmethod
    def _no_world(monkeypatch):
        def no_world(*args):
            raise AssertionError("the world was built")

        monkeypatch.setattr(utm_sim.sim_engine, "build_world", no_world)

    def test_run_planned_rejects_a_table_over_the_step_limit(self, monkeypatch):
        scenario = self._parked_pair()
        paths = plan_paths(scenario, 1)
        self._no_world(monkeypatch)
        over = replace(scenario.sim, max_steps=MAX_UAV_STEPS // 2 + 1)
        with pytest.raises(ScenarioError, match=rf"^params: max_steps \* len\(uavs\) = "
                                                rf"{MAX_UAV_STEPS // 2 + 1} \* 2 is more than "
                                                rf"{MAX_UAV_STEPS},"):
            run_planned(scenario, over, paths)

    def test_run_planned_rejects_a_table_over_the_circle_limit(self, monkeypatch):
        sc = load_scenario(SCENARIOS / "corner_corridor.json")
        paths = plan_paths(sc, 1)

        def no_circles(*args):
            raise AssertionError("a circle was built")

        monkeypatch.setattr(utm_sim.obstacle_field, "discretize_rectangle", no_circles)
        with pytest.raises(ScenarioError, match=f"more than {MAX_CIRCLES} boundary circles$"):
            run_planned(sc, replace(sc.sim, circle_spacing=0.005), paths)

    def test_run_planned_rejects_a_table_whose_bodies_overlap(self, monkeypatch):
        # 30 m between the starts, against 2 * 20 m for the table's bodies
        scenario = make_scenario([UavSpec("u1", Vec2(20.0, 200.0), Vec2(120.0, 200.0)),
                                  UavSpec("u2", Vec2(50.0, 200.0), Vec2(120.0, 300.0))])
        paths = plan_paths(scenario, 3)
        self._no_world(monkeypatch)
        with pytest.raises(ScenarioError, match=r"^uavs 'u1' and 'u2' starts are closer than "
                                                r"2 \* uav_radius \(40.0\); the bodies overlap$"):
            run_planned(scenario, Params(max_steps=5, uav_radius=20.0), paths)

    def test_run_planned_runs_a_table_at_the_step_limit(self):
        scenario = self._parked_pair()
        result = run_planned(scenario, replace(scenario.sim, max_steps=MAX_UAV_STEPS // 2),
                             plan_paths(scenario, 1))
        assert result.completed and result.steps == 1


_spot = st.integers(0, 80).map(lambda k: 5.0 * k) | st.floats(0.0, 400.0)


@st.composite
def _documents(draw):
    """A small scenario document; the loader may still reject it."""
    rects = []
    for i in range(draw(st.integers(0, 4))):
        w, h = draw(st.floats(5.0, 120.0)), draw(st.floats(5.0, 120.0))
        rects.append({"id": f"r{i}", "width": w, "height": h,
                      "center": [draw(st.floats(w / 2, 400.0 - w / 2)),
                                 draw(st.floats(h / 2, 400.0 - h / 2))]})
    uavs = [{"id": f"u{i}", "start": [draw(_spot), draw(_spot)],
             "goal": [draw(_spot), draw(_spot)]}
            for i in range(draw(st.integers(1, 4)))]
    params = {"max_steps": draw(st.integers(1, 150)), "max_iters": 400,
              "dist_obs": draw(st.sampled_from([20.0, 35.0])),
              "k_rep": draw(st.sampled_from([15.0, 40.0]))}
    return {"rectangles": rects, "uavs": uavs, "params": params}


def _outcome(scenario, seed):
    """Per algorithm: per-id trajectory bits, steps, completed and the event
    multiset; or PlanningError. Any other exception fails the test."""
    try:
        paths = plan_paths(scenario, seed)
    except PlanningError:
        return PlanningError
    out = {}
    for algo in ("vo", "apf"):
        res = run_planned(scenario, replace(scenario.sim, algorithm=algo), paths)
        out[algo] = (
            {samples[0].id: [(s.position.x.hex(), s.position.y.hex(),
                              s.velocity.x.hex(), s.velocity.y.hex()) for s in samples]
             for samples in zip(*res.states)},
            res.steps, res.completed, sorted(map(repr, res.events)),
        )
    return out


class TestOrderInvariance:
    """Any scenario the loader accepts runs under both controllers, and the
    order in which its file lists UAVs or rectangles changes nothing."""

    @settings(max_examples=40, deadline=None)
    @given(doc=_documents(), seed=st.integers(1, 5), data=st.data())
    def test_shuffled_uavs_and_rectangles(self, doc, seed, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            try:
                scenario = load_scenario(path)
            except ScenarioError:
                return
        want = _outcome(scenario, seed)
        for field in ("uavs", "rectangles"):
            order = data.draw(st.permutations(getattr(scenario, field)), label=field)
            assert _outcome(replace(scenario, **{field: tuple(order)}), seed) == want
