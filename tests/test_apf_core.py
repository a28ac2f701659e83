import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from utm_sim.apf_core import apf_step, attractive_force, repulsive_force
from utm_sim.geom2d import Vec2
from utm_sim.params import Params
from utm_sim.rrt_planner import WaypointPath
from utm_sim.sim_engine import UavState
from utm_sim.vo_core import Threat


def make_state(pos: Vec2, wp: Vec2) -> UavState:
    return UavState(id="a", position=pos, velocity=Vec2(0.0, 0.0),
                    radius=12.0, path=WaypointPath((wp,)))


def test_default_params():
    p = Params()
    assert p.k_att == 8.0
    assert p.k_rep == 15.0
    assert p.dt == 0.1
    assert p.dist_wp == 10.0
    assert p.dist_uav == 50.0
    assert p.dist_obs == 20.0
    with pytest.raises(ValueError):
        Params(k_att=0.0)


class TestForces:
    def test_attractive_3_4_5(self):
        f = attractive_force(Vec2(1.0, 1.0), Vec2(4.0, 5.0), 8.0)
        assert f == Vec2(4.8, 6.4)

    def test_attractive_magnitude_independent_of_distance(self):
        rng = random.Random(4)
        for _ in range(500):
            pos = Vec2(rng.uniform(-100, 100), rng.uniform(-100, 100))
            wp = Vec2(rng.uniform(-100, 100), rng.uniform(-100, 100))
            if pos == wp:
                continue
            f = attractive_force(pos, wp, 8.0)
            assert f.norm() == pytest.approx(8.0, abs=1e-12)
            # points from pos toward wp
            assert f.dot(wp - pos) > 0.0

    def test_repulsive_magnitude_and_direction(self):
        f = repulsive_force(Vec2(0.0, 0.0), Vec2(2.0, 0.0), 15.0)
        assert f == Vec2(-15.0, 0.0)
        rng = random.Random(6)
        for _ in range(500):
            pos = Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50))
            tp = Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50))
            if pos == tp:
                continue
            f = repulsive_force(pos, tp, 15.0)
            assert f.norm() == pytest.approx(15.0, abs=1e-12)
            assert f.dot(pos - tp) > 0.0

    def test_repulsion_antisymmetric_exactly(self):
        rng = random.Random(8)
        for _ in range(300):
            a = Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50))
            b = Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50))
            if a == b:
                continue
            assert repulsive_force(a, b, 15.0) == -repulsive_force(b, a, 15.0)

    def test_degenerate_positions_raise(self):
        with pytest.raises(ValueError):
            attractive_force(Vec2(1.0, 1.0), Vec2(1.0, 1.0), 8.0)
        with pytest.raises(ValueError):
            repulsive_force(Vec2(1.0, 1.0), Vec2(1.0, 1.0), 15.0)


class TestTotalForce:
    """apf_step returns the total force, attraction plus every repulsion,
    as the UAV's velocity command."""

    def test_threat_between_uav_and_waypoint(self):
        # attraction +8, repulsion -15 along the same line: net backward 7
        state = make_state(Vec2(0.0, 0.0), Vec2(10.0, 0.0))
        threats = [Threat(Vec2(2.0, 0.0), Vec2(0.0, 0.0), 24.0, "obstacle", "o")]
        assert apf_step(state, threats, Params()) == Vec2(-7.0, 0.0)

    def test_threat_behind(self):
        state = make_state(Vec2(0.0, 0.0), Vec2(10.0, 0.0))
        threats = [Threat(Vec2(-2.0, 0.0), Vec2(0.0, 0.0), 24.0, "obstacle", "o")]
        v = apf_step(state, threats, Params())
        assert v == Vec2(23.0, 0.0)
        assert v.norm() == 23.0

    def test_superposition(self):
        rng = random.Random(12)
        params = Params()
        pos, wp = Vec2(0.0, 0.0), Vec2(50.0, 20.0)
        points = [Vec2(rng.uniform(-30, 30), rng.uniform(-30, 30)) for _ in range(4)]
        threats = [Threat(tp, Vec2(0.0, 0.0), 24.0, "obstacle", f"o{k}")
                   for k, tp in enumerate(points)]
        expected = attractive_force(pos, wp, params.k_att)
        for tp in points:
            expected = expected + repulsive_force(pos, tp, params.k_rep)
        assert apf_step(make_state(pos, wp), threats, params) == expected


class TestApfStep:
    def test_free_space_step_length(self):
        # no threats: the command is k_att toward the waypoint (a dt * 8 = 0.8 step)
        state = make_state(Vec2(0.0, 0.0), Vec2(100.0, 0.0))
        assert apf_step(state, [], Params()) == Vec2(8.0, 0.0)

    def test_step_with_blocking_threat(self):
        # the net force (-7, 0) moves the UAV dt * 7 backward in one step
        state = make_state(Vec2(0.0, 0.0), Vec2(10.0, 0.0))
        threats = [Threat(Vec2(2.0, 0.0), Vec2(0.0, 0.0), 24.0, "obstacle", "o")]
        params = Params()
        v = apf_step(state, threats, params)
        assert state.position + v * params.dt == Vec2(0.1 * -7.0, 0.0)

    def test_coincident_threat_is_skipped(self):
        # as in vo_core.avoid: a threat at the UAV's own position is ignored,
        # while repulsive_force itself still raises there
        state = make_state(Vec2(3.0, 4.0), Vec2(100.0, 4.0))
        here = Threat(Vec2(3.0, 4.0), Vec2(0.0, 0.0), 24.0, "uav", "b")
        other = Threat(Vec2(5.0, 4.0), Vec2(0.0, 0.0), 24.0, "obstacle", "o")
        params = Params()
        assert apf_step(state, [here], params) == apf_step(state, [], params)
        assert apf_step(state, [here, other], params) == apf_step(state, [other], params)
        assert apf_step(state, [here, other], params) != apf_step(state, [], params)

    def test_only_threat_positions_matter(self):
        state = make_state(Vec2(0.0, 0.0), Vec2(10.0, 0.0))
        t1 = [Threat(Vec2(2.0, 3.0), Vec2(5.0, 5.0), 24.0, "uav", "x")]
        t2 = [Threat(Vec2(2.0, 3.0), Vec2(-5.0, 0.0), 12.0, "obstacle", "y")]
        assert apf_step(state, t1, Params()) == apf_step(state, t2, Params())


_coord = (st.floats(-200.0, 200.0, allow_nan=False, allow_infinity=False)
          | st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False))
_points = st.builds(Vec2, _coord, _coord)


@st.composite
def _next_to(draw, p):
    """p moved by 1 ulp along x, along y, or along both."""
    def nudge(v):
        return math.nextafter(v, draw(st.sampled_from([math.inf, -math.inf])))
    how = draw(st.sampled_from(["x", "y", "xy"]))
    return Vec2(nudge(p.x) if "x" in how else p.x, nudge(p.y) if "y" in how else p.y)


@st.composite
def _apf_cases(draw):
    """A state and a threat list of mixed magnitudes (coordinates up to 1e150)
    that may be empty, hold the UAV's own position or a point 1 ulp from it,
    and repeat a threat."""
    pos = draw(_points)
    wp = draw(st.one_of(_points, _next_to(pos)).filter(lambda p: p != pos))
    points = draw(st.lists(st.one_of(_points, st.just(pos), _next_to(pos)), max_size=6))
    if points and draw(st.booleans()):
        points.append(draw(st.sampled_from(points)))
    params = Params(k_att=draw(st.floats(0.1, 50.0)), k_rep=draw(st.floats(0.1, 50.0)))
    return make_state(pos, wp), points, params


@given(_apf_cases())
def test_apf_step_is_the_vec2_sum_of_the_forces(case):
    state, points, params = case
    threats = [Threat(tp, Vec2(0.0, 0.0), 24.0, "obstacle", f"o{k}")
               for k, tp in enumerate(points)]
    pos = state.position
    expected = attractive_force(pos, state.current_waypoint(), params.k_att)
    for tp in points:
        if tp != pos:
            expected = expected + repulsive_force(pos, tp, params.k_rep)
    v = apf_step(state, threats, params)
    assert (v.x.hex(), v.y.hex()) == (expected.x.hex(), expected.y.hex())


@pytest.mark.parametrize("pos, wp", [((-1e308, 0.0), (1e308, 0.0)),
                                     ((0.0, 1.5e308), (3.0, -1.5e308))])
def test_overflowing_waypoint_offset_raises(pos, wp):
    # waypoint - pos is not finite: the force functions raise there, and so
    # must apf_step, rather than return an inf or nan velocity
    state = make_state(Vec2(*pos), Vec2(*wp))
    with pytest.raises(ValueError):
        attractive_force(state.position, state.current_waypoint(), 8.0)
    with pytest.raises(ValueError):
        apf_step(state, [], Params())


def test_overflowing_threat_offset_raises():
    state = make_state(Vec2(1e308, 0.0), Vec2(0.0, 0.0))
    threat = Threat(Vec2(-1e308, 0.0), Vec2(0.0, 0.0), 24.0, "uav", "b")
    with pytest.raises(ValueError):
        repulsive_force(state.position, threat.position, 15.0)
    with pytest.raises(ValueError):
        apf_step(state, [threat], Params())
