import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from utm_sim.apf_core import apf_step
from utm_sim.geom2d import Vec2
from utm_sim.params import Params
from utm_sim.sim_engine import UavState
from utm_sim.vo_core import Threat


def make_state(pos: Vec2, wp: Vec2) -> UavState:
    return UavState(id="a", position=pos, velocity=Vec2(0.0, 0.0),
                    path=(wp,))


# The reference law on `Vec2`: each force is its gain times the unit offset,
# and the command is their sum, left to right. `apf_step` computes it on
# plain floats; the tests below hold it to this law bit for bit.

def _attractive_force(pos: Vec2, waypoint: Vec2, k_att: float) -> Vec2:
    """Force of magnitude k_att pointing from pos toward the waypoint."""
    d = waypoint - pos
    if d.x == 0.0 and d.y == 0.0:
        raise ValueError("attractive force undefined at the waypoint itself")
    n = d.norm()
    return Vec2(k_att * (d.x / n), k_att * (d.y / n))


def _repulsive_force(pos: Vec2, threat_pos: Vec2, k_rep: float) -> Vec2:
    """Force of magnitude k_rep pointing from the threat toward pos."""
    d = pos - threat_pos
    if d.x == 0.0 and d.y == 0.0:
        raise ValueError("repulsive force undefined at coincident positions")
    n = d.norm()
    return Vec2(k_rep * (d.x / n), k_rep * (d.y / n))


def _total_force(pos: Vec2, waypoint: Vec2, points, params: Params) -> Vec2:
    """Attraction, unless pos is the waypoint, plus the repulsion of every point
    other than pos, in order."""
    total = Vec2(0.0, 0.0) if waypoint == pos else _attractive_force(pos, waypoint, params.k_att)
    for tp in points:
        if tp != pos:
            f = _repulsive_force(pos, tp, params.k_rep)
            total = Vec2(total.x + f.x, total.y + f.y)
    return total


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
    """The attraction alone is `apf_step` with no threats, and one threat's
    repulsion is what that threat adds to it. Exact antisymmetry is checked
    on the reference law, which `apf_step` matches bit for bit."""

    def test_attractive_3_4_5(self):
        f = apf_step(make_state(Vec2(1.0, 1.0), Vec2(4.0, 5.0)), [], Params(k_att=8.0))
        assert f == Vec2(4.8, 6.4)

    def test_attractive_magnitude_independent_of_distance(self):
        rng = random.Random(4)
        params = Params(k_att=8.0)
        for _ in range(500):
            pos = Vec2(rng.uniform(-100, 100), rng.uniform(-100, 100))
            wp = Vec2(rng.uniform(-100, 100), rng.uniform(-100, 100))
            if pos == wp:
                continue
            f = apf_step(make_state(pos, wp), [], params)
            assert f.norm() == pytest.approx(8.0, abs=1e-12)
            # points from pos toward wp
            assert f.x * (wp.x - pos.x) + f.y * (wp.y - pos.y) > 0.0

    def test_repulsive_magnitude_and_direction(self):
        # attraction (0, 8) up toward the waypoint, repulsion (-15, 0) away from the threat
        state = make_state(Vec2(0.0, 0.0), Vec2(0.0, 10.0))
        threats = [Threat(Vec2(2.0, 0.0), Vec2(0.0, 0.0), 24.0, "o")]
        assert apf_step(state, threats, Params(k_rep=15.0)) == Vec2(-15.0, 8.0)
        rng = random.Random(6)
        params = Params(k_rep=15.0)
        for _ in range(500):
            pos = Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50))
            tp = Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50))
            if pos == tp:
                continue
            state = make_state(pos, Vec2(pos.x + 1.0, pos.y))
            total = apf_step(state, [Threat(tp, Vec2(0.0, 0.0), 24.0, "o")], params)
            attraction = apf_step(state, [], params)
            f = Vec2(total.x - attraction.x, total.y - attraction.y)
            assert f.norm() == pytest.approx(15.0, abs=1e-12)
            assert f.x * (pos.x - tp.x) + f.y * (pos.y - tp.y) > 0.0

    def test_repulsion_antisymmetric_exactly(self):
        rng = random.Random(8)
        for _ in range(300):
            a = Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50))
            b = Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50))
            if a == b:
                continue
            f, g = _repulsive_force(a, b, 15.0), _repulsive_force(b, a, 15.0)
            assert (f.x, f.y) == (-g.x, -g.y)

    def test_degenerate_positions_raise(self):
        # the law has no direction at the waypoint itself or at a threat's own
        # position, which is why apf_step takes no attraction at its waypoint
        # and skips such a threat (test_coincident_threat_is_skipped)
        with pytest.raises(ValueError):
            _attractive_force(Vec2(1.0, 1.0), Vec2(1.0, 1.0), 8.0)
        with pytest.raises(ValueError):
            _repulsive_force(Vec2(1.0, 1.0), Vec2(1.0, 1.0), 15.0)
        at_waypoint = make_state(Vec2(1.0, 1.0), Vec2(1.0, 1.0))
        assert apf_step(at_waypoint, [], Params()) == Vec2(0.0, 0.0)
        threat = Threat(Vec2(4.0, 5.0), Vec2(0.0, 0.0), 24.0, "o")
        assert apf_step(at_waypoint, [threat], Params(k_rep=15.0)) == Vec2(-9.0, -12.0)


class TestTotalForce:
    """apf_step returns the total force, attraction plus every repulsion,
    as the UAV's velocity command."""

    def test_threat_between_uav_and_waypoint(self):
        # attraction +8, repulsion -15 along the same line: net backward 7
        state = make_state(Vec2(0.0, 0.0), Vec2(10.0, 0.0))
        threats = [Threat(Vec2(2.0, 0.0), Vec2(0.0, 0.0), 24.0, "o")]
        assert apf_step(state, threats, Params()) == Vec2(-7.0, 0.0)

    def test_threat_behind(self):
        state = make_state(Vec2(0.0, 0.0), Vec2(10.0, 0.0))
        threats = [Threat(Vec2(-2.0, 0.0), Vec2(0.0, 0.0), 24.0, "o")]
        v = apf_step(state, threats, Params())
        assert v == Vec2(23.0, 0.0)
        assert v.norm() == 23.0

    def test_superposition(self):
        rng = random.Random(12)
        params = Params()
        pos, wp = Vec2(0.0, 0.0), Vec2(50.0, 20.0)
        points = [Vec2(rng.uniform(-30, 30), rng.uniform(-30, 30)) for _ in range(4)]
        threats = [Threat(tp, Vec2(0.0, 0.0), 24.0, f"o{k}")
                   for k, tp in enumerate(points)]
        assert apf_step(make_state(pos, wp), threats, params) == _total_force(pos, wp, points, params)


class TestApfStep:
    def test_free_space_step_length(self):
        # no threats: the command is k_att toward the waypoint (a dt * 8 = 0.8 step)
        state = make_state(Vec2(0.0, 0.0), Vec2(100.0, 0.0))
        assert apf_step(state, [], Params()) == Vec2(8.0, 0.0)

    def test_step_with_blocking_threat(self):
        # the net force (-7, 0) moves the UAV dt * 7 backward in one step
        state = make_state(Vec2(0.0, 0.0), Vec2(10.0, 0.0))
        threats = [Threat(Vec2(2.0, 0.0), Vec2(0.0, 0.0), 24.0, "o")]
        params = Params()
        v = apf_step(state, threats, params)
        p = state.position
        assert Vec2(p.x + v.x * params.dt, p.y + v.y * params.dt) == Vec2(0.1 * -7.0, 0.0)

    def test_coincident_threat_is_skipped(self):
        # as in vo_core.avoid: a threat at the UAV's own position is ignored,
        # while the reference law raises there
        state = make_state(Vec2(3.0, 4.0), Vec2(100.0, 4.0))
        here = Threat(Vec2(3.0, 4.0), Vec2(0.0, 0.0), 24.0, "b")
        other = Threat(Vec2(5.0, 4.0), Vec2(0.0, 0.0), 24.0, "o")
        params = Params()
        assert apf_step(state, [here], params) == apf_step(state, [], params)
        assert apf_step(state, [here, other], params) == apf_step(state, [other], params)
        assert apf_step(state, [here, other], params) != apf_step(state, [], params)

    def test_only_threat_positions_matter(self):
        state = make_state(Vec2(0.0, 0.0), Vec2(10.0, 0.0))
        t1 = [Threat(Vec2(2.0, 3.0), Vec2(5.0, 5.0), 24.0, "x")]
        t2 = [Threat(Vec2(2.0, 3.0), Vec2(-5.0, 0.0), 12.0, "y")]
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
    """A state, whose waypoint may be its own position or 1 ulp from it, and a
    threat list of mixed magnitudes (coordinates up to 1e150) that may be
    empty, hold the UAV's own position or a point 1 ulp from it, and repeat a
    threat."""
    pos = draw(_points)
    wp = draw(st.one_of(_points, st.just(pos), _next_to(pos)))
    points = draw(st.lists(st.one_of(_points, st.just(pos), _next_to(pos)), max_size=6))
    if points and draw(st.booleans()):
        points.append(draw(st.sampled_from(points)))
    params = Params(k_att=draw(st.floats(0.1, 50.0)), k_rep=draw(st.floats(0.1, 50.0)))
    return make_state(pos, wp), points, params


@given(_apf_cases())
def test_apf_step_is_the_vec2_sum_of_the_forces(case):
    state, points, params = case
    threats = [Threat(tp, Vec2(0.0, 0.0), 24.0, f"o{k}")
               for k, tp in enumerate(points)]
    expected = _total_force(state.position, state.current_waypoint(), points, params)
    v = apf_step(state, threats, params)
    assert (v.x.hex(), v.y.hex()) == (expected.x.hex(), expected.y.hex())


@pytest.mark.parametrize("pos, wp", [((-1e308, 0.0), (1e308, 0.0)),
                                     ((0.0, 1.5e308), (3.0, -1.5e308))])
def test_overflowing_waypoint_offset_raises(pos, wp):
    # waypoint - pos is not finite: the reference law raises there, and so
    # must apf_step, rather than return an inf or nan velocity
    state = make_state(Vec2(*pos), Vec2(*wp))
    with pytest.raises(ValueError):
        _attractive_force(state.position, state.current_waypoint(), 8.0)
    with pytest.raises(ValueError):
        apf_step(state, [], Params())


def test_overflowing_threat_offset_raises():
    state = make_state(Vec2(1e308, 0.0), Vec2(0.0, 0.0))
    threat = Threat(Vec2(-1e308, 0.0), Vec2(0.0, 0.0), 24.0, "b")
    with pytest.raises(ValueError):
        _repulsive_force(state.position, threat.position, 15.0)
    with pytest.raises(ValueError):
        apf_step(state, [threat], Params())
