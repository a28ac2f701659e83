import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from utm_sim import sim_engine, vo_core
from utm_sim.geom2d import Vec2, distance, normalize_angle
from utm_sim.params import MAX_HEADINGS, Params
from utm_sim.scenario_cli import load_scenario
from utm_sim.sim_engine import UavState, run
from utm_sim.vo_core import (
    CollisionCone,
    FeasibleSet,
    Threat,
    avoid,
    collision_cone,
    in_cone,
    prune_feasible,
    search_feasible,
    select_velocity,
)

from vo_oracle import (oracle_candidates, oracle_closest, oracle_collision_cone, oracle_decision,
                       oracle_open_headings)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def make_state(pos: Vec2, wp: Vec2, uav_id: str = "a") -> UavState:
    return UavState(id=uav_id, position=pos, velocity=Vec2(0.0, 0.0),
                    path=(wp,))


def test_default_params():
    p = Params()
    assert p.theta_step == 0.2
    assert p.mag_step == 0.2
    assert p.dist_uav == 50.0
    assert p.dist_obs == 20.0
    assert p.kp == 0.2
    with pytest.raises(ValueError):
        Params(theta_step=0.0)
    with pytest.raises(ValueError):
        Params(kp=-1.0)


def test_heading_limit_is_inclusive():
    at_limit = math.tau / MAX_HEADINGS
    assert len(vo_core._headings(Params(theta_step=at_limit).theta_step)) == MAX_HEADINGS
    with pytest.raises(ValueError, match=f"would need more than {MAX_HEADINGS} headings"):
        Params(theta_step=math.nextafter(at_limit, 0.0))


class TestCollisionCone:
    def test_half_angle_closed_form(self):
        # combined radius exactly half the separation -> half-angle asin(1/2)
        c = collision_cone(Vec2(0.0, 0.0), Vec2(10.0, 0.0), 2.0, 3.0)
        assert c.center_angle == 0.0
        assert abs(c.half_angle - math.pi / 6) < 1e-12
        assert abs(normalize_angle(c.center_angle + c.half_angle) - math.pi / 6) < 1e-12
        assert abs(normalize_angle(c.center_angle - c.half_angle) + math.pi / 6) < 1e-12

    def test_5_12_13_geometry(self):
        c = collision_cone(Vec2(0.0, 0.0), Vec2(12.0, 5.0), 3.0, 3.5)
        assert c.center_angle == pytest.approx(math.atan2(5.0, 12.0), abs=1e-15)
        assert abs(c.half_angle - math.asin(6.5 / 13.0)) < 1e-12

    def test_clamp_when_touching_or_overlapping(self):
        # hypot(12, 5) == 13 exactly: contact distance clamps to a half-plane
        c = collision_cone(Vec2(0.0, 0.0), Vec2(12.0, 5.0), 6.0, 7.0)
        assert c.half_angle == math.pi / 2
        c2 = collision_cone(Vec2(0.0, 0.0), Vec2(1.0, 0.0), 12.0, 12.0)
        assert c2.half_angle == math.pi / 2

    def test_edge_angles_wrap(self):
        c = collision_cone(Vec2(0.0, 0.0), Vec2(-10.0, 0.0), 2.0, 3.0)
        assert c.center_angle == math.pi
        left = normalize_angle(c.center_angle + c.half_angle)
        right = normalize_angle(c.center_angle - c.half_angle)
        assert left == pytest.approx(-math.pi + math.pi / 6)
        assert right == pytest.approx(math.pi - math.pi / 6)
        assert -math.pi < left <= math.pi
        assert -math.pi < right <= math.pi

    def test_coincident_positions_raise(self):
        with pytest.raises(ValueError):
            collision_cone(Vec2(1.0, 1.0), Vec2(1.0, 1.0), 1.0, 1.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            collision_cone(Vec2(0.0, 0.0), Vec2(1.0, 0.0), -1.0, 1.0)


class TestInCone:
    def test_zero_velocity_never_inside(self):
        c = collision_cone(Vec2(0.0, 0.0), Vec2(10.0, 0.0), 2.0, 3.0)
        assert not in_cone(Vec2(0.0, 0.0), c)

    def test_boundary_heading_is_outside(self):
        c = collision_cone(Vec2(0.0, 0.0), Vec2(10.0, 0.0), 2.0, 3.0)
        h = c.half_angle
        assert not in_cone(Vec2(math.cos(h), math.sin(h)), c)
        assert in_cone(Vec2(math.cos(h * 0.999), math.sin(h * 0.999)), c)
        assert in_cone(Vec2(1.0, 0.0), c)
        assert not in_cone(Vec2(-1.0, 0.0), c)

    def test_wraparound_cone(self):
        c = collision_cone(Vec2(0.0, 0.0), Vec2(-10.0, 0.0), 2.0, 3.0)
        assert in_cone(Vec2(-1.0, 0.0), c)
        assert in_cone(Vec2(-1.0, 0.2), c)
        assert in_cone(Vec2(-1.0, -0.2), c)
        assert not in_cone(Vec2(1.0, 0.0), c)

    def test_matches_closest_approach_oracle(self):
        # in_cone must agree with the definition: the relative velocity leads
        # to a future approach below the combined radius. Closest approach is
        # computed analytically (projection onto the velocity ray), with a
        # small exclusion band around the exact threshold.
        rng = random.Random(101)
        checked = 0
        for _ in range(5000):
            p_a = Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50))
            ang = rng.uniform(-math.pi, math.pi)
            d = rng.uniform(5.0, 120.0)
            p_b = Vec2(p_a.x + d * math.cos(ang), p_a.y + d * math.sin(ang))
            r_a, r_b = rng.uniform(0.5, 15.0), rng.uniform(0.5, 15.0)
            if d <= r_a + r_b:
                continue  # violating geometry handled separately
            v = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if v.norm() < 1e-6:
                continue
            cone = collision_cone(p_a, p_b, r_a, r_b)
            # closest approach of the ray p_a + v t, t >= 0, to p_b
            rel = p_b - p_a
            t_star = max(0.0, (rel.x * v.x + rel.y * v.y) / (v.x * v.x + v.y * v.y))
            closest = math.hypot(rel.x - v.x * t_star, rel.y - v.y * t_star)
            if abs(closest - (r_a + r_b)) < 1e-6:
                continue  # threshold band: both answers defensible
            checked += 1
            assert in_cone(v, cone) == (closest < r_a + r_b)
        assert checked > 4000


def grid_candidates(speeds, v_b, blocked=frozenset()):
    """Expected search output: every heading k*0.2 < 2*pi in order, each with its
    speeds in order, or only the zero-speed entry when heading index k is blocked.
    Each entry is the relative velocity plus v_b; the blocked zero-speed entry
    is (0.0 + v_b.x, 0.0 + v_b.y), which folds a -0.0 component to 0.0."""
    out = []
    k = 0
    while (theta := k * 0.2) < math.tau:
        if k in blocked:
            out.append((0.0 + v_b.x, 0.0 + v_b.y))
        else:
            for m in speeds:
                out.append((m * math.cos(theta) + v_b.x, m * math.sin(theta) + v_b.y))
        k += 1
    return out


class TestSearchFeasible:
    def test_grid_size_and_order_with_no_exclusions(self):
        # distant, thin threat whose cone misses every grid heading
        cone = collision_cone(Vec2(0.0, 0.0),
                              Vec2(1000.0 * math.cos(0.5), 1000.0 * math.sin(0.5)),
                              0.05, 0.05)
        params = Params()
        v_b = Vec2(1.0, 2.0)
        v_ab = Vec2(0.5, 0.0)
        fset = search_feasible(v_ab, v_b, cone, params)
        # 32 headings x magnitudes {0, 0.2, 0.4, 0.5}
        assert len(fset.candidates) == 32 * 4
        # the exact ordered list: heading-major, then speed, each entry the
        # exact absolute velocity (m*cos + v_b.x, m*sin + v_b.y)
        assert fset.candidates == grid_candidates([0.0, 0.2, 0.4, 0.5], v_b)
        for cand in fset.candidates:
            assert type(cand) is tuple and len(cand) == 2
            assert all(type(c) is float for c in cand)

    def test_speed_grid_keeps_off_grid_maximum(self):
        cone = collision_cone(Vec2(0.0, 0.0), Vec2(1000.0, 0.0), 0.05, 0.05)
        fset = search_feasible(Vec2(0.0, 0.7), Vec2(0.0, 0.0), cone, Params())
        # speeds 0, 0.2, 0.4, 0.6 on the grid, then 0.7 itself; heading 0 lies
        # inside the thin cone and keeps only its zero entry
        speeds = [k * 0.2 for k in range(4)] + [0.7]
        assert fset.candidates == grid_candidates(speeds, Vec2(0.0, 0.0), blocked={0})
        # every clear heading ends on the off-grid maximum, and nothing exceeds it
        assert fset.candidates[-1] == (0.7 * math.cos(6.2), 0.7 * math.sin(6.2))
        assert max(math.hypot(*c) for c in fset.candidates) == pytest.approx(0.7, abs=1e-15)

    def test_cone_blocks_headings_but_zero_speed_survives(self):
        # frozen case: |v_ab| = 1, cone center 0, half-angle asin(0.5)
        cone = collision_cone(Vec2(0.0, 0.0), Vec2(10.0, 0.0), 2.0, 3.0)
        fset = search_feasible(Vec2(1.0, 0.0), Vec2(0.0, 0.0), cone, Params())
        blocked = {0, 1, 2, 29, 30, 31}  # headings 0.0-0.4 and 5.8-6.2 are inside the cone
        # full grid is 32 x 6 = 192; blocked headings keep only their M=0 entry
        assert len(fset.candidates) == 192 - len(blocked) * 5
        speeds = [k * 0.2 for k in range(6)]
        assert fset.candidates == grid_candidates(speeds, Vec2(0.0, 0.0), blocked=blocked)
        # the blocked headings are the six one-entry runs of (0.0, 0.0)
        assert fset.candidates[:3] == [(0.0, 0.0)] * 3
        assert fset.candidates[-3:] == [(0.0, 0.0)] * 3
        for cand in fset.candidates:
            assert not in_cone(Vec2(*cand), cone)  # v_b is zero here

    def test_blocked_heading_zero_entry_folds_negative_zero(self):
        # 0.0 + -0.0 is 0.0: a -0.0 here would print as -0.000000 if hover
        # won, changing the exported bytes
        cone = collision_cone(Vec2(0.0, 0.0), Vec2(10.0, 0.0), 2.0, 3.0)
        fset = search_feasible(Vec2(1.0, 0.0), Vec2(-0.0, -0.0), cone, Params())
        for x, y in fset.candidates[:3]:
            assert (math.copysign(1.0, x), math.copysign(1.0, y)) == (1.0, 1.0)

    def test_every_candidate_is_cone_free(self):
        rng = random.Random(33)
        for _ in range(50):
            p_b = Vec2(rng.uniform(-40, 40), rng.uniform(-40, 40))
            if p_b.norm() < 1.0:
                continue
            cone = collision_cone(Vec2(0.0, 0.0), p_b, 6.0, 6.0)
            v_b = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
            v_ab = Vec2(rng.uniform(-8, 8), rng.uniform(-8, 8))
            fset = search_feasible(v_ab, v_b, cone, Params())
            assert fset.candidates
            for cand in fset.candidates:
                assert not in_cone(Vec2(*cand) - v_b, cone)


class TestPruneAndSelect:
    def test_prune_removes_conflicting_and_keeps_order(self):
        cone1 = collision_cone(Vec2(0.0, 0.0), Vec2(1000.0, 1000.0), 0.01, 0.01)
        fset = search_feasible(Vec2(1.0, 0.0), Vec2(0.0, 0.0), cone1, Params())
        # prune against a violating threat dead ahead: forward headings die
        cone2 = collision_cone(Vec2(0.0, 0.0), Vec2(5.0, 0.0), 12.0, 12.0)
        v_other = Vec2(0.0, 0.0)
        pruned = prune_feasible(fset, v_other, cone2)
        assert 0 < len(pruned.candidates) < len(fset.candidates)
        kept = iter(fset.candidates)
        for cand in pruned.candidates:  # order preserved: subsequence check
            while next(kept) != cand:
                pass
        for cand in pruned.candidates:
            assert not in_cone(Vec2(*cand), cone2)
        # exactly the candidates the Vec2 in_cone rule keeps, in search order
        assert pruned.candidates == [
            c for c in fset.candidates if not in_cone(Vec2(*c) - v_other, cone2)
        ]

    def test_select_minimizes_distance(self):
        # headings 0, pi/2 and pi at speeds 0, 1 and 2.9 around v_b = (0, 0.1)
        fset = _hand_grid(((0.0, 1.0, 0.0), (math.pi / 2.0, 0.0, 1.0), (math.pi, -1.0, 0.0)),
                          [0.0, 1.0, 2.9], by=0.1)
        best = select_velocity(fset, Vec2(3.0, 0.0))
        assert best == Vec2(2.9, 0.1)
        assert type(best) is Vec2

    def test_select_tie_goes_to_earlier_candidate(self):
        # (1, 0) on heading 0 and (-1, 0) on heading pi are both 1 from the
        # nominal (0, 0); a pruning cone around -y, seen from a threat moving
        # at (0, 1), drops both zero-speed entries, which would be closer
        headings = ((0.0, 1.0, 0.0), (math.pi, -1.0, 0.0))
        fset = prune_feasible(_hand_grid(headings, [0.0, 1.0]), Vec2(0.0, 1.0),
                              CollisionCone(-math.pi / 2.0, 0.1))
        assert fset.candidates == [(1.0, 0.0), (-1.0, 0.0)]
        assert select_velocity(fset, Vec2(0.0, 0.0)) == Vec2(1.0, 0.0)
        # the nominal a hair to the left breaks the tie the other way
        assert select_velocity(fset, Vec2(-1e-9, 0.0)) == Vec2(-1.0, 0.0)

    def test_select_empty_returns_none(self):
        # the same grid pruned by a half-plane around +y, seen from a threat
        # moving at (0, -1): every candidate, zero speed included, lies in it
        fset = prune_feasible(_hand_grid(((0.0, 1.0, 0.0), (math.pi, -1.0, 0.0)), [0.0, 1.0]),
                              Vec2(0.0, -1.0), CollisionCone(math.pi / 2.0, math.pi / 2.0))
        assert fset.candidates == []
        assert select_velocity(fset, Vec2(5.0, 5.0)) is None


def _hand_grid(headings, speeds, bx=0.0, by=0.0):
    """A set seeded by a threat moving at (bx, by) whose cone, around -pi/2
    with half-angle 0.1, blocks none of `headings`; the first must be heading 0."""
    return FeasibleSet(vo_core._PolarGrid(headings, -math.pi / 2.0, 0.1, speeds, 1.0, bx, by))


def oracle_avoid(pos, wp, threats, params):
    """Independent re-derivation: argmin over grid candidates that are
    cone-free for every engaged threat, in (theta, magnitude) grid order."""
    v_a = Vec2(params.kp * (wp.x - pos.x), params.kp * (wp.y - pos.y))
    engaged = []
    for th in threats:
        cone = collision_cone(pos, th.position, 0.0, th.combined_radius)
        if in_cone(v_a - th.velocity, cone):
            engaged.append((th, cone))
    if not engaged:
        return v_a, False, False
    first_threat, _ = engaged[0]
    v_ab = v_a - first_threat.velocity
    mags = []
    j = 0
    while (m := j * params.mag_step) <= v_ab.norm():
        mags.append(m)
        j += 1
    if mags[-1] != v_ab.norm():
        mags.append(v_ab.norm())
    best = None
    best_d2 = math.inf
    count = 0
    k = 0
    while (theta := k * params.theta_step) < math.tau:
        for m in mags:
            vel = Vec2(m * math.cos(theta) + first_threat.velocity.x,
                       m * math.sin(theta) + first_threat.velocity.y)
            ok = True
            for th, cone in engaged:
                if in_cone(vel - th.velocity, cone):
                    ok = False
                    break
            if ok:
                count += 1
                d2 = (vel.x - v_a.x) ** 2 + (vel.y - v_a.y) ** 2
                if d2 < best_d2:
                    best, best_d2 = vel, d2
        k += 1
    if count == 0:
        return Vec2(0.0, 0.0), True, True
    return best, True, False


class TestAvoid:
    def test_no_threats_returns_nominal_velocity(self):
        state = make_state(Vec2(0.0, 0.0), Vec2(100.0, 50.0))
        res = avoid(state, [], Params())
        assert res.velocity == Vec2(20.0, 10.0)  # kp * (wp - pos)
        assert not res.engaged
        assert not res.empty_set

    def test_non_conflicting_threat_passes_through(self):
        state = make_state(Vec2(0.0, 0.0), Vec2(100.0, 0.0))
        # threat well off to the side, moving away
        th = Threat(Vec2(0.0, 45.0), Vec2(0.0, 5.0), 24.0, "b")
        res = avoid(state, [th], Params())
        assert res.velocity == Vec2(20.0, 0.0)
        assert not res.engaged

    def test_already_violating_head_on_hovers_via_zero_candidate(self):
        # threat inside the combined radius dead ahead: every forward heading
        # is blocked, and the zero-speed candidate is the closest survivor
        state = make_state(Vec2(0.0, 0.0), Vec2(100.0, 0.0))
        th = Threat(Vec2(10.0, 0.0), Vec2(0.0, 0.0), 24.0, "b")
        res = avoid(state, [th], Params())
        assert res.engaged
        assert not res.empty_set  # the set is not empty, hover simply wins
        assert res.velocity == Vec2(0.0, 0.0)

    def test_head_on_conflict_matches_oracle(self):
        state = make_state(Vec2(0.0, 0.0), Vec2(100.0, 0.0))
        th = Threat(Vec2(60.0, 0.0), Vec2(-20.0, 0.0), 24.0, "b")
        params = Params()
        res = avoid(state, [th], params)
        want, engaged, empty = oracle_avoid(Vec2(0.0, 0.0), Vec2(100.0, 0.0), [th], params)
        assert engaged and not empty
        assert res.engaged and not res.empty_set
        assert res.velocity == want
        cone = collision_cone(state.position, th.position, 0.0, th.combined_radius)
        assert not in_cone(res.velocity - th.velocity, cone)
        assert res.velocity != Vec2(20.0, 0.0)

    def test_multi_threat_prune_matches_oracle(self):
        state = make_state(Vec2(0.0, 0.0), Vec2(100.0, 0.0))
        threats = [
            Threat(Vec2(50.0, 5.0), Vec2(-15.0, 0.0), 24.0, "b"),
            Threat(Vec2(40.0, -30.0), Vec2(0.0, 8.0), 24.0, "c"),
        ]
        params = Params()
        res = avoid(state, threats, params)
        want, engaged, empty = oracle_avoid(Vec2(0.0, 0.0), Vec2(100.0, 0.0),
                                            threats, params)
        assert engaged and not empty
        assert res.velocity == want
        for th in threats:
            cone = collision_cone(state.position, th.position, 0.0, th.combined_radius)
            v_rel = res.velocity - th.velocity
            # the pick must be cone-free for every threat that engaged
            if in_cone(Vec2(20.0, 0.0) - th.velocity, cone):
                assert not in_cone(v_rel, cone)

    def test_empty_feasible_set_falls_back_to_hover(self):
        # ahead: parked violating threat blocks all forward headings;
        # behind: fast violating threat whose cone swallows every remaining
        # candidate, including the zero-speed ones
        state = make_state(Vec2(0.0, 0.0), Vec2(100.0, 0.0))
        threats = [
            Threat(Vec2(10.0, 0.0), Vec2(0.0, 0.0), 24.0, "b"),
            Threat(Vec2(-10.0, 0.0), Vec2(30.0, 0.0), 24.0, "c"),
        ]
        res = avoid(state, threats, Params())
        assert res.engaged
        assert res.empty_set
        assert res.velocity == Vec2(0.0, 0.0)
        want, _, empty = oracle_avoid(Vec2(0.0, 0.0), Vec2(100.0, 0.0),
                                      threats, Params())
        assert empty and want == Vec2(0.0, 0.0)

    def test_randomized_agreement_with_oracle(self):
        rng = random.Random(2025)
        params = Params()
        agreements = 0
        for _ in range(300):
            pos = Vec2(rng.uniform(-20, 20), rng.uniform(-20, 20))
            wp = Vec2(rng.uniform(-150, 150), rng.uniform(-150, 150))
            if distance(pos, wp) < 1.0:
                continue
            threats = []
            for t in range(rng.randrange(0, 4)):
                ang = rng.uniform(-math.pi, math.pi)
                d = rng.uniform(13.0, 60.0)
                threats.append(Threat(
                    Vec2(pos.x + d * math.cos(ang), pos.y + d * math.sin(ang)),
                    Vec2(rng.uniform(-6, 6), rng.uniform(-6, 6)),
                    24.0, f"t{t}"))
            res = avoid(make_state(pos, wp), threats, params)
            want, engaged, empty = oracle_avoid(pos, wp, threats, params)
            assert res.velocity == want
            assert res.engaged == engaged
            assert res.empty_set == empty
            agreements += 1
        assert agreements > 250

    def test_threat_at_own_position_is_skipped(self):
        state = make_state(Vec2(0.0, 0.0), Vec2(100.0, 0.0))
        th = Threat(Vec2(0.0, 0.0), Vec2(1.0, 0.0), 24.0, "ghost")
        res = avoid(state, [th], Params())
        assert res.velocity == Vec2(20.0, 0.0)
        assert not res.engaged


class TestNormalizationConsistency:
    def test_cone_membership_invariant_under_angle_wrapping(self):
        rng = random.Random(55)
        for _ in range(500):
            ang = rng.uniform(-math.pi, math.pi)
            p_b = Vec2(30.0 * math.cos(ang), 30.0 * math.sin(ang))
            cone = collision_cone(Vec2(0.0, 0.0), p_b, 6.0, 6.0)
            v_ang = rng.uniform(-math.pi, math.pi)
            v = Vec2(5.0 * math.cos(v_ang), 5.0 * math.sin(v_ang))
            got = in_cone(v, cone)
            offset = abs(normalize_angle(v_ang - ang))
            if abs(offset - cone.half_angle) < 1e-9:
                continue
            assert got == (offset < cone.half_angle)


_ANGLES = st.one_of(
    st.sampled_from((math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                     math.nextafter(-math.pi, 0.0), math.nextafter(math.pi, 4.0),
                     math.nextafter(-math.pi, -4.0), 0.0, -0.0, math.tau, -math.tau))
    .flatmap(lambda a: st.sampled_from((a, a + math.tau, a - math.tau, a + 3.0 * math.tau))),
    st.integers(-10**6, 10**6).flatmap(lambda k: st.sampled_from((
        k * math.tau, math.nextafter(k * math.tau, math.inf),
        math.nextafter(k * math.tau, -math.inf), k * math.tau + math.pi,
        k * math.tau - math.pi))),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestConeRemainder:
    """Cone membership reads |remainder(offset, tau)| in place of |normalize_angle(offset)|."""

    @settings(max_examples=500, deadline=None)
    @given(x=_ANGLES)
    def test_same_magnitude_as_normalize_angle(self, x):
        assert abs(math.remainder(x, math.tau)).hex() == abs(normalize_angle(x)).hex()

    @settings(max_examples=300, deadline=None)
    @given(center=st.floats(-math.pi, math.pi), half=st.floats(0.0, math.pi / 2.0),
           theta=_ANGLES.filter(lambda a: abs(a) < 1e300))
    def test_membership_matches_the_normalized_offset(self, center, half, theta):
        cone = CollisionCone(center, half)
        inside = abs(normalize_angle(theta - center)) < half
        assert oracle_open_headings(((theta, 0.0, 0.0),), cone) == [not inside]
        # a one-heading grid along theta: listed, a blocked heading keeps only
        # its zero speed; selected, an open one reaches speed 1 at (1, 0)
        grid = vo_core._PolarGrid(((theta, 1.0, 0.0),), center, half, [0.0, 1.0], 1.0, 0.0, 0.0)
        assert grid.candidates() == ([(0.0, 0.0)] if inside else [(0.0, 0.0), (1.0, 0.0)])
        assert vo_core._closest_on_grid(grid, 1.0, 0.0) == ((0.0, 0.0) if inside else (1.0, 0.0))
        v = Vec2(math.cos(theta), math.sin(theta))
        assert in_cone(v, cone) == (abs(normalize_angle(math.atan2(v.y, v.x) - center)) < half)


class TestGridTables:
    @settings(max_examples=200, deadline=None)
    @given(step=st.sampled_from((0.2, 0.25, 0.1, 0.37, 1.0, 3.0)),
           picks=st.lists(st.tuples(st.integers(0, 60), st.sampled_from((-1, 0, 1)),
                                    st.floats(0.0, 1.0)), min_size=1, max_size=6))
    def test_speed_grid_equals_the_per_search_loop(self, step, picks):
        # calls in any order share one stored table per step
        for k, ulps, frac in picks:
            v_max = k * step if frac < 0.5 else (k + frac) * step
            if ulps and v_max > 0.0:
                v_max = math.nextafter(v_max, ulps * math.inf)
            want = []
            j = 0
            while (m := j * step) <= v_max:
                want.append(m)
                j += 1
            if want[-1] != v_max:
                want.append(v_max)
            assert [m.hex() for m in vo_core._magnitude_grid(v_max, step)] == [m.hex() for m in want]

    @pytest.mark.parametrize("theta_step", [0.2, 0.05, 0.7, 1.0, 2.5])
    def test_heading_table(self, theta_step):
        table = vo_core._headings(theta_step)
        k = 0
        while (theta := k * theta_step) < math.tau:
            assert table[k] == (theta, math.cos(theta), math.sin(theta))
            k += 1
        assert len(table) == k
        # the premise of select_velocity's bound: |q|^2 within 5 u of 1
        for _, c, s in table:
            assert abs(Fraction(c) ** 2 + Fraction(s) ** 2 - 1) <= 5 * Fraction(2) ** -53


@st.composite
def _select_cases(draw):
    """(v_ab, v_b, cone, params, v_desired) for one seeded search and its selection.

    The nominal velocity is free, on a grid heading's ray (at a grid speed or
    between), half-way between two grid speeds on a heading, behind a heading
    (projection t < 0) or beyond v_max (t > v_max); v_max may sit 1 ulp off a
    grid speed; the cone may leave a single heading open; `huge` puts v_b and
    the nominal velocity near 1e150, where the grid walk must fall back.
    """
    theta_step = draw(st.sampled_from((0.2, 0.25, 0.5, 0.07, 1.3)))
    mag_step = draw(st.sampled_from((0.2, 0.25, 1.0, 0.37, 0.1)))
    params = Params(theta_step=theta_step, mag_step=mag_step)
    thetas = [theta for theta, _, _ in vo_core._headings(theta_step)]
    kind = draw(st.sampled_from(("free", "ray", "half_way", "ulp_vmax", "behind",
                                 "beyond", "one_open", "huge")))
    k = draw(st.integers(0, 40))
    if kind == "ulp_vmax":
        v_max = math.nextafter(max(k, 1) * mag_step, draw(st.sampled_from((-math.inf, math.inf))))
    elif kind == "half_way" or draw(st.booleans()):
        v_max = max(k, 1) * mag_step
    else:
        v_max = draw(st.floats(0.0, 40.0 * mag_step))
    v_ab = Vec2(v_max, 0.0)  # hypot(v_max, 0) is v_max exactly
    comp = st.floats(-25.0, 25.0)
    if kind == "huge":
        comp = st.floats(1e149, 1e151).flatmap(lambda a: st.sampled_from((a, -a)))
    v_b = Vec2(draw(comp), draw(comp))
    j = draw(st.integers(0, len(thetas) - 1))
    if kind == "one_open":
        gap = min(theta_step, math.tau - thetas[-1])
        cone = CollisionCone(normalize_angle(thetas[j] + math.pi), math.pi - gap / 2.0)
    elif kind == "half_way":
        cone = CollisionCone(normalize_angle(thetas[j] + math.pi), 0.3)  # j stays open
    else:
        cone = CollisionCone(draw(st.floats(-math.pi, math.pi)),
                             draw(st.floats(0.0, math.pi / 2.0)))
    c, s = math.cos(thetas[j]), math.sin(thetas[j])
    if kind == "half_way":
        lam = (draw(st.integers(0, max(k, 1) - 1)) + 0.5) * mag_step
        n = Vec2(lam * c + v_b.x, lam * s + v_b.y)
    elif kind in ("ray", "ulp_vmax", "one_open"):
        lam = draw(st.one_of(st.floats(-1.0, 2.0 * v_max + 1.0),
                             st.integers(0, 90).map(lambda i: i * mag_step / 2.0),
                             st.just(v_max)))
        n = Vec2(lam * c + v_b.x, lam * s + v_b.y)
    elif kind == "behind":
        lam = draw(st.floats(1e-9, 30.0))
        n = Vec2(v_b.x - lam * c, v_b.y - lam * s)
    elif kind == "beyond":
        lam = v_max + draw(st.floats(1e-9, 30.0))
        n = Vec2(lam * c + v_b.x, lam * s + v_b.y)
    elif kind == "huge":
        n = Vec2(draw(comp), draw(comp))
    else:
        n = Vec2(draw(st.floats(-40.0, 40.0)), draw(st.floats(-40.0, 40.0)))
    return v_ab, v_b, cone, params, n


def _assert_picks_as_full_scan(v_ab, v_b, cone, params, n):
    fset = search_feasible(v_ab, v_b, cone, params)
    got = select_velocity(fset, n)
    listed = oracle_candidates(v_ab, v_b, cone, params)
    want = oracle_closest(listed, n.x, n.y)
    want = Vec2(*want) if want is not None else Vec2(0.0, 0.0)
    assert (got.x.hex(), got.y.hex()) == (want.x.hex(), want.y.hex())
    # the listing is the oracle's list of open-heading flags, listed
    assert fset.candidates == listed
    return got


# Two conflicting threats for a UAV at the origin flying to (100, 0): the
# first seeds the set, the second prunes it. In _EMPTYING, a parked threat
# dead ahead blocks every forward heading and a fast one behind, inside its
# combined radius, swallows what is left, zero speeds included.
_TWO_CONFLICTS = (Threat(Vec2(50.0, 5.0), Vec2(-15.0, 0.0), 24.0, "b"),
                  Threat(Vec2(40.0, -30.0), Vec2(0.0, 8.0), 24.0, "c"))
_EMPTYING = (Threat(Vec2(10.0, 0.0), Vec2(0.0, 0.0), 24.0, "b"),
             Threat(Vec2(-10.0, 0.0), Vec2(30.0, 0.0), 24.0, "c"))


class TestSelectOnGrid:
    """Selecting on the seeded grid picks the full scan's candidate, bit for bit."""

    @settings(max_examples=600, deadline=None)
    @given(case=_select_cases())
    def test_equals_full_scan(self, case):
        _assert_picks_as_full_scan(*case)

    def test_tie_half_way_goes_to_the_lower_speed(self):
        # heading 0 has cos 1 and sin 0 exactly: speeds 1.25 and 1.5 are both
        # exactly 0.125 from the nominal 1.375, and the earlier (lower) one wins
        params = Params(mag_step=0.25)
        cone = CollisionCone(math.pi, 0.3)
        got = _assert_picks_as_full_scan(Vec2(3.0, 0.0), Vec2(0.0, 0.0), cone, params,
                                         Vec2(1.375, 0.0))
        assert got == Vec2(1.25, 0.0)

    @pytest.mark.parametrize("n", [
        Vec2(0.6 * math.cos(7 * 0.2), 0.6 * math.sin(7 * 0.2)),  # on heading 7's ray
        Vec2(-2.0, -0.3),  # behind every open heading near it: t < 0
        Vec2(9.0, 4.0),  # beyond v_max
    ])
    def test_pinned_nominals(self, n):
        cone = collision_cone(Vec2(0.0, 0.0), Vec2(10.0, 0.0), 2.0, 3.0)
        _assert_picks_as_full_scan(Vec2(1.0, 0.0), Vec2(0.0, 0.0), cone, Params(), n)

    @pytest.mark.parametrize("ulps", [-1, 1])
    def test_v_max_one_ulp_off_a_grid_speed(self, ulps):
        v_max = math.nextafter(1.0, ulps * math.inf)
        cone = CollisionCone(math.pi, 0.3)
        for n in (Vec2(v_max, 0.0), Vec2(1.0, 0.0), Vec2(2.0, 0.01)):
            _assert_picks_as_full_scan(Vec2(v_max, 0.0), Vec2(0.0, 0.0), cone, Params(), n)

    def test_every_heading_blocked_but_one(self):
        # centre opposite heading 5 (theta 1.0), so only heading 5 is open
        cone = CollisionCone(normalize_angle(1.0 + math.pi), math.pi - 0.04)
        fset = search_feasible(Vec2(1.0, 0.0), Vec2(0.5, 0.5), cone, Params())
        speeds = [k * 0.2 for k in range(6)]
        assert fset.candidates == grid_candidates(speeds, Vec2(0.5, 0.5),
                                                  blocked=set(range(32)) - {5})
        for n in (Vec2(0.5, 0.5), Vec2(1.0, 1.5), Vec2(-3.0, 0.0), Vec2(0.7, 0.9)):
            _assert_picks_as_full_scan(Vec2(1.0, 0.0), Vec2(0.5, 0.5), cone, Params(), n)

    def test_huge_magnitudes_visit_every_candidate(self, monkeypatch):
        cone = CollisionCone(0.0, 0.5)
        big = Vec2(1e150, -1e150)
        small = search_feasible(Vec2(2.0, 0.0), Vec2(1.0, -1.0), cone, Params())
        assert select_velocity(small, Vec2(1.5, 0.0)) is not None

        def refuse(speeds, x):
            raise AssertionError("a window was bisected")

        # the rounding bound fails, so no heading is windowed (or skipped)
        monkeypatch.setattr(vo_core, "bisect_left", refuse)
        _assert_picks_as_full_scan(Vec2(2.0, 0.0), big, cone, Params(), Vec2(1.5e150, 0.0))
        with pytest.raises(AssertionError, match="bisected"):
            select_velocity(small, Vec2(1.5, 0.0))

    def test_all_infinite_distances_return_hover(self):
        # every candidate's squared distance overflows, as in the full scan
        cone = CollisionCone(0.0, 0.5)
        v_b = Vec2(1e300, 1e300)
        fset = search_feasible(Vec2(1.0, 0.0), v_b, cone, Params())
        assert select_velocity(fset, Vec2(-1e300, -1e300)) == Vec2(0.0, 0.0)
        _assert_picks_as_full_scan(Vec2(1.0, 0.0), v_b, cone, Params(), Vec2(-1e300, -1e300))
        # pruned so that the first candidate, the zero speed, is gone: the
        # set is not empty, so the pick still hovers
        params = Params(mag_step=1e150)
        v_b = Vec2(1e160, 1e160)
        fset = prune_feasible(search_feasible(Vec2(2e150, 0.0), v_b, cone, params),
                              Vec2(1e160, 1e160 - 1e150), CollisionCone(math.pi / 2.0, 0.1))
        assert fset.candidates and (1e160, 1e160) not in fset.candidates
        assert oracle_closest(fset.candidates, -1e160, -1e160) is None
        assert select_velocity(fset, Vec2(-1e160, -1e160)) == Vec2(0.0, 0.0)

    def test_tie_below_the_window_goes_to_the_lower_speed(self):
        # on heading 0 the window holds speeds 15 and 16; pruning drops 15, the
        # closest, and speed 14, below the window, rounds to the d2 of 16
        b, n = Vec2(2.848433312048668, 0.0), Vec2(17.84843331204867, -5.281570513514817e-13)
        fset = prune_feasible(
            search_feasible(Vec2(18.0, 0.0), b, CollisionCone(0.0, 0.0), Params(mag_step=1.0)),
            Vec2(17.84843331204867, 0.5), CollisionCone(-math.pi / 2.0, 0.3))
        want = oracle_closest(fset.candidates, n.x, n.y)
        assert want == (14.0 + b.x, 0.0)
        d2 = [(m + b.x - n.x) ** 2 + n.y ** 2 for m in (14.0, 16.0)]
        assert d2[0] == d2[1]
        assert select_velocity(fset, n) == Vec2(*want)

    def test_off_grid_v_max_beats_the_speed_below_it(self):
        # v_max is 2 ulps above speed 22 * 0.2; heading 16's window and the
        # speeds above it are pruned up to speed 22, and v_max's computed d2
        # rounds below that of speed 22
        v_max, b = 4.400000000000002, Vec2(-3.707554643480555, 1.9959927494212941)
        theta = vo_core._headings(0.2)[16][0]
        fset = prune_feasible(
            search_feasible(Vec2(v_max, 0.0), b, CollisionCone(0.0, 0.0), Params()),
            Vec2(-8.000222179397994, 1.7449839326826997),
            CollisionCone(normalize_angle(theta + math.pi), 0.5))
        assert fset.grid.speeds[-2:] == [22 * 0.2, v_max]
        n = Vec2(-7.791297386242126, 1.7100294178468207)
        want = oracle_closest(fset.candidates, n.x, n.y)
        assert want == (v_max * math.cos(theta) + b.x, v_max * math.sin(theta) + b.y)
        assert select_velocity(fset, n) == Vec2(*want)

    def test_one_conflicting_threat_never_lists_candidates(self, monkeypatch):
        state = make_state(Vec2(0.0, 0.0), Vec2(100.0, 0.0))
        th = Threat(Vec2(60.0, 0.0), Vec2(-20.0, 0.0), 24.0, "b")
        want, engaged, _ = oracle_avoid(Vec2(0.0, 0.0), Vec2(100.0, 0.0), [th], Params())
        assert engaged

        def refuse(self):
            raise AssertionError("the candidate list was built")

        monkeypatch.setattr(vo_core._PolarGrid, "candidates", refuse)
        res = avoid(state, [th], Params())
        assert res.engaged and not res.empty_set
        assert res.velocity == want

    @pytest.mark.parametrize("threats", [_TWO_CONFLICTS, _EMPTYING], ids=["pruned", "emptied"])
    def test_two_conflicting_threats_never_list_candidates(self, monkeypatch, threats):
        state = make_state(Vec2(0.0, 0.0), Vec2(100.0, 0.0))
        want = oracle_decision(state, threats, Params())
        assert want.engaged and want.empty_set == (threats is _EMPTYING)

        def refuse(self):
            raise AssertionError("the candidate list was built")

        monkeypatch.setattr(vo_core._PolarGrid, "candidates", refuse)
        got = avoid(state, threats, Params())
        assert got == want
        assert ((got.velocity.x.hex(), got.velocity.y.hex())
                == (want.velocity.x.hex(), want.velocity.y.hex()))

    def test_reading_candidates_first_changes_nothing(self, monkeypatch):
        # list every set as it is seeded and pruned, as the bench tracer does
        state = make_state(Vec2(0.0, 0.0), Vec2(100.0, 0.0))
        unread = avoid(state, _TWO_CONFLICTS, Params())
        sizes = []
        for name in ("search_feasible", "prune_feasible"):
            def listing(*args, _fn=getattr(vo_core, name)):
                fset = _fn(*args)
                sizes.append(len(fset.candidates))
                return fset

            monkeypatch.setattr(vo_core, name, listing)
        read = avoid(state, _TWO_CONFLICTS, Params())
        assert len(sizes) == 2 and sizes[0] > sizes[1] > 0
        _assert_same_decision(read, unread)
        _assert_same_decision(read, oracle_decision(state, _TWO_CONFLICTS, Params()))


# Velocity components, -0.0 among them, and radii; a threat is drawn free, on
# an axis through the UAV inside its combined radius (a half-plane cone whose
# edges lie on multiples of pi/2, which are headings of theta_step pi/8 and
# pi/4), on the UAV itself, or on the position of an earlier threat.
_component = st.sampled_from((0.0, -0.0, 3.0, -7.5)) | st.floats(-30.0, 30.0)
_threat_kind = st.sampled_from(("free", "axis", "coincident", "repeat"))
_axis = st.sampled_from(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)))


@st.composite
def _decisions(draw):
    """(state, threats, params) for one decision."""
    params = Params(theta_step=draw(st.sampled_from((0.2, math.pi / 8.0, math.pi / 4.0, 0.07))),
                    mag_step=draw(st.sampled_from((0.2, 0.25, 1.0))))
    pos = Vec2(draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0)))
    wp = Vec2(pos.x + draw(st.floats(-150.0, 150.0)), pos.y + draw(st.floats(-150.0, 150.0)))
    threats = []
    for i in range(draw(st.integers(0, 4))):
        radius = draw(st.sampled_from((24.0, 12.5, 5.0)))
        kind = draw(_threat_kind)
        if kind == "axis":
            ux, uy = draw(_axis)
            d = draw(st.floats(0.5, radius))
            p = Vec2(pos.x + ux * d, pos.y + uy * d)
        elif kind == "coincident":
            p = pos
        elif kind == "repeat" and threats:
            p = draw(st.sampled_from(threats)).position
        else:
            p = Vec2(pos.x + draw(st.floats(-60.0, 60.0)), pos.y + draw(st.floats(-60.0, 60.0)))
        threats.append(Threat(p, Vec2(draw(_component), draw(_component)), radius, f"t{i}"))
    return make_state(pos, wp), threats, params


def _conflicting(state, threats, params):
    """The threats whose cone captures the nominal relative velocity, as `avoid` finds them."""
    wp = state.current_waypoint()
    v_a = Vec2(params.kp * (wp.x - state.position.x), params.kp * (wp.y - state.position.y))
    return [th for th in threats if th.position != state.position
            and in_cone(v_a - th.velocity,
                        collision_cone(state.position, th.position, 0.0, th.combined_radius))]


@st.composite
def _pruned_decisions(draw, component=_component):
    """(state, threats, params) for one decision with two or more conflicting threats.

    Two to four threats touch the UAV on distinct axes, inside their combined
    radius, as walls do at a corridor corner: each cone is a half-plane whose
    edges lie on multiples of pi/2. They move with components from
    `component`, -0.0 among them. Threats on opposite axes, each closing on
    the UAV, can leave no candidate at all, so some sets end up empty. A free
    threat may follow them.
    """
    params = Params(theta_step=draw(st.sampled_from((0.2, math.pi / 8.0, math.pi / 4.0, 0.07))),
                    mag_step=draw(st.sampled_from((0.2, 0.25, 1.0))))
    pos = Vec2(draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0)))
    wp = Vec2(pos.x + draw(st.floats(-150.0, 150.0)), pos.y + draw(st.floats(-150.0, 150.0)))
    axes = draw(st.permutations(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))))
    threats = []
    for i, (ux, uy) in enumerate(axes[:draw(st.integers(2, 4))]):
        radius = draw(st.sampled_from((24.0, 12.5, 5.0)))
        d = draw(st.floats(0.5, radius))
        threats.append(Threat(Vec2(pos.x + ux * d, pos.y + uy * d),
                              Vec2(draw(component), draw(component)), radius, f"t{i}"))
    if draw(st.booleans()):
        p = Vec2(pos.x + draw(st.floats(-60.0, 60.0)), pos.y + draw(st.floats(-60.0, 60.0)))
        threats.append(Threat(p, Vec2(draw(component), draw(component)), 24.0, "free"))
    state = make_state(pos, wp)
    assume(len(_conflicting(state, threats, params)) >= 2)
    return state, threats, params


def _resting_pruned_decisions():
    """`_pruned_decisions` with every threat at rest, as wall circles and
    parked UAVs are: each velocity component is 0.0 or -0.0. Such a set is
    never empty, as its zero speed is never inside a cone."""
    return _pruned_decisions(component=st.sampled_from((0.0, -0.0)))


def _assert_same_decision(got, want):
    assert (got.engaged, got.empty_set) == (want.engaged, want.empty_set)
    assert ((got.velocity.x.hex(), got.velocity.y.hex())
            == (want.velocity.x.hex(), want.velocity.y.hex()))


class TestAvoidMatchesOracle:
    """`avoid` returns the Vec2 pipeline's decision, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(case=_decisions())
    def test_random_decisions(self, case):
        state, threats, params = case
        want = oracle_decision(state, threats, params)
        _assert_same_decision(avoid(state, threats, params), want)

    @settings(max_examples=400, deadline=None)
    @given(case=_pruned_decisions())
    def test_random_pruned_decisions(self, case):
        state, threats, params = case
        want = oracle_decision(state, threats, params)
        event("empty set" if want.empty_set else "chosen velocity")
        _assert_same_decision(avoid(state, threats, params), want)

    @settings(max_examples=400, deadline=None)
    @given(case=_resting_pruned_decisions())
    def test_random_resting_pruned_decisions(self, case):
        state, threats, params = case
        want = oracle_decision(state, threats, params)
        assert not want.empty_set
        _assert_same_decision(avoid(state, threats, params), want)

    def test_corner_corridor_pruned_decisions(self, monkeypatch):
        # every decision of corner_corridor's VO runs of seeds 1-4 that prunes
        scenario = load_scenario(SCENARIOS / "corner_corridor.json")
        params = replace(scenario.sim, algorithm="vo")
        pruned = []

        def recording(state, threats, params):
            res = avoid(state, threats, params)
            if len(_conflicting(state, threats, params)) >= 2:
                pruned.append((state, tuple(threats), res))
            return res

        monkeypatch.setattr(sim_engine, "avoid", recording)
        for seed in range(1, 5):
            run(scenario, params, seed)
        assert len(pruned) >= 100
        for state, threats, got in pruned:
            _assert_same_decision(got, oracle_decision(state, threats, params))

    @settings(max_examples=200, deadline=None)
    @given(p_a=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
           p_b=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
           radius=st.floats(0.0, 100.0))
    def test_cone_on_floats_equals_the_vec2_cone(self, p_a, p_b, radius):
        p_a, p_b = Vec2(*p_a), Vec2(*p_b)
        if p_a == p_b:
            return
        got = collision_cone(p_a, p_b, 0.0, radius)
        want = oracle_collision_cone(p_a, p_b, 0.0, radius)
        assert (got.center_angle.hex(), got.half_angle.hex()) == (want.center_angle.hex(),
                                                                  want.half_angle.hex())

    @settings(max_examples=300, deadline=None)
    @given(theta_step=st.sampled_from((0.2, 0.07, 1.3)), data=st.data(),
           center=st.floats(-math.pi, math.pi), side=st.sampled_from((1.0, -1.0)),
           v_max=st.floats(0.0, 8.0), v_b=st.tuples(_component, _component),
           n=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
    def test_cone_edge_exactly_on_a_heading(self, theta_step, data, center, side, v_max, v_b, n):
        # half is the computed offset of heading k, so heading k lies on the
        # cone's edge (outside, as the test is strict) and its neighbours on
        # either side of it
        headings = vo_core._headings(theta_step)
        theta = headings[data.draw(st.integers(0, len(headings) - 1))][0]
        half = abs(math.remainder(theta - center, math.tau))
        cone = CollisionCone(center, half)
        params = Params(theta_step=theta_step)
        v_ab, v_b, n = Vec2(v_max, 0.0), Vec2(*v_b), Vec2(*n)
        fset = search_feasible(v_ab, v_b, cone, params)
        want = oracle_closest(oracle_candidates(v_ab, v_b, cone, params), n.x, n.y)
        got = select_velocity(fset, n)
        assert (got.x.hex(), got.y.hex()) == (want[0].hex(), want[1].hex())
        assert fset.candidates == oracle_candidates(v_ab, v_b, cone, params)

    def test_axis_contact_puts_a_cone_edge_on_a_heading(self):
        # the strategy's "axis" threat: heading 4 of theta_step pi/8 is pi/2,
        # exactly on the edge of the half-plane cone toward +x
        params = Params(theta_step=math.pi / 8.0)
        cone = collision_cone(Vec2(3.0, 4.0), Vec2(13.0, 4.0), 0.0, 24.0)
        theta = vo_core._headings(params.theta_step)[4][0]
        assert abs(math.remainder(theta - cone.center_angle, math.tau)) == cone.half_angle
        state = make_state(Vec2(3.0, 4.0), Vec2(-50.0, 40.0))
        threats = [Threat(Vec2(13.0, 4.0), Vec2(-0.0, 2.0), 24.0, "b"),
                   Threat(Vec2(3.0, 4.0), Vec2(1.0, 0.0), 24.0, "self"),
                   Threat(Vec2(13.0, 4.0), Vec2(0.0, -0.0), 12.5, "c")]
        assert avoid(state, threats, params) == oracle_decision(state, threats, params)


def _count_survival_tests(monkeypatch):
    """A list that gains one entry per `vo_core._survives` call from here on."""
    calls = []

    def counting(cx, cy, prunes, _survives=vo_core._survives):
        calls.append((cx, cy))
        return _survives(cx, cy, prunes)

    monkeypatch.setattr(vo_core, "_survives", counting)
    return calls


def _resting_case(params, v_max, cone, prunes, n):
    """(the set seeded at rest by `cone` and pruned by each (o, cone) of
    `prunes`, the full scan's pick from the listed set filtered through the
    same cones with the Vec2 `in_cone`)."""
    v_ab, v_b = Vec2(v_max, 0.0), Vec2(0.0, -0.0)
    fset = search_feasible(v_ab, v_b, cone, params)
    cands = oracle_candidates(v_ab, v_b, cone, params)
    for o, c in prunes:
        fset = prune_feasible(fset, o, c)
        cands = [x for x in cands if not in_cone(Vec2(x[0] - o.x, x[1] - o.y), c)]
    return fset, oracle_closest(cands, n.x, n.y)


class TestRestingRays:
    """Where every velocity is zero, a heading's ray settles it once per
    pruning cone; a heading near a cone's edge, a moving threat or a tiny
    speed falls back to testing each candidate. The pick is the full scan's."""

    _SEED = CollisionCone(math.pi, 0.3)  # blocks the headings around -x

    def _pick(self, monkeypatch, fset, n):
        calls = _count_survival_tests(monkeypatch)
        got = select_velocity(fset, n)
        return (got.x, got.y), len(calls)

    @pytest.mark.parametrize("inset", [0.0, 2.0 ** -30])
    def test_heading_on_a_pruning_cone_edge(self, monkeypatch, inset):
        # heading 4 of theta_step pi/8 is pi/2, exactly on the edge of a cone
        # around +x of that half-angle, as at a wall contact; the nominal lies
        # on its ray. On the edge its speeds are tested one by one; a cone
        # 2**-30 narrower leaves the heading clear of it
        params = Params(theta_step=math.pi / 8.0)
        theta, cos_t, sin_t = vo_core._headings(params.theta_step)[4]
        half = abs(math.remainder(theta - 0.0, math.tau)) - inset
        n = Vec2(2.0 * cos_t, 2.0 * sin_t)
        fset, want = _resting_case(params, 3.0, self._SEED,
                                   [(Vec2(-0.0, 0.0), CollisionCone(0.0, half))], n)
        got, tests = self._pick(monkeypatch, fset, n)
        assert got == want and want[1] > 0.0
        assert (tests > 1) == (inset == 0.0)

    @pytest.mark.parametrize("delta", [-(2.0 ** -44), 2.0 ** -44])
    def test_heading_in_the_margin_band(self, monkeypatch, delta):
        # heading 5 (theta 1.0) lies 2**-44 inside or outside the pruning
        # cone's edge: far beyond a candidate's angle error, but within the
        # 2**-40 margin, so its candidates are tested one by one
        params = Params()
        theta, cos_t, sin_t = vo_core._headings(params.theta_step)[5]
        prune = CollisionCone(0.3, abs(math.remainder(theta - 0.3, math.tau)) + delta)
        n = Vec2(1.5 * cos_t, 1.5 * sin_t)
        fset, want = _resting_case(params, 3.0, self._SEED, [(Vec2(0.0, 0.0), prune)], n)
        center, inner, outer = vo_core._resting_rays(fset.grid)[0]
        assert inner <= abs(math.remainder(theta - center, math.tau)) < outer
        got, tests = self._pick(monkeypatch, fset, n)
        assert got == want and tests > 1
        # the pick lies on heading 5 unless the heading is just inside the cone
        on_ray = [(m * cos_t, m * sin_t) for m in fset.grid.speeds[1:]]
        assert (got in on_ray) == (delta < 0.0)

    @pytest.mark.parametrize("oy", [-0.0, 1e-9])
    def test_moving_pruning_threat_tests_each_candidate(self, monkeypatch, oy):
        # the nominal lies inside a pruning cone around +x: at rest, its ray
        # passes each heading near it over, and only `zero` is tested; a
        # threat moving at 1e-9 m/s sends the decision down the per-candidate
        # path, whose windows and outward walks test many
        params = Params()
        n = Vec2(2.0, 0.1)
        fset, want = _resting_case(params, 3.0, self._SEED,
                                   [(Vec2(0.0, oy), CollisionCone(0.0, 0.5))], n)
        assert (vo_core._resting_rays(fset.grid) is None) == (oy != 0.0)
        got, tests = self._pick(monkeypatch, fset, n)
        assert got == want
        assert (tests == 1) == (oy == 0.0)

    @pytest.mark.parametrize("step", [2.0 ** -1000, 2.0 ** -900])
    def test_tiny_speeds_trip_the_underflow_guard(self, monkeypatch, step):
        # below 2**-900 a speed's product with a cos or sin could be
        # subnormal, so its ray classifies nothing; at 2**-900 it does
        params = SimpleNamespace(theta_step=0.2, mag_step=step)
        n = Vec2(2.5 * step, step)
        fset, want = _resting_case(params, 3.0 * step, self._SEED,
                                   [(Vec2(0.0, 0.0), CollisionCone(0.0, 0.5))], n)
        assert fset.grid.speeds[1] == step
        assert (vo_core._resting_rays(fset.grid) is None) == (step < 2.0 ** -900)
        got, _ = self._pick(monkeypatch, fset, n)
        assert got == want

    def test_corner_corridor_tests_survival_once_per_pruned_decision(self, monkeypatch):
        # at the corridor corner every pruned decision is seeded and pruned by
        # wall circles at rest: their rays settle each heading, and only
        # `zero`, the first candidate, is tested
        scenario = load_scenario(SCENARIOS / "corner_corridor.json")
        params = replace(scenario.sim, algorithm="vo")
        pruned = []

        def recording(state, threats, params):
            if len(_conflicting(state, threats, params)) >= 2:
                pruned.append(state)
            return avoid(state, threats, params)

        monkeypatch.setattr(sim_engine, "avoid", recording)
        calls = _count_survival_tests(monkeypatch)
        for seed in range(1, 5):
            run(scenario, params, seed)
        assert len(pruned) >= 100
        assert len(calls) <= len(pruned)


class TestSpeedGridBound:
    def test_guard_refuses_a_decision_past_the_cap(self):
        # a threat closing head-on at 1e6 m/s: its relative speed would need
        # 5 million speeds of 0.2, more than the cap
        state = make_state(Vec2(0.0, 0.0), Vec2(100.0, 0.0))
        th = Threat(Vec2(40.0, 0.0), Vec2(-1e6, 0.0), 24.0, "b")
        with pytest.raises(ValueError, match=f"needs more than {vo_core._SPEED_CAP} VO speeds"):
            avoid(state, [th], Params())
        assert len(vo_core._speed_table(0.2)) <= vo_core._SPEED_CAP
        # up to the cap the grid is built as before
        cap_speed = (vo_core._SPEED_CAP - 2) * 1.0
        assert vo_core._magnitude_grid(cap_speed, 1.0)[-1] == cap_speed
        with pytest.raises(ValueError, match="needs more than"):
            vo_core._magnitude_grid(cap_speed + 1.0, 1.0)
        assert len(vo_core._speed_table(1.0)) == vo_core._SPEED_CAP
