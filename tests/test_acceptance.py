"""End-to-end acceptance gates for the shipped package.

Each test locks one behavioral guarantee: frozen parameter defaults, collision
cone geometry, cone/oracle equivalence, avoidance behavior on the shipped
scenario files, export determinism, planner output validity, and obstacle
discretization coverage. Every gate prints one `criterion NN: PASS/FAIL` line
(visible with -s or -rA) and asserts its runtime budget where one applies.
"""

import dataclasses
import math
import random
import statistics
import time
from pathlib import Path

import numpy as np

from utm_sim.geom2d import Vec2, distance, normalize_angle, point_rect_distance
from utm_sim.metrics import build_report
from utm_sim.obstacle_field import RectObstacle, discretize_rectangle
from utm_sim.params import Params
from utm_sim.scenario_cli import load_scenario, main
from utm_sim.sim_engine import plan_paths, run, run_planned
from utm_sim.vo_core import collision_cone, in_cone

from rect_oracle import oracle_segment_rect_distance

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _gate(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _vo_sim(scenario) -> Params:
    return dataclasses.replace(scenario.sim, algorithm="vo")


def _apf_sim(scenario) -> Params:
    return dataclasses.replace(scenario.sim, algorithm="apf")


def test_criterion_01_parameter_defaults():
    p = Params()  # the one table the planner, both controllers and the step loop read
    ok = (
        p.kp == 0.2 and p.dt == 0.1 and p.dist_wp == 10.0
        and p.uav_radius == 12.0
        and p.obstacle_circle_radius == 12.0
        and p.circle_spacing == 15.0
        and p.dist_uav == 50.0 and p.dist_obs == 20.0
        and p.theta_step == 0.2 and p.mag_step == 0.2
        and p.k_att == 8.0 and p.k_rep == 15.0
        and p.inflation == 12.0
    )
    _gate(1, ok, "default-constructed params carry the frozen control/geometry values")


def test_criterion_02_cone_closed_forms():
    t0 = time.monotonic()
    # combined radius 24 at distance 48: half-angle is exactly asin(1/2)
    cone = collision_cone(Vec2(0.0, 0.0), Vec2(48.0, 0.0), 12.0, 12.0)
    ok = abs(cone.half_angle - math.pi / 6.0) < 1e-12
    ok = ok and abs(cone.center_angle - 0.0) < 1e-12
    ok = ok and abs(normalize_angle(cone.center_angle + cone.half_angle - math.pi / 6.0)) < 1e-12
    ok = ok and abs(normalize_angle(cone.center_angle - cone.half_angle + math.pi / 6.0)) < 1e-12

    # 5-12-13 triangle: combined 5 at distance 13, against an atan2 closed form
    cone = collision_cone(Vec2(0.0, 0.0), Vec2(12.0, 5.0), 2.0, 3.0)
    ok = ok and abs(cone.half_angle - math.atan2(5.0, 12.0)) < 1e-12
    ok = ok and abs(cone.center_angle - math.atan2(5.0, 12.0)) < 1e-12

    # clamp engages exactly at distance == combined radius, not a hair above
    at = collision_cone(Vec2(0.0, 0.0), Vec2(24.0, 0.0), 12.0, 12.0)
    above = collision_cone(Vec2(0.0, 0.0), Vec2(24.0 + 1e-9, 0.0), 12.0, 12.0)
    ok = ok and at.half_angle == math.pi / 2.0
    ok = ok and above.half_angle < math.pi / 2.0

    # membership flips across the cone edge (probe the computed boundary)
    cone = collision_cone(Vec2(0.0, 0.0), Vec2(48.0, 0.0), 12.0, 12.0)
    edge = cone.center_angle + cone.half_angle
    just_out = Vec2(math.cos(edge + 1e-9), math.sin(edge + 1e-9))
    just_in = Vec2(math.cos(edge - 1e-9), math.sin(edge - 1e-9))
    ok = ok and not in_cone(just_out, cone) and in_cone(just_in, cone)

    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _gate(2, ok, f"closed-form cone geometry to 1e-12, clamp at contact ({elapsed:.2f}s < 1s)")


def test_criterion_03_cone_matches_closest_approach_oracle():
    # For separations beyond the combined radius, a relative velocity is in the
    # cone exactly when the straight relative ray dips below the combined
    # radius. Headings within 1e-6 rad of the cone boundary are excluded.
    t0 = time.monotonic()
    rng = random.Random(1003)
    checked = 0
    disagreements = 0
    while checked < 10_000:
        r_a = rng.uniform(1.0, 30.0)
        r_b = rng.uniform(1.0, 30.0)
        combined = r_a + r_b
        d = rng.uniform(combined + 0.5, 300.0)
        ang = rng.uniform(-math.pi, math.pi)
        p_a = Vec2(rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0))
        p_b = Vec2(p_a.x + d * math.cos(ang), p_a.y + d * math.sin(ang))
        speed = rng.uniform(0.1, 40.0)
        v_ang = rng.uniform(-math.pi, math.pi)
        v = Vec2(speed * math.cos(v_ang), speed * math.sin(v_ang))

        cone = collision_cone(p_a, p_b, r_a, r_b)
        offset = abs(normalize_angle(v_ang - cone.center_angle))
        if abs(offset - cone.half_angle) < 1e-6:
            continue  # boundary band excluded by construction

        rel = Vec2(p_b.x - p_a.x, p_b.y - p_a.y)
        t_star = max(0.0, (rel.x * v.x + rel.y * v.y) / (speed * speed))
        closest = math.hypot(rel.x - t_star * v.x, rel.y - t_star * v.y)
        if in_cone(v, cone) != (closest < combined):
            disagreements += 1
        checked += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 10.0
    _gate(3, ok, f"10000 random cases, {disagreements} oracle disagreements ({elapsed:.2f}s < 10s)")


def test_criterion_04_head_on_duel():
    t0 = time.monotonic()
    sc = load_scenario(SCENARIOS / "head_on_duel.json")
    # the file must actually be the canonical duel
    assert len(sc.rectangles) == 0 and len(sc.uavs) == 2
    assert sc.uavs[0].start == Vec2(0.0, 200.0) and sc.uavs[0].goal == Vec2(400.0, 200.0)
    assert sc.uavs[1].start == Vec2(400.0, 200.0) and sc.uavs[1].goal == Vec2(0.0, 200.0)
    assert sc.sim.uav_radius == 12.0 and sc.sim.max_steps == 20_000

    worst = math.inf
    all_done = True
    for seed in range(1, 21):
        res = run(sc, _vo_sim(sc), seed)
        rep = build_report(res)
        all_done = all_done and res.completed
        worst = min(worst, min(rep.pair_min_distances.values()))
    elapsed = time.monotonic() - t0
    ok = all_done and worst >= 21.6 and elapsed < 30.0
    _gate(4, ok, f"seeds 1-20 complete, worst min distance {worst:.2f} >= 21.6 ({elapsed:.1f}s < 30s)")


def test_criterion_05_five_uav_scenario_clean_under_vo():
    t0 = time.monotonic()
    sc = load_scenario(SCENARIOS / "paper_like_5uav.json")
    bad = []
    for seed in range(1, 21):
        res = run(sc, _vo_sim(sc), seed)
        rep = build_report(res)
        cc = rep.event_counts
        if not (res.completed and cc["uav_uav_collision"] == 0
                and cc["uav_obstacle_collision"] == 0):
            bad.append(seed)
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 180.0
    _gate(5, ok, f"seeds 1-20 collision-free and completed, bad={bad} ({elapsed:.1f}s < 180s)")


def test_criterion_06_apf_corner_failure_vo_clean():
    t0 = time.monotonic()
    sc = load_scenario(SCENARIOS / "corner_corridor.json")
    hits = 0
    detail = []
    for seed in range(1, 21):
        paths = plan_paths(sc, seed)
        apf = build_report(run_planned(sc, _apf_sim(sc), paths))
        vo = build_report(run_planned(sc, _vo_sim(sc), paths))
        apf_uo = apf.event_counts["uav_obstacle_collision"]
        vo_uo = vo.event_counts["uav_obstacle_collision"]
        if apf_uo >= 1 and vo_uo == 0:
            hits += 1
        else:
            detail.append((seed, apf_uo, vo_uo))
    elapsed = time.monotonic() - t0
    ok = hits >= 15 and elapsed < 180.0
    _gate(6, ok, f"apf hits wall while vo stays clean on {hits}/20 seeds "
                 f"(need 15), misses={detail} ({elapsed:.1f}s < 180s)")


def test_criterion_07_path_length_trend():
    t0 = time.monotonic()
    sc = load_scenario(SCENARIOS / "paper_like_5uav.json")
    ratios = []
    shorter_or_equal = 0
    excluded = 0
    for seed in range(1, 21):
        paths = plan_paths(sc, seed)
        vo = build_report(run_planned(sc, _vo_sim(sc), paths))
        apf = build_report(run_planned(sc, _apf_sim(sc), paths))
        for uid, apf_len in apf.path_lengths.items():
            vo_len = vo.path_lengths[uid]
            if apf_len is None or vo_len is None:
                excluded += 1  # collided UAVs carry no comparable length
                continue
            ratios.append(vo_len / apf_len)
            if vo_len <= apf_len:
                shorter_or_equal += 1
    elapsed = time.monotonic() - t0
    n = len(ratios)
    ratios.sort()
    quartiles = statistics.quantiles(ratios, n=4)
    dist = (f"n={n} excluded={excluded} vo<=apf in {shorter_or_equal} | ratio "
            f"min={ratios[0]:.4f} q1={quartiles[0]:.4f} med={quartiles[1]:.4f} "
            f"q3={quartiles[2]:.4f} max={ratios[-1]:.4f}")
    ok = n > 0 and shorter_or_equal > n // 2 and elapsed < 360.0
    _gate(7, ok, f"{dist} ({elapsed:.1f}s < 360s)")


def test_criterion_08_determinism_and_id_permutation(tmp_path):
    # identical (scenario, seed) CLI runs produce byte-identical trajectories
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    scenario_file = str(SCENARIOS / "paper_like_5uav.json")
    for out in (out_a, out_b):
        code = main(["run", "--scenario", scenario_file, "--algo", "vo",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
    bytes_a = (out_a / "trajectories.csv").read_bytes()
    bytes_b = (out_b / "trajectories.csv").read_bytes()
    identical = bytes_a == bytes_b

    # listing the same fleet in a different order changes nothing per UAV
    sc = load_scenario(scenario_file)
    permuted = dataclasses.replace(sc, uavs=tuple(reversed(sc.uavs)))
    res_base = run(sc, _vo_sim(sc), 3)
    res_perm = run(permuted, _vo_sim(permuted), 3)
    same_paths = True
    perm_columns = {column[0].id: column for column in zip(*res_perm.states)}
    for samples in zip(*res_base.states):
        other = perm_columns[samples[0].id]
        same_paths = same_paths and len(samples) == len(other)
        same_paths = same_paths and all(
            s.position == o.position for s, o in zip(samples, other))
    ok = identical and same_paths
    _gate(8, ok, f"byte-identical export={identical}, id-permutation invariant={same_paths}")


def test_criterion_09_planner_output_validity():
    t0 = time.monotonic()
    sc = load_scenario(SCENARIOS / "paper_like_5uav.json")
    goals = {u.id: u.goal for u in sc.uavs}
    starts = {u.id: u.start for u in sc.uavs}
    p = sc.sim
    violations = []
    for seed in range(1, 51):
        for uid, wps in plan_paths(sc, seed).items():
            if wps[0] != starts[uid]:
                violations.append((seed, uid, "start"))
            if distance(wps[-1], goals[uid]) >= p.goal_radius:
                violations.append((seed, uid, "goal radius"))
            for a, b in zip(wps, wps[1:]):
                if distance(a, b) > p.step_size + 1e-9:
                    violations.append((seed, uid, "step length"))
                if any(oracle_segment_rect_distance(a, b, r) <= p.inflation
                       for r in sc.rectangles):
                    violations.append((seed, uid, "edge clearance"))
            if any(point_rect_distance(w, r) <= p.inflation
                   for w in wps for r in sc.rectangles):
                violations.append((seed, uid, "vertex clearance"))
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 30.0
    _gate(9, ok, f"50 seeded plans valid, violations={violations[:5]} ({elapsed:.1f}s < 30s)")


def test_criterion_10_discretizer_coverage():
    t0 = time.monotonic()
    rng = random.Random(1010)
    r_obs, spacing = 12.0, 15.0
    ok = True
    for _ in range(100):
        w = rng.uniform(10.0, 200.0)
        h = rng.uniform(10.0, 200.0)
        rect = RectObstacle(Vec2(rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)), w, h, "r")
        circles = discretize_rectangle(
            rect, Params(obstacle_circle_radius=r_obs, circle_spacing=spacing))
        centers = [(c.x, c.y) for c in circles]

        expected = 4 + 2 * (math.ceil(w / spacing) - 1) + 2 * (math.ceil(h / spacing) - 1)
        ok = ok and len(circles) == expected
        ok = ok and len(set(centers)) == len(centers)

        # order centers along the perimeter walk and bound consecutive gaps
        perimeter = 2.0 * (w + h)
        params = []
        for x, y in centers:
            if abs(y - rect.min_y) < 1e-6:
                s = x - rect.min_x
            elif abs(x - rect.max_x) < 1e-6:
                s = w + (y - rect.min_y)
            elif abs(y - rect.max_y) < 1e-6:
                s = w + h + (rect.max_x - x)
            else:
                s = 2.0 * w + h + (rect.max_y - y)
            params.append(s)
        params.sort()
        gaps = [b - a for a, b in zip(params, params[1:])]
        gaps.append(perimeter - params[-1] + params[0])
        ok = ok and max(gaps) <= spacing + 1e-6

        # sampled perimeter points stay within half a spacing of some center
        pts = np.array(centers)
        for s in np.array([rng.uniform(0.0, perimeter) for _ in range(200)]):
            if s < w:
                px, py = rect.min_x + s, rect.min_y
            elif s < w + h:
                px, py = rect.max_x, rect.min_y + (s - w)
            elif s < 2.0 * w + h:
                px, py = rect.max_x - (s - w - h), rect.max_y
            else:
                px, py = rect.min_x, rect.max_y - (s - 2.0 * w - h)
            nearest = float(np.min(np.hypot(pts[:, 0] - px, pts[:, 1] - py)))
            ok = ok and nearest <= spacing / 2.0 + 1e-9 and nearest <= r_obs
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _gate(10, ok, f"100 random rectangles covered at <= {spacing / 2.0} m ({elapsed:.2f}s < 5s)")
