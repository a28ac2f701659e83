import argparse
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import weakref
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utm_sim.geom2d import Bounds, Vec2
from utm_sim.metrics import build_report
from utm_sim.obstacle_field import (MAX_CIRCLES, MAX_PAIR_SAMPLES, MAX_UAV_STEPS, RectObstacle,
                                    circle_count)
from utm_sim.params import DEFAULT_BOUNDS, MAX_CANDIDATES, MAX_HEADINGS, MAX_SPEEDS, Params
from utm_sim import rrt_planner
from utm_sim import scenario_cli
from utm_sim.rrt_planner import PlanningError
from utm_sim.scenario_cli import (
    Scenario,
    ScenarioError,
    UavSpec,
    _parse_seed_range,
    export_result,
    load_scenario,
    main,
    save_scenario,
)
from utm_sim.sim_engine import plan_paths, run, run_planned

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SRC = Path(__file__).resolve().parent.parent / "src"


def write_scenario(tmp_path, doc, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


MINIMAL = {"uavs": [{"id": "u1", "start": [20.0, 200.0], "goal": [120.0, 200.0]}]}


def full_doc():
    return {
        "name": "demo",
        "bounds": {"min_x": 0.0, "min_y": 0.0, "max_x": 300.0, "max_y": 300.0},
        "rectangles": [
            {"id": "r1", "center": [150.0, 150.0], "width": 40.0, "height": 30.0},
        ],
        "uavs": [
            {"id": "u1", "start": [20.0, 20.0], "goal": [280.0, 280.0]},
            {"id": "u2", "start": [280.0, 20.0], "goal": [20.0, 280.0]},
        ],
        "params": {"kp": 0.3, "dt": 0.05, "dist_obs": 25.0, "k_rep": 20.0,
                   "uav_radius": 10.0, "max_steps": 5000},
    }


class TestLoadScenario:
    def test_minimal_file_gets_all_defaults(self, tmp_path):
        p = write_scenario(tmp_path, MINIMAL)
        s = load_scenario(p)
        assert s.name == "scn"  # file stem
        assert s.sim.bounds == Bounds(0.0, 0.0, 400.0, 400.0)
        assert s.rectangles == ()
        assert s.uavs[0].start == Vec2(20.0, 200.0)
        p = s.sim
        assert p == Params()
        assert (p.kp, p.dt, p.dist_wp, p.max_steps) == (0.2, 0.1, 10.0, 20000)
        assert (p.theta_step, p.mag_step) == (0.2, 0.2)
        assert (p.dist_uav, p.dist_obs) == (50.0, 20.0)
        assert (p.k_att, p.k_rep) == (8.0, 15.0)
        assert (p.step_size, p.goal_bias) == (10.0, 0.05)
        assert (p.max_iters, p.goal_radius) == (10000, 10.0)
        assert p.inflation == 12.0
        assert (p.uav_radius, p.obstacle_circle_radius, p.circle_spacing) == (12.0, 12.0, 15.0)
        assert type(p.max_steps) is int and type(p.max_iters) is int

    def test_file_keys_set_the_one_table(self, tmp_path):
        s = load_scenario(write_scenario(tmp_path, full_doc()))
        # every component reads this one table, so shared keys cannot diverge
        assert s.sim == Params(kp=0.3, dt=0.05, dist_obs=25.0, k_rep=20.0,
                               uav_radius=10.0, max_steps=5000,
                               bounds=Bounds(0.0, 0.0, 300.0, 300.0))
        # uav_radius drives the default inflation
        assert s.sim.uav_radius == 10.0 and s.sim.inflation == 10.0

    def test_explicit_inflation_overrides_radius_default(self, tmp_path):
        doc = dict(MINIMAL)
        doc["params"] = {"uav_radius": 10.0, "inflation": 14.0}
        s = load_scenario(write_scenario(tmp_path, doc))
        assert s.sim.inflation == 14.0

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d.update(extra=1), "unknown"),
        (lambda d: d["uavs"][0].update(color="red"), "unknown"),
        (lambda d: d["rectangles"][0].update(depth=3), "unknown"),
        (lambda d: d.update(params={"warp": 9}), "unknown"),
        (lambda d: d.update(bounds={"min_x": 0}), "bounds"),
        (lambda d: d["rectangles"][0].pop("width"), "width"),
        (lambda d: d["uavs"][0].update(start=[1.0]), "two-element"),
        (lambda d: d["uavs"][0].update(id="bad id!"), "id"),
        # "a-b" labels the pair (a, b) in distances.csv and report.json: with
        # these ids, the pairs (x-y, z) and (x, y-z) would share one label
        (lambda d: d.update(uavs=[
            {"id": uid, "start": [20.0 + 60.0 * i, 20.0], "goal": [20.0 + 60.0 * i, 260.0]}
            for i, uid in enumerate(["x-y", "z", "x", "y-z"])]),
         r"uavs\[0\]\.id 'x-y' must not contain '-'"),
        (lambda d: d["rectangles"][0].update(width=-5.0), "positive"),
        (lambda d: d.update(params={"max_iters": 10.5}), "integer"),
        (lambda d: d.update(params={"kp": True}), "number"),
        (lambda d: d.update(params={"kp": "fast"}), "number"),
        (lambda d: d.update(params={"goal_bias": 1.5}), "goal_bias"),
        (lambda d: d.update(uavs=[]), "uavs"),
        (lambda d: d["uavs"][1].update(start=[20.0, 20.0]), "starts are closer"),
        (lambda d: d["uavs"][1].update(start=[39.99, 20.0]), "overlap"),
        (lambda d: d["uavs"][1].update(goal=[280.0, 280.0]), "goals are closer"),
        (lambda d: d["params"].update(circle_spacing=0.0), "circle_spacing must be > 0"),
        (lambda d: d["params"].update(circle_spacing=-15.0), "circle_spacing must be > 0"),
        (lambda d: d["rectangles"][0].update(center=[900.0, 900.0]), "inside the workspace"),
        (lambda d: d["rectangles"][0].update(center=[290.0, 150.0]), "inside the workspace"),
        (lambda d: d["rectangles"][0].update(center=[150.0, 5.0]), "inside the workspace"),
        # `Params` reads inflation=None as "take uav_radius"; a file may not
        (lambda d: d["params"].update(inflation=None), r"params\.inflation must be a number"),
        # integers too large for a float
        (lambda d: d["params"].update(kp=10**400), r"params: kp must be finite"),
        (lambda d: d["bounds"].update(max_x=10**400), r"bounds\.max_x must be finite"),
        (lambda d: d["rectangles"][0].update(width=10**400), r"\.width must be finite"),
        (lambda d: d["uavs"][0].update(start=[-10**400, 20.0]), r"\.start\[0\] must be finite"),
        # finite corners whose extent is not: the planner samples min + (max - min) * u
        (lambda d: d.update(bounds={"min_x": -1e308, "min_y": 0.0, "max_x": 1e308,
                                    "max_y": 300.0}), r"bounds: bounds extent must be finite"),
    ])
    def test_invalid_documents_rejected(self, tmp_path, mutate, fragment):
        doc = full_doc()
        mutate(doc)
        with pytest.raises(ScenarioError, match=fragment):
            load_scenario(write_scenario(tmp_path, doc))

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d.update(bounds=[0.0, 0.0, 300.0, 300.0]), "bounds must be an object"),
        (lambda d: d["bounds"].update(min_z=0.0), "bounds: unknown fields ['min_z']"),
        (lambda d: d["bounds"].pop("max_y"), "bounds needs min_x, min_y, max_x, max_y"),
        (lambda d: d["bounds"].update(min_x="0"), "bounds: bounds.min_x must be a number, got '0'"),
        (lambda d: d["bounds"].update(max_x=0.0), "bounds: bounds must have positive extent"),
        (lambda d: d.update(rectangles={}), "rectangles must be a list"),
        (lambda d: d.update(rectangles=[7]), "rectangles[0] must be an object"),
        (lambda d: d["rectangles"][0].update(depth=3), "rectangles[0]: unknown fields ['depth']"),
        (lambda d: d["rectangles"][0].pop("width"), "rectangles[0] needs id, center, width, height"),
        (lambda d: d["rectangles"][0].update(center=[10**400, 150.0]),
         "rectangles[0].center[0] must be finite, got an integer too large for a float"),
        (lambda d: d["rectangles"][0].update(id="r", width=-5.0),
         "rectangles[0]: rectangle 'r' must have positive width and height"),
        (lambda d: d["rectangles"][0].update(height=10**400),
         "rectangles[0]: rectangle 'r1'.height must be finite, "
         "got an integer too large for a float"),
        (lambda d: d.update(uavs="u1"), "uavs must be a list"),
        (lambda d: d.update(uavs=["u1"]), "uavs[0] must be an object"),
        (lambda d: d["uavs"][0].update(color="red"), "uavs[0]: unknown fields ['color']"),
        (lambda d: d["uavs"][1].pop("goal"), "uavs[1] needs id, start, goal"),
        (lambda d: d["uavs"][0].update(start=[1.0]), "uavs[0].start must be a two-element [x, y] list"),
        (lambda d: d["uavs"][0].update(goal=[True, 280.0]), "uavs[0].goal[0] must be a number, got True"),
        # the first bad vector in key order, whatever the file's order
        (lambda d: d["uavs"].__setitem__(0, {"goal": [1.0], "start": {}, "id": "u1"}),
         "uavs[0].start must be a two-element [x, y] list"),
        (lambda d: d.update(params=[]), "params must be an object"),
        (lambda d: d.update(params={"warp": 9}), "params: unknown fields ['warp']"),
        (lambda d: d["params"].update(inflation=None), "params.inflation must be a number, got null"),
        (lambda d: d["params"].update(kp=10**400),
         "params: kp must be finite, got an integer too large for a float"),
    ])
    def test_invalid_documents_give_exact_messages(self, tmp_path, mutate, message):
        doc = full_doc()
        mutate(doc)
        with pytest.raises(ScenarioError) as caught:
            load_scenario(write_scenario(tmp_path, doc))
        assert str(caught.value) == message

    def test_duplicate_ids_rejected(self, tmp_path):
        doc = full_doc()
        doc["uavs"][1]["id"] = "u1"
        with pytest.raises(ScenarioError, match="unique"):
            load_scenario(write_scenario(tmp_path, doc))

    @pytest.mark.parametrize("where", ["uav", "rectangle"])
    def test_id_with_trailing_newline_rejected(self, tmp_path, capsys, where):
        # `$` would also match before the final "\n"; the id must end at its last character
        doc = full_doc()
        doc["uavs" if where == "uav" else "rectangles"][0]["id"] += "\n"
        scn = write_scenario(tmp_path, doc)
        with pytest.raises(ScenarioError, match="id"):
            load_scenario(scn)
        code = main(["run", "--scenario", str(scn), "--algo", "vo",
                     "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rectangle_id_may_contain_dash(self, tmp_path):
        doc = full_doc()
        doc["rectangles"][0]["id"] = "block-1"
        assert load_scenario(write_scenario(tmp_path, doc)).rectangles[0].id == "block-1"

    def test_invalid_json_is_scenario_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario(p)

    @pytest.mark.parametrize("given,repeated,key", [
        ('"name": "demo"', '"name": "demo", "name": "second"', "name"),
        ('"dt": 0.05', '"dt": 0.05, "dt": 0.5', "dt"),
        ('"width": 40.0', '"width": 40.0, "width": 50.0', "width"),
    ], ids=["top_level", "params", "rectangle"])
    def test_repeated_key_exits_2(self, tmp_path, capsys, given, repeated, key):
        # json.loads alone keeps the last value of a repeated key
        text = json.dumps(full_doc())
        assert text.count(given) == 1
        scn = tmp_path / "repeated.json"
        scn.write_text(text.replace(given, repeated), encoding="utf-8")
        code = main(["run", "--scenario", str(scn), "--algo", "vo", "--seed", "1",
                     "--max-steps", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"scenario error: {scn}: repeated key {key!r}\n"
        assert not (tmp_path / "o").exists()

    def test_integer_literal_over_the_digit_limit_is_invalid_json(self, tmp_path):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for an
        # integer literal longer than Python's int-string conversion limit
        p = tmp_path / "long.json"
        p.write_text(json.dumps(MINIMAL)[:-1] + ', "params": {"kp": 1' + "0" * 5000 + "}}",
                     encoding="utf-8")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(p)

    def test_non_utf8_file_is_invalid_json(self, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes(json.dumps({**MINIMAL, "name": "caf\u00e9"}, ensure_ascii=False)
                      .encode("latin-1"))
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(p)

    def test_endpoint_feasibility_checked(self, tmp_path):
        doc = full_doc()
        doc["uavs"][0]["start"] = [150.0, 150.0]  # inside r1
        with pytest.raises(ScenarioError, match="inflated"):
            load_scenario(write_scenario(tmp_path, doc))
        doc = full_doc()
        doc["uavs"][0]["goal"] = [500.0, 20.0]  # outside bounds
        with pytest.raises(ScenarioError, match="bounds"):
            load_scenario(write_scenario(tmp_path, doc))

    # Points on the inflation margin of one rectangle where the old loader rule
    # (point_rect_distance > inflation) and the planner's edge test disagreed:
    # the loader accepted them and the planner then rejected them.
    @pytest.mark.parametrize("role", ["start", "goal"])
    @pytest.mark.parametrize("point,center,width,height", [
        ([13.684237587473847, 212.52595986824264],
         [48.26645906597901, 174.9852974724378], 49.26007090206033, 73.12787320579396),
        ([38.925360145051584, 2.164725080050518],
         [44.439112966263764, 21.45105441776563], 1.8665901440353632, 20.794086538405935),
    ])
    def test_endpoint_on_the_inflation_margin_rejected(self, tmp_path, capsys, role,
                                                       point, center, width, height):
        other = [350.0, 350.0]
        doc = {
            "rectangles": [{"id": "r", "center": center, "width": width, "height": height}],
            "uavs": [{"id": "u1", "start": point if role == "start" else other,
                      "goal": other if role == "start" else point}],
            "params": {"inflation": 10.0},
        }
        scn = write_scenario(tmp_path, doc)
        with pytest.raises(ScenarioError, match=rf"uav 'u1': {role} .* inflated obstacle 'r'"):
            load_scenario(scn)
        code = main(["plan", "--scenario", str(scn), "--seed", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err

    # Long edges make the planner's projection onto an edge round differently
    # from the corner distance, which is where the two rules used to part.
    @settings(max_examples=500, deadline=None)
    @given(cx=st.floats(100.0, 300.0), cy=st.floats(100.0, 300.0),
           width=st.floats(100.0, 200.0), height=st.floats(100.0, 200.0),
           inflation=st.floats(0.5, 20.0), corner=st.integers(0, 3),
           angle=st.floats(0.0, math.pi / 2), ulps=st.tuples(st.integers(-3, 3),
                                                              st.integers(-3, 3)),
           role=st.sampled_from(["start", "goal"]))
    def test_accepted_endpoints_are_plannable(self, cx, cy, width, height, inflation,
                                              corner, angle, ulps, role):
        # a point on the inflation arc around one rectangle corner, nudged by a
        # few ulps per axis, so it falls on either side of the margin
        sx, sy = ((1, 1), (-1, 1), (-1, -1), (1, -1))[corner]
        point = []
        for c, half, s, trig, k in ((cx, width / 2, sx, math.cos, ulps[0]),
                                    (cy, height / 2, sy, math.sin, ulps[1])):
            v = c + s * half + s * inflation * trig(angle)
            for _ in range(abs(k)):
                v = math.nextafter(v, math.copysign(math.inf, k))
            point.append(v)
        other = [400.0, 0.0]
        doc = {
            "rectangles": [{"id": "r", "center": [cx, cy], "width": width, "height": height}],
            "uavs": [{"id": "u1", "start": point if role == "start" else other,
                      "goal": other if role == "start" else point}],
            "params": {"inflation": inflation, "max_iters": 1},
        }
        with tempfile.TemporaryDirectory() as tmp:
            try:
                scenario = load_scenario(write_scenario(Path(tmp), doc))
            except ScenarioError:
                return
        try:
            plan_paths(scenario, 1)  # a ValueError here fails the test
        except PlanningError:
            pass  # one iteration rarely reaches the goal; that is not an endpoint fault

    def test_contact_is_not_overlap(self, tmp_path):
        # bodies exactly 2 * uav_radius apart touch without overlapping (strict
        # <, as in the collision scan), and a rectangle may touch the bounds
        doc = full_doc()  # uav_radius 10, bounds 0..300, r1 is 40 x 30
        doc["uavs"][1]["start"] = [40.0, 20.0]
        doc["uavs"][1]["goal"] = [280.0, 260.0]
        doc["rectangles"][0]["center"] = [280.0, 150.0]
        s = load_scenario(write_scenario(tmp_path, doc))
        assert s.uavs[1].start == Vec2(40.0, 20.0)
        assert s.rectangles[0].max_x == 300.0

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "nope.json")


class TestSaveScenario:
    def test_round_trip_identity(self, tmp_path):
        first = load_scenario(write_scenario(tmp_path, full_doc()))
        out = tmp_path / "echo.json"
        save_scenario(first, out)
        again = load_scenario(out)
        # name comes from the document, so the full dataclass must match
        assert again == first
        # and saving the reloaded scenario is byte-stable
        out2 = tmp_path / "echo2.json"
        save_scenario(again, out2)
        assert out.read_text() == out2.read_text()

    @pytest.mark.parametrize("scenario", sorted(p.name for p in SCENARIOS.glob("*.json")))
    def test_written_params_match_shipped_file(self, tmp_path, scenario):
        # `run` writes scenario.json with save_scenario: same keys, values, order
        shipped = json.loads((SCENARIOS / scenario).read_text())["params"]
        save_scenario(load_scenario(SCENARIOS / scenario), tmp_path / "echo.json")
        written = json.loads((tmp_path / "echo.json").read_text())["params"]
        assert list(written.items()) == list(shipped.items())
        assert [type(v) for v in written.values()] == [type(v) for v in shipped.values()]


_FILE_KEYS = [f.name for f in fields(Params) if f.name not in ("algorithm", "bounds")]
_POSITIVE = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)
_KEY_VALUES = {key: _POSITIVE for key in _FILE_KEYS}
# max_steps: what one UAV may take (`_documents` draws fewer UAVs for more steps)
_KEY_VALUES.update(max_steps=st.integers(1, MAX_UAV_STEPS), max_iters=st.integers(1, 10**9),
                   goal_bias=st.floats(0.0, 1.0),
                   inflation=st.floats(0.0, 1e6, allow_nan=False))


def _is_valid(params):
    try:
        Params(**params)
    except ValueError:
        return False
    return True


class TestParamsProperties:
    def test_file_keys_are_the_saved_keys_in_order(self):
        assert _FILE_KEYS == ["kp", "dt", "dist_wp", "max_steps", "dist_uav", "dist_obs",
                              "theta_step", "mag_step", "k_att", "k_rep", "step_size",
                              "goal_bias", "max_iters", "goal_radius", "inflation",
                              "uav_radius", "obstacle_circle_radius", "circle_spacing"]

    @settings(max_examples=150, deadline=None)
    @given(params=st.fixed_dictionaries({}, optional=_KEY_VALUES).filter(_is_valid))
    def test_random_valid_params_round_trip(self, params):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            src = write_scenario(tmp, {**MINIMAL, "params": params})
            first = load_scenario(src)
            assert first.sim == Params(**params)
            assert all(type(getattr(first.sim, k)) is type(v) for k, v in params.items())
            save_scenario(first, tmp / "echo.json")
            saved = json.loads((tmp / "echo.json").read_text())["params"]
            assert list(saved) == _FILE_KEYS
            assert all(saved[k] == v for k, v in params.items())
            again = load_scenario(tmp / "echo.json")
            assert again.sim == first.sim

    @settings(max_examples=100, deadline=None)
    @given(key=st.sampled_from(["algorithm", "bounds"])
           | st.text(min_size=1).filter(lambda k: k not in _FILE_KEYS))
    def test_unknown_param_key_rejected(self, key):
        with tempfile.TemporaryDirectory() as tmp:
            src = write_scenario(Path(tmp), {**MINIMAL, "params": {key: 1.0}})
            with pytest.raises(ScenarioError, match="unknown"):
                load_scenario(src)


_UNIT = st.floats(0.0, 1.0)


@st.composite
def _documents(draw):
    """Whole documents the loader accepts: random name, bounds, rectangles, UAVs and params.

    UAV i starts and ends in the row y0 + 3 * uav_radius * i, moved up by less
    than uav_radius / 2, so no two starts or goals come within 2 * uav_radius.
    Every rectangle lies more than 500 m plus the inflation to the right of
    every endpoint, and the bounds enclose all of them with a margin of 1 m or more.
    A side is at most 6,000 circle spacings long, so the (at most four)
    rectangles need under MAX_CIRCLES boundary circles, and there are at most
    MAX_UAV_STEPS // max_steps UAVs, and at most four: six pairs at
    MAX_UAV_STEPS // 4 steps stay within MAX_PAIR_SAMPLES. `mag_step` is
    raised where the bounds would need more than MAX_SPEEDS speeds, or more
    than MAX_CANDIDATES headings times speeds.
    """
    params = draw(st.fixed_dictionaries({}, optional=_KEY_VALUES).filter(_is_valid))
    table = Params(**params)
    r = table.uav_radius
    x0, y0 = draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))
    span = draw(st.floats(0.0, 1e4))

    def endpoint(i):
        return [x0 + draw(_UNIT) * span, y0 + 3.0 * r * i + draw(_UNIT) * r / 2.0]

    uav_ids = draw(st.lists(st.from_regex(r"[A-Za-z0-9_]+", fullmatch=True), min_size=1,
                            max_size=min(4, MAX_UAV_STEPS // table.max_steps), unique=True))
    uavs = [{"id": uid, "start": endpoint(i), "goal": endpoint(i)}
            for i, uid in enumerate(uav_ids)]
    x_rect = x0 + span + table.inflation + 1e3
    side = st.floats(1e-3, min(1e3, 6e3 * table.circle_spacing))
    rect_ids = draw(st.lists(st.from_regex(r"[A-Za-z0-9_-]+", fullmatch=True),
                             max_size=4, unique=True))
    rects = [{"id": rid,
              "center": [x_rect + draw(_UNIT) * 1e3, y0 + draw(st.floats(-1e3, 1e3))],
              "width": draw(side), "height": draw(side)}
             for rid in rect_ids]
    margin = st.floats(1.0, 1e3)
    bounds = {"min_x": x0 - draw(margin), "min_y": y0 - 1.5e3 - draw(margin),
              "max_x": x_rect + 1.5e3 + draw(margin),
              "max_y": y0 + max(1.5e3, 3.0 * r * len(uavs)) + draw(margin)}
    # the speed and candidate rules read the bounds, drawn last: a mag_step
    # too small for them is doubled past the least one the rules accept
    b = Bounds(**bounds)
    top_speed = table.kp * math.hypot(b.max_x - b.min_x, b.max_y - b.min_y)
    least = max(top_speed / MAX_SPEEDS, math.tau / table.theta_step * top_speed / MAX_CANDIDATES)
    if table.mag_step < least:
        params = {**params, "mag_step": 2.0 * least}
    doc = {"bounds": bounds, "rectangles": rects, "uavs": uavs, "params": params}
    name = draw(st.none() | st.text(min_size=1))
    if name is not None:  # otherwise the loader takes the file stem
        doc["name"] = name
    return doc


class TestDocumentRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(doc=_documents())
    def test_random_documents_round_trip(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            first = load_scenario(write_scenario(tmp, doc))
            assert first.name == doc.get("name", "scn")
            save_scenario(first, tmp / "echo.json")
            again = load_scenario(tmp / "echo.json")
            assert again == first
            save_scenario(again, tmp / "echo2.json")
            assert (tmp / "echo2.json").read_bytes() == (tmp / "echo.json").read_bytes()


def _in_code(doc):
    """The `Scenario` a document written as "scn.json" describes, built in code."""
    return Scenario(
        doc.get("name", "scn"),
        tuple(RectObstacle(Vec2(*r["center"]), r["width"], r["height"], r["id"])
              for r in doc.get("rectangles", [])),
        tuple(UavSpec(u["id"], Vec2(*u["start"]), Vec2(*u["goal"])) for u in doc["uavs"]),
        Params(bounds=Bounds(**doc["bounds"]) if "bounds" in doc else DEFAULT_BOUNDS,
               **doc.get("params", {})))


def _verdict(build):
    """What `build()` returns, or the ScenarioError or ValueError it raises."""
    try:
        return build()
    except (ScenarioError, ValueError) as exc:
        return exc


@st.composite
def _mutated_documents(draw):
    """`_documents`, unchanged or with one fault that a rule of `Scenario` may catch:
    a repeated id, a `-` or `,` in an id, or an endpoint moved onto another
    endpoint, onto a rectangle, or anywhere within 3 km."""
    doc = draw(_documents())
    uavs, rects = doc["uavs"], doc["rectangles"]
    kind = draw(st.sampled_from(["none", "repeat_id", "id_char", "move_endpoint"]))
    if kind == "repeat_id":
        items = draw(st.sampled_from([uavs, rects] if len(rects) > 1 else [uavs]))
        if len(items) > 1:
            i, j = draw(st.lists(st.integers(0, len(items) - 1), min_size=2, max_size=2,
                                 unique=True))
            items[j]["id"] = items[i]["id"]
    elif kind == "id_char":
        item = draw(st.sampled_from(uavs + rects))
        k = draw(st.integers(0, len(item["id"])))
        item["id"] = item["id"][:k] + draw(st.sampled_from("-,")) + item["id"][k:]
    elif kind == "move_endpoint":
        u = draw(st.sampled_from(uavs))
        end = draw(st.sampled_from(["start", "goal"]))
        targets = [p for v in uavs for p in (v["start"], v["goal"])]
        targets += [r["center"] for r in rects]
        x, y = draw(st.sampled_from(targets))
        offset = draw(st.sampled_from([1.0, 10.0, 3e3]))
        u[end] = [x + draw(st.floats(-offset, offset)), y + draw(st.floats(-offset, offset))]
    return doc


class TestOneVerdict:
    """A file and the same scenario built in code meet the same rules, in `Scenario`."""

    @settings(max_examples=200, deadline=None)
    @given(doc=_mutated_documents())
    def test_loader_and_code_agree(self, doc):
        # both accept, with equal scenarios, or both reject, the loader naming the same fault
        with tempfile.TemporaryDirectory() as tmp:
            loaded = _verdict(lambda: load_scenario(write_scenario(Path(tmp), doc)))
        built = _verdict(lambda: _in_code(doc))
        if isinstance(built, Exception):
            assert isinstance(loaded, ScenarioError), loaded
            assert str(loaded).endswith(str(built))
        else:
            assert loaded == built

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d["uavs"][1].update(id="u1"), "uav ids must be unique"),
        (lambda d: d["rectangles"].append({**d["rectangles"][0], "center": [50.0, 150.0]}),
         "rectangle ids must be unique"),
        (lambda d: d["uavs"][0].update(id="u-1"),
         "uavs[0].id 'u-1' must not contain '-', the separator of pair labels"),
        (lambda d: d["uavs"][1].update(id="u,2"),
         "uavs[1].id must be a non-empty string of [A-Za-z0-9_-], got 'u,2'"),
        (lambda d: d["rectangles"][0].update(id="r,1"),
         "rectangles[0].id must be a non-empty string of [A-Za-z0-9_-], got 'r,1'"),
        (lambda d: d["rectangles"][0].update(center=[290.0, 150.0]),
         "rectangle 'r1' is not fully inside the workspace bounds"),
        (lambda d: d["uavs"][1].update(goal=[150.0, 175.0]),
         "uav 'u2': goal Vec2(x=150.0, y=175.0) lies within the inflated obstacle 'r1'"),
        (lambda d: d["uavs"][1].update(start=[25.0, 20.0]),
         "uavs 'u1' and 'u2' starts are closer than 2 * uav_radius (20.0); the bodies overlap"),
        (lambda d: d["params"].update(circle_spacing=1e-3),
         f"params: circle_spacing 0.001 is too small for the rectangles: they would need "
         f"more than {MAX_CIRCLES} boundary circles"),
        (lambda d: d["params"].update(max_steps=MAX_UAV_STEPS // 2 + 1),
         f"params: max_steps * len(uavs) = {MAX_UAV_STEPS // 2 + 1} * 2 is more than "
         f"{MAX_UAV_STEPS}, the UAV-steps one run may record"),
    ])
    def test_each_rule_gives_one_message(self, tmp_path, mutate, message):
        doc = full_doc()
        mutate(doc)
        with pytest.raises(ScenarioError) as from_code:
            _in_code(doc)
        assert str(from_code.value) == message
        with pytest.raises(ScenarioError) as from_file:
            load_scenario(write_scenario(tmp_path, doc))
        assert str(from_file.value) == message

    def test_head_on_duel_with_two_uavs_named_a_rejected(self, tmp_path):
        # built in code, this scenario used to run: its report held one path
        # length for two UAVs and no pair distance
        sc = load_scenario(SCENARIOS / "head_on_duel.json")
        a, b = sc.uavs
        with pytest.raises(ScenarioError, match="^uav ids must be unique$"):
            replace(sc, uavs=(a, replace(b, id="a")))
        doc = json.loads((SCENARIOS / "head_on_duel.json").read_text())
        doc["uavs"][1]["id"] = "a"
        with pytest.raises(ScenarioError, match="^uav ids must be unique$"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_loading_computes_one_clearance_limit(self, monkeypatch):
        calls, clearance_limit = [], rrt_planner._clearance_limit

        def counted(obstacles, params):
            calls.append(len(obstacles))
            return clearance_limit(obstacles, params)

        monkeypatch.setattr(rrt_planner, "_clearance_limit", counted)
        sc = load_scenario(SCENARIOS / "paper_like_7uav.json")
        assert len(sc.uavs) == 7 and calls == [12]


class TestUavStepLimit:
    def test_limit_is_inclusive(self, tmp_path):
        at_limit = {**full_doc(), "params": {"max_steps": MAX_UAV_STEPS // 2}}
        assert load_scenario(write_scenario(tmp_path, at_limit)).sim.max_steps == MAX_UAV_STEPS // 2
        over = {**full_doc(), "params": {"max_steps": MAX_UAV_STEPS // 2 + 1}}
        with pytest.raises(ScenarioError, match=f"is more than {MAX_UAV_STEPS}, the UAV-steps"):
            load_scenario(write_scenario(tmp_path, over))

    def test_max_steps_over_the_limit_exits_2(self, tmp_path, capsys):
        # the file is within the limit; run's table, with --max-steps, is not
        scn = write_scenario(tmp_path, MINIMAL)
        code = main(["run", "--scenario", str(scn), "--algo", "vo", "--seed", "1",
                     "--out", str(tmp_path / "o"), "--max-steps", str(MAX_UAV_STEPS + 1)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"scenario error: params: max_steps * len(uavs) = {MAX_UAV_STEPS + 1} "
                       f"* 1 is more than {MAX_UAV_STEPS}, the UAV-steps one run may record\n")
        assert not (tmp_path / "o").exists()


def _fleet(n, height=400.0):
    """n UAVs on a 50 m grid, seven to a row, each flying to the mirror of its
    start row in bounds `height` tall."""
    return [{"id": f"u{i}", "start": [25.0 + 50.0 * (i % 7), 25.0 + 50.0 * (i // 7)],
             "goal": [25.0 + 50.0 * (i % 7), height - 25.0 - 50.0 * (i // 7)]}
            for i in range(n)]


class TestPairSampleLimit:
    # 42 UAVs have 861 pairs. STEPS, the most steps whose pair samples stay
    # within MAX_PAIR_SAMPLES, and one more both stay within MAX_UAV_STEPS, so
    # only the pair rule tells the two apart.
    N = 42
    STEPS = MAX_PAIR_SAMPLES // (N * (N - 1) // 2)

    def test_the_most_steps_within_the_limit_load(self, tmp_path):
        assert (self.STEPS + 1) * self.N <= MAX_UAV_STEPS
        at_limit = {"uavs": _fleet(self.N), "params": {"max_steps": self.STEPS}}
        sc = load_scenario(write_scenario(tmp_path, at_limit))
        assert len(sc.uavs) == self.N and sc.sim.max_steps == self.STEPS

    def test_one_step_over_the_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        over = {"uavs": _fleet(self.N), "params": {"max_steps": self.STEPS + 1}}
        scn = write_scenario(tmp_path, over)
        # were the table accepted, a run this long would take minutes and gigabytes
        monkeypatch.setattr(scenario_cli, "run", lambda *args: pytest.fail("the run started"))
        code = main(["run", "--scenario", str(scn), "--algo", "vo", "--seed", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"scenario error: params: max_steps * len(uavs) * (len(uavs) - 1) / 2 = "
            f"{self.STEPS + 1} * {self.N} * {self.N - 1} / 2 is more than {MAX_PAIR_SAMPLES}, "
            f"the pair samples one run may record\n")
        assert not (tmp_path / "o").exists()

    def test_a_hundred_uavs_at_50000_steps_rejected(self, tmp_path):
        # within MAX_UAV_STEPS, but 247,500,000 pair samples
        doc = {"bounds": {"min_x": 0.0, "min_y": 0.0, "max_x": 400.0, "max_y": 800.0},
               "uavs": _fleet(100, 800.0), "params": {"max_steps": 50_000}}
        assert 100 * 50_000 <= MAX_UAV_STEPS
        with pytest.raises(ScenarioError, match=r"= 50000 \* 100 \* 99 / 2 is more than"):
            load_scenario(write_scenario(tmp_path, doc))


_GAIN = st.floats(0.1, 60.0)
_RUN_FILES = ["distances.csv", "events.json", "report.json", "scenario.json", "trajectories.csv"]


def _clear_of(rect, points, r):
    """True when every point lies more than r (plus a hair) from the solid rectangle."""
    for x, y in points:
        dx = max(rect["center"][0] - rect["width"] / 2.0 - x, 0.0,
                 x - rect["center"][0] - rect["width"] / 2.0)
        dy = max(rect["center"][1] - rect["height"] / 2.0 - y, 0.0,
                 y - rect["center"][1] - rect["height"] / 2.0)
        if math.hypot(dx, dy) <= r + 1e-6:
            return False
    return True


@st.composite
def _obstacle_documents(draw):
    """Documents with rectangles between and around the endpoints, in a 200 m square.

    One to three UAVs cross the square, each in its own row 3 * uav_radius
    apart and moved by less than uav_radius / 2, so no two starts or goals
    come within 2 * uav_radius. Each rectangle is a 1-2 m thin wall, up or
    across, or a block, centred near an endpoint or on the way between a
    start and its goal. A rectangle is cut to the bounds, and dropped when
    that leaves it under 1 m across or when it comes within uav_radius (the
    default inflation) of an endpoint, so the loader accepts most documents.
    """
    r, dt = draw(st.floats(0.5, 12.0)), draw(st.floats(0.05, 1.0))
    params = {"uav_radius": r, "dt": dt, "kp": draw(st.floats(0.01, 0.99)) * 2.0 / dt,
              "k_att": draw(_GAIN), "k_rep": draw(_GAIN),
              "dist_wp": draw(st.floats(1.0, 15.0)), "step_size": draw(st.floats(5.0, 20.0)),
              "goal_bias": draw(st.sampled_from([0.05, 0.5, 1.0])),
              "max_iters": 300, "max_steps": draw(st.integers(1, 40))}
    uavs = []
    for i in range(draw(st.integers(1, 3))):
        y = 40.0 + 3.0 * r * i
        ends = [[draw(st.floats(5.0, 60.0)), y + draw(_UNIT) * r / 2.0],
                [draw(st.floats(140.0, 195.0)), y + draw(_UNIT) * r / 2.0]]
        if draw(st.booleans()):
            ends.reverse()
        uavs.append({"id": f"u{i}", "start": ends[0], "goal": ends[1]})
    endpoints = [u[k] for u in uavs for k in ("start", "goal")]
    thin, long, block = st.floats(1.0, 2.0), st.floats(5.0, 80.0), st.floats(1.0, 40.0)
    rects = []
    for i in range(draw(st.integers(1, 6))):
        u = draw(st.sampled_from(uavs))
        t = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.2, 0.8))
        cx = u["start"][0] + (u["goal"][0] - u["start"][0]) * t + draw(st.floats(-30.0, 30.0))
        cy = u["start"][1] + (u["goal"][1] - u["start"][1]) * t + draw(st.floats(-30.0, 30.0))
        shape = draw(st.sampled_from(["wall_up", "wall_across", "block"]))
        w, h = {"wall_up": (thin, long), "wall_across": (long, thin),
                "block": (block, block)}[shape]
        w, h = draw(w) / 2.0, draw(h) / 2.0
        # cut to the bounds
        x0, x1 = max(cx - w, 0.0), min(cx + w, 200.0)
        y0, y1 = max(cy - h, 0.0), min(cy + h, 200.0)
        if x1 - x0 < 1.0 or y1 - y0 < 1.0:
            continue
        rect = {"id": f"r{i}", "center": [(x0 + x1) / 2.0, (y0 + y1) / 2.0],
                "width": x1 - x0, "height": y1 - y0}
        if _clear_of(rect, endpoints, r):
            rects.append(rect)
    return {"bounds": {"min_x": 0.0, "min_y": 0.0, "max_x": 200.0, "max_y": 200.0},
            "rectangles": rects, "uavs": uavs, "params": params}


# accepted by the loader, but APF lands exactly on its next waypoint at step 1:
# goal_bias 1 plans (10, 100), (20, 100), ..., k_att * dt is 20 m, and dist_wp
# 10.5 then skips the waypoint behind the UAV to the one it sits on
_ON_WAYPOINT = {"bounds": {"min_x": 0, "min_y": 0, "max_x": 200, "max_y": 200},
                "uavs": [{"id": "a", "start": [10, 100], "goal": [100, 100]}],
                "params": {"dt": 0.5, "k_att": 40, "goal_bias": 1.0, "dist_wp": 10.5}}


# rejected by the loader: 200 m over 5e-324 m is inf, and placing the circles
# along the 10 m edges would take `math.ceil(inf)`
_TINY_SPACING = {"bounds": {"min_x": 0, "min_y": 0, "max_x": 200, "max_y": 200},
                 "rectangles": [{"id": "r", "center": [100, 100], "width": 10, "height": 10}],
                 "uavs": [{"id": "a", "start": [10, 20], "goal": [190, 20]}],
                 "params": {"obstacle_circle_radius": 5e-324, "circle_spacing": 5e-324}}


# loader-accepted before MAX_CIRCLES: 200 m over 1e-300 m is finite, but the
# 10 m edges would take 4e301 circles, which exhausts memory long before
_HUGE_CIRCLE_COUNT = {**_TINY_SPACING,
                      "params": {"obstacle_circle_radius": 1.0, "circle_spacing": 1e-300}}


def _square_needing(side):
    """A document whose one square rectangle of `side` metres needs 4 * ceil(side) circles."""
    return {"bounds": {"min_x": 0, "min_y": 0, "max_x": 30000, "max_y": 30000},
            "rectangles": [{"id": "r", "center": [15000, 15000], "width": side,
                            "height": side}],
            "uavs": [{"id": "a", "start": [100, 100], "goal": [200, 100]}],
            "params": {"circle_spacing": 1.0}}


def _cli_codes(scn, tmp, seed, max_steps=40):
    """Exit codes of `run` under both algorithms and of `compare`, checking what each wrote."""
    codes = []
    for algo in ("vo", "apf"):
        out = tmp / algo
        codes.append(main(["run", "--scenario", str(scn), "--algo", algo, "--seed", str(seed),
                           "--max-steps", str(max_steps), "--out", str(out)]))
        if codes[-1] == 0:
            assert sorted(p.name for p in out.iterdir()) == _RUN_FILES
        else:
            assert not out.exists()
    out = tmp / "cmp"
    codes.append(main(["compare", "--scenario", str(scn), "--seeds", str(seed),
                       "--out", str(out)]))
    # compare creates --out first; a planning failure writes nothing into it
    contents = sorted(p.name for p in out.iterdir())
    assert contents == (["compare.csv", f"seed_{seed}"] if codes[-1] == 0 else [])
    return codes


class TestObstacleDocumentsRun:
    """Every document the loader accepts runs under both controllers: exit 0,
    or exit 3 when the planner runs out of iterations."""

    @settings(max_examples=30, deadline=None)
    @given(doc=_obstacle_documents(), seed=st.integers(1, 2**16))
    def test_run_and_compare_exit_0_or_3(self, doc, seed):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            scn = write_scenario(tmp, doc)
            try:
                load_scenario(scn)
            except ScenarioError:
                return  # a file the loader rejects is skipped
            codes = _cli_codes(scn, tmp, seed)
            # the three commands plan the same paths from the same seed
            assert codes in ([0, 0, 0], [3, 3, 3])

    def test_apf_on_its_next_waypoint_completes(self, tmp_path):
        scn = write_scenario(tmp_path, _ON_WAYPOINT)
        # VO arrives in 54 steps and APF, which sits on its waypoint at step 2, in 10
        assert _cli_codes(scn, tmp_path, 1, max_steps=200) == [0, 0, 0]
        for algo in ("vo", "apf"):
            assert json.loads((tmp_path / algo / "report.json").read_text())["completed"] is True

    def test_spacing_with_no_finite_circle_count_exits_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, _TINY_SPACING)
        with pytest.raises(ScenarioError, match="params: circle_spacing is too small"):
            load_scenario(scn)
        assert main(["run", "--scenario", str(scn), "--algo", "vo", "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "circle_spacing is too small" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_circle_count_over_the_limit_exits_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, _HUGE_CIRCLE_COUNT)
        with pytest.raises(ScenarioError, match=f"more than {MAX_CIRCLES} boundary circles"):
            load_scenario(scn)
        assert main(["run", "--scenario", str(scn), "--algo", "vo", "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert f"more than {MAX_CIRCLES} boundary circles" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_circle_limit_is_inclusive(self, tmp_path):
        at_limit = load_scenario(write_scenario(tmp_path, _square_needing(MAX_CIRCLES / 4)))
        assert circle_count(at_limit.rectangles[0], at_limit.sim) == MAX_CIRCLES
        with pytest.raises(ScenarioError, match="boundary circles"):
            load_scenario(write_scenario(tmp_path, _square_needing(MAX_CIRCLES / 4 + 0.5)))

    def test_theta_step_over_the_heading_limit_exits_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, {**MINIMAL, "params": {"theta_step": 1e-9}})
        message = (f"params: theta_step 1e-09 is too small: the VO search would need more "
                   f"than {MAX_HEADINGS} headings (2*pi / theta_step)")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(scn)
        assert str(exc.value) == message
        assert main(["run", "--scenario", str(scn), "--algo", "vo", "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"scenario error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_speed_limit_is_inclusive_and_one_below_exits_2(self, tmp_path, capsys):
        # a 1875 x 2500 m map has a 3125 m diagonal, which kp 1 covers in
        # exactly MAX_SPEEDS steps of 3125 / MAX_SPEEDS
        at_limit = 3125.0 / MAX_SPEEDS
        assert 1.0 * math.hypot(1875.0, 2500.0) / at_limit == MAX_SPEEDS
        doc = {**MINIMAL, "bounds": {"min_x": 0.0, "min_y": 0.0, "max_x": 1875.0, "max_y": 2500.0},
               "params": {"kp": 1.0, "mag_step": at_limit}}
        args = ["run", "--algo", "vo", "--seed", "1", "--scenario"]
        assert main(args + [str(write_scenario(tmp_path, doc)), "--out", str(tmp_path / "at")]) == 0
        below = math.nextafter(at_limit, 0.0)
        doc["params"] = {"kp": 1.0, "mag_step": below}
        assert main(args + [str(write_scenario(tmp_path, doc)), "--out", str(tmp_path / "o")]) == 2
        message = (f"params: mag_step {below} is too small: the VO search would need more "
                   f"than {MAX_SPEEDS} speeds to cover kp * the bounds diagonal (3125.0)")
        assert capsys.readouterr().err == f"scenario error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_candidate_limit_is_inclusive_and_one_step_past_exits_2(self, tmp_path, capsys):
        # 2*pi / theta_step is MAX_HEADINGS, and kp 1 covers the 3125 m
        # diagonal of a 1875 x 2500 m map in MAX_CANDIDATES / MAX_HEADINGS steps
        theta_step = math.tau / MAX_HEADINGS
        at_limit = 3125.0 * MAX_HEADINGS / MAX_CANDIDATES
        assert math.tau / theta_step * (3125.0 / at_limit) == MAX_CANDIDATES
        doc = {**MINIMAL, "bounds": {"min_x": 0.0, "min_y": 0.0, "max_x": 1875.0, "max_y": 2500.0},
               "params": {"kp": 1.0, "theta_step": theta_step, "mag_step": at_limit}}
        assert load_scenario(write_scenario(tmp_path, doc)).sim.mag_step == at_limit
        below = math.nextafter(at_limit, 0.0)
        doc["params"]["mag_step"] = below
        scn = write_scenario(tmp_path, doc)
        assert main(["run", "--algo", "vo", "--seed", "1", "--scenario", str(scn),
                     "--out", str(tmp_path / "o")]) == 2
        message = (f"params: theta_step {theta_step} and mag_step {below} are too small "
                   f"together: the VO search would need more than {MAX_CANDIDATES} candidates "
                   f"(2*pi / theta_step headings times kp * the bounds diagonal (3125.0) / "
                   f"mag_step speeds)")
        assert capsys.readouterr().err == f"scenario error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_steps_each_within_their_limit_may_exceed_the_candidate_limit(self, tmp_path):
        # about 9,970 headings times 99,000 speeds over a 400 m square
        doc = {**MINIMAL, "params": {"theta_step": 6.3e-4, "mag_step": 0.00114}}
        assert math.tau / 6.3e-4 <= MAX_HEADINGS
        assert 0.2 * math.hypot(400.0, 400.0) / 0.00114 <= MAX_SPEEDS
        with pytest.raises(ScenarioError, match="theta_step 0.00063 and mag_step 0.00114 are "
                                                "too small together"):
            load_scenario(write_scenario(tmp_path, doc))
        assert main(["run", "--algo", "vo", "--seed", "1", "--scenario",
                     str(write_scenario(tmp_path, doc)), "--out", str(tmp_path / "o")]) == 2


class TestExportResult:
    def test_files_and_formats(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, {
            "uavs": [
                {"id": "u1", "start": [20.0, 200.0], "goal": [100.0, 200.0]},
                {"id": "u2", "start": [20.0, 250.0], "goal": [100.0, 250.0]},
            ],
        }))
        result = run(scenario, Params(max_steps=50), seed=2)
        report = build_report(result)
        out = tmp_path / "out"
        export_result(result, report, out)

        traj = (out / "trajectories.csv").read_text().splitlines()
        assert traj[0] == "t,uav_id,x,y,vx,vy"
        assert traj[1].startswith("0.000000,u1,20.000000,200.000000,")
        assert traj[2].startswith("0.000000,u2,")
        # time-major: two uavs per time row, steps+1 samples
        assert len(traj) == 1 + 2 * (result.steps + 1)
        for line in traj[1:]:
            cells = line.split(",")
            assert len(cells) == 6
            for cell in (cells[0], *cells[2:]):
                assert "." in cell and len(cell.split(".")[1]) == 6

        dist = (out / "distances.csv").read_text().splitlines()
        assert dist[0] == "t,u1-u2"
        assert dist[1] == "0.000000,50.000000"
        assert len(dist) == 1 + result.steps + 1

        events = json.loads((out / "events.json").read_text())
        assert isinstance(events, list)
        assert all(set(e) == {"t", "kind", "details"} for e in events)

        rep = json.loads((out / "report.json").read_text())
        assert rep["algorithm"] == "vo"
        assert set(rep["path_lengths"]) == {"u1", "u2"}
        assert rep["pair_min_distances"]["u1-u2"] == pytest.approx(50.0)
        assert "collision_counts" in rep and "empty_feasible_set_events" in rep

    def test_collision_marker_in_report_json(self, tmp_path):
        # with no inflation both starts may lie 10 m from the rectangle, within
        # the 12 m bodies: both UAVs collide at t = 0
        scenario = load_scenario(write_scenario(tmp_path, {
            "rectangles": [{"id": "r", "center": [25.0, 215.0], "width": 10.0, "height": 10.0}],
            "uavs": [
                {"id": "u1", "start": [20.0, 200.0], "goal": [120.0, 200.0]},
                {"id": "u2", "start": [30.0, 230.0], "goal": [130.0, 230.0]},
            ],
            "params": {"inflation": 0.0, "max_steps": 3},
        }))
        result = run_planned(scenario, scenario.sim, plan_paths(scenario, 2))
        report = build_report(result)
        out = tmp_path / "out"
        export_result(result, report, out)
        rep = json.loads((out / "report.json").read_text())
        assert rep["path_lengths"]["u1"] == "collision"
        assert rep["path_lengths"]["u2"] == "collision"


class TestSeedRange:
    def test_forms(self):
        assert list(_parse_seed_range("5")) == [5]
        assert list(_parse_seed_range("1..4")) == [1, 2, 3, 4]
        assert list(_parse_seed_range("-2..1")) == [-2, -1, 0, 1]
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_seed_range("4..1")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_seed_range("1..2..3")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_seed_range("abc")

    def test_huge_range_is_not_materialised(self):
        # seeds run one at a time: parsing holds no list of 10**15 + 1 ints
        seeds = _parse_seed_range("0..1000000000000000")
        assert len(seeds) == 10**15 + 1
        assert (seeds[0], seeds[-1]) == (0, 10**15)

    def test_bad_range_exits_2_before_the_scenario_is_read(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--scenario", str(tmp_path / "absent.json"),
                  "--seeds", "4..1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seeds" in err and "end below start" in err
        assert not (tmp_path / "o").exists()


class TestCliMain:
    def test_run_success(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "results"
        code = main(["run", "--scenario", str(scn), "--algo", "vo",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        for fname in ("trajectories.csv", "distances.csv", "events.json",
                      "report.json", "scenario.json"):
            assert (out / fname).exists()
        captured = capsys.readouterr().out
        assert "completed" in captured
        # the echoed scenario reproduces the run configuration
        echoed = load_scenario(out / "scenario.json")
        assert echoed.uavs == load_scenario(scn).uavs

    def test_run_apf(self, tmp_path):
        scn = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "results_apf"
        code = main(["run", "--scenario", str(scn), "--algo", "apf",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["algorithm"] == "apf"

    def test_max_steps_override(self, tmp_path):
        scn = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "short"
        code = main(["run", "--scenario", str(scn), "--algo", "vo",
                     "--seed", "3", "--out", str(out), "--max-steps", "5"])
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["steps"] == 5 and rep["completed"] is False

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_max_steps_exit_2(self, tmp_path, capsys, value):
        scn = write_scenario(tmp_path, MINIMAL)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", str(scn), "--algo", "vo", "--seed", "1",
                  "--out", str(tmp_path / "o"), "--max-steps", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--max-steps" in err and "must be > 0" in err
        assert "simulation error" not in err
        assert not (tmp_path / "o").exists()

    def test_scenario_error_exit_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, {"uavs": []})
        code = main(["run", "--scenario", str(scn), "--algo", "vo",
                     "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err

    @pytest.mark.parametrize("params", ['{"inflation": null}', '{"kp": 1' + "0" * 400 + "}",
                                        '{"kp": 1' + "0" * 5000 + "}"],
                             ids=["null", "400_digits", "5000_digits"])
    def test_unloadable_params_exit_2(self, tmp_path, capsys, params):
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps(MINIMAL)[:-1] + f', "params": {params}}}', encoding="utf-8")
        code = main(["run", "--scenario", str(scn), "--algo", "vo",
                     "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_overflowing_bounds_extent_exit_2(self, tmp_path, capsys):
        doc = {**MINIMAL, "bounds": {"min_x": -1e308, "min_y": -1e308,
                                     "max_x": 1e308, "max_y": 1e308}}
        scn = write_scenario(tmp_path, doc)
        code = main(["plan", "--scenario", str(scn), "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "scenario error" in err and "extent must be finite" in err
        assert not (tmp_path / "o").exists()

    def test_planning_failure_exit_3(self, tmp_path, capsys):
        doc = {
            "rectangles": [
                {"id": "t", "center": [200.0, 245.0], "width": 110.0, "height": 10.0},
                {"id": "b", "center": [200.0, 155.0], "width": 110.0, "height": 10.0},
                {"id": "l", "center": [155.0, 200.0], "width": 10.0, "height": 110.0},
                {"id": "r", "center": [245.0, 200.0], "width": 10.0, "height": 110.0},
            ],
            "uavs": [{"id": "u1", "start": [20.0, 20.0], "goal": [200.0, 200.0]}],
            "params": {"max_iters": 1500},
        }
        scn = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", str(scn), "--algo", "vo",
                     "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "planning error" in capsys.readouterr().err

    def test_io_error_exit_4(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, MINIMAL)
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = main(["run", "--scenario", str(scn), "--algo", "vo",
                     "--seed", "1", "--out", str(blocker / "sub")])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["vo", "apf"])
    def test_shared_start_exit_2(self, tmp_path, capsys, algo):
        scn = write_scenario(tmp_path, {"uavs": [
            {"id": "u1", "start": [20.0, 200.0], "goal": [120.0, 200.0]},
            {"id": "u2", "start": [20.0, 200.0], "goal": [120.0, 260.0]},
        ]})
        code = main(["run", "--scenario", str(scn), "--algo", algo,
                     "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_engine_value_error_exit_5(self, tmp_path, capsys, monkeypatch):
        import utm_sim.scenario_cli as cli

        def broken_run(*args, **kwargs):
            raise ValueError("non-finite vector components (nan, 0.0)")

        monkeypatch.setattr(cli, "run", broken_run)
        scn = write_scenario(tmp_path, MINIMAL)
        code = main(["run", "--scenario", str(scn), "--algo", "vo",
                     "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 5
        err = capsys.readouterr().err
        assert "simulation error" in err and "non-finite" in err
        assert "scenario error" not in err

    def _head_on_duel_copy(self, tmp_path, kp):
        doc = json.loads((SCENARIOS / "head_on_duel.json").read_text())
        doc["params"].update(kp=kp, dt=1.0, max_steps=4000)
        return write_scenario(tmp_path, doc, f"duel_kp{kp}.json")

    @pytest.mark.parametrize("kp", [2.0, 3.0])
    def test_divergent_kp_dt_exit_2(self, tmp_path, capsys, kp):
        # at kp * dt >= 2 the nominal step overshoots the waypoint by at least
        # as much as it started off, so the run could never arrive
        scn = self._head_on_duel_copy(tmp_path, kp)
        code = main(["run", "--scenario", str(scn), "--algo", "vo",
                     "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "scenario error" in err and f"kp={kp}, dt=1.0" in err
        assert not (tmp_path / "o").exists()

    def test_kp_dt_just_below_2_completes(self, tmp_path):
        scn = self._head_on_duel_copy(tmp_path, 1.9)
        out = tmp_path / "o"
        code = main(["run", "--scenario", str(scn), "--algo", "vo",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        assert json.loads((out / "report.json").read_text())["completed"] is True

    def test_runs_without_numpy(self, tmp_path):
        # numpy is a test dependency only; a None entry in sys.modules makes
        # any `import numpy` raise, so a returning import fails here
        scn = SCENARIOS / "paper_like_5uav.json"
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from utm_sim.scenario_cli import main\n"
            f"assert main(['plan', '--scenario', {str(scn)!r}, '--seed', '1',"
            f" '--out', {str(tmp_path / 'plan')!r}]) == 0\n"
            f"assert main(['run', '--scenario', {str(scn)!r}, '--algo', 'vo', '--seed', '1',"
            f" '--max-steps', '40', '--out', {str(tmp_path / 'run')!r}]) == 0\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "plan" / "waypoints.csv").exists()
        assert (tmp_path / "run" / "trajectories.csv").exists()

    def test_module_form_runs_without_a_warning(self, tmp_path):
        # `-W error` makes any warning, runpy's included, fail the command
        out = tmp_path / "run"
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "utm_sim", "run",
                               "--scenario", str(SCENARIOS / "head_on_duel.json"),
                               "--algo", "vo", "--seed", "1", "--out", str(out)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (out / "trajectories.csv").exists()

    def test_missing_scenario_file_exit_4(self, tmp_path):
        code = main(["run", "--scenario", str(tmp_path / "absent.json"),
                     "--algo", "vo", "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 4

    def test_plan_command(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "plan_out"
        code = main(["plan", "--scenario", str(scn), "--seed", "9", "--out", str(out)])
        assert code == 0
        lines = (out / "waypoints.csv").read_text().splitlines()
        assert lines[0] == "uav_id,waypoint_index,x,y"
        assert lines[1].startswith("u1,0,20.000000,200.000000")
        assert "waypoints" in capsys.readouterr().out

    def test_compare_command(self, tmp_path, capsys):
        doc = {
            "uavs": [
                {"id": "u1", "start": [20.0, 200.0], "goal": [120.0, 200.0]},
                {"id": "u2", "start": [120.0, 230.0], "goal": [20.0, 230.0]},
            ],
        }
        scn = write_scenario(tmp_path, doc)
        out = tmp_path / "cmp"
        code = main(["compare", "--scenario", str(scn), "--seeds", "1..2",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "seed,uav_id,vo_path_length,apf_path_length"
        assert len(lines) == 1 + 2 * 2  # 2 seeds x 2 uavs
        for seed in (1, 2):
            for algo in ("vo", "apf"):
                assert (out / f"seed_{seed}" / algo / "report.json").exists()
        table = capsys.readouterr().out
        assert "vo_path_m" in table and "apf_path_m" in table

    def test_compare_uses_shared_plans(self, tmp_path):
        scn = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "cmp1"
        assert main(["compare", "--scenario", str(scn), "--seeds", "4",
                     "--out", str(out)]) == 0
        vo_first = json.loads((out / "seed_4" / "vo" / "trajectories.csv")
                              .read_text().splitlines()[1].split(",")[2])
        apf_first = json.loads((out / "seed_4" / "apf" / "trajectories.csv")
                               .read_text().splitlines()[1].split(",")[2])
        assert vo_first == apf_first  # identical start, identical plan

    def test_compare_holds_one_run_at_a_time(self, tmp_path, monkeypatch):
        # the VO run's result and report are freed before the APF run starts
        held, live = [], []
        run_planned_, build_report_ = scenario_cli.run_planned, scenario_cli.build_report

        def tracked_run(scenario, params, paths):
            live.append((params.algorithm, [ref() is not None for ref in held]))
            result = run_planned_(scenario, params, paths)
            held.append(weakref.ref(result))
            return result

        def tracked_report(result):
            report = build_report_(result)
            held.append(weakref.ref(report))
            return report

        monkeypatch.setattr(scenario_cli, "run_planned", tracked_run)
        monkeypatch.setattr(scenario_cli, "build_report", tracked_report)
        assert main(["compare", "--scenario", str(SCENARIOS / "head_on_duel.json"),
                     "--seeds", "1..1", "--jobs", "1", "--out", str(tmp_path / "o")]) == 0
        assert live == [("vo", []), ("apf", [False, False])]


def _tree(root):
    """Every path under `root`, with its bytes (None for a directory)."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def _compare_in(tmp, monkeypatch, capsys, argv):
    """Exit code, stdout, stderr and output tree of `compare` run in `tmp` with `--out o`.

    The relative --out keeps the printed paths equal between runs.
    """
    tmp.mkdir()
    monkeypatch.chdir(tmp)
    code = main(["compare", *argv, "--out", "o"])
    out, err = capsys.readouterr()
    return code, out, err, _tree(tmp / "o")


def _fail_at(monkeypatch, failing_seed, where):
    """Make one seed's planning (`where` "plan") or one algorithm's run of it raise.

    The patched functions are inherited by forked children, so the failure
    happens wherever that seed runs.
    """
    seed_of = {}
    plan_paths_, run_planned_ = scenario_cli.plan_paths, scenario_cli.run_planned

    def plan(scenario, seed):
        if (seed, where) == (failing_seed, "plan"):
            raise PlanningError(f"injected at seed {seed}")
        paths = plan_paths_(scenario, seed)
        seed_of[id(paths)] = seed
        return paths

    def run_planned(scenario, params, paths):
        if (seed_of[id(paths)], params.algorithm) == (failing_seed, where):
            raise ValueError(f"injected at seed {failing_seed}")
        return run_planned_(scenario, params, paths)

    monkeypatch.setattr(scenario_cli, "plan_paths", plan)
    monkeypatch.setattr(scenario_cli, "run_planned", run_planned)


class TestCompareJobs:
    """`compare --jobs N` writes and prints exactly what the serial `--jobs 1` does."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        """Report 2 usable cores, so that `--jobs 2` forks on any host."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_same_bytes_for_any_jobs(self, tmp_path, monkeypatch, capsys):
        argv = ["--scenario", str(SCENARIOS / "paper_like_7uav.json"), "--seeds", "1..3"]
        serial = _compare_in(tmp_path / "j1", monkeypatch, capsys, [*argv, "--jobs", "1"])
        assert serial[0] == 0 and "seed_3/apf/trajectories.csv" in serial[3]
        # in batches of 2 the last batch holds one seed; 3 is capped at the 2
        # usable cores; the default takes them all
        for name, extra in (("j2", ["--jobs", "2"]), ("j3", ["--jobs", "3"]), ("default", [])):
            assert _compare_in(tmp_path / name, monkeypatch, capsys, argv + extra) == serial
        with pytest.raises(ChildProcessError):  # no child is left behind
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("failing_seed,where,code", [
        (2, "apf", 5),  # in a child, after its VO files are written
        (2, "vo", 5),
        (2, "plan", 3),  # made in the caller, after seed 1's plan
        (1, "apf", 5),  # the caller's own seed, while seed 2 runs in a child
        (3, "vo", 5),
    ])
    def test_stops_at_the_first_failing_seed(self, tmp_path, monkeypatch, capsys,
                                             failing_seed, where, code):
        _fail_at(monkeypatch, failing_seed, where)
        argv = ["--scenario", str(SCENARIOS / "paper_like_5uav.json"), "--seeds", "1..3"]
        serial = _compare_in(tmp_path / "j1", monkeypatch, capsys, [*argv, "--jobs", "1"])
        assert serial[0] == code and f"injected at seed {failing_seed}" in serial[2]
        assert f"seed {failing_seed}:" not in serial[1]
        assert _compare_in(tmp_path / "j2", monkeypatch, capsys, [*argv, "--jobs", "2"]) == serial
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_jobs_are_capped_at_the_usable_cores(self, tmp_path, monkeypatch, capsys):
        fork, waitpid = os.fork, os.waitpid
        forks, live, most = [0], [0], [0]  # children forked, running, most at once

        def counted_fork():
            pid = fork()
            if pid:
                forks[0] += 1
                live[0] += 1
                most[0] = max(most[0], live[0])
            return pid

        def counted_waitpid(pid, options):
            live[0] -= 1
            return waitpid(pid, options)

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(os, "waitpid", counted_waitpid)
        code, out, _, tree = _compare_in(
            tmp_path / "j", monkeypatch, capsys,
            ["--scenario", str(SCENARIOS / "head_on_duel.json"), "--seeds", "1..5",
             "--jobs", "500"])
        assert code == 0 and "seed 5:" in out and "seed_5/apf/report.json" in tree
        # batches (1, 2), (3, 4), (5): the caller and one child, two processes at once
        assert (forks[0], most[0]) == (2, 1)

    def test_compare_checks_each_table_once_per_command(self, tmp_path, monkeypatch, capsys):
        checks = []
        post_init = Scenario.__post_init__

        def counted(self):
            checks.append(self.sim.algorithm)
            post_init(self)

        monkeypatch.setattr(Scenario, "__post_init__", counted)
        for seeds in ("1", "1..3"):
            checks.clear()
            argv = ["--scenario", str(SCENARIOS / "head_on_duel.json"), "--seeds", seeds,
                    "--jobs", "1"]
            assert _compare_in(tmp_path / seeds, monkeypatch, capsys, argv)[0] == 0
            # the file's scenario, which runs VO, then the APF one
            assert checks == ["vo", "apf"]

    def test_a_worker_ending_without_an_outcome_exits_4(self, tmp_path, monkeypatch, capsys):
        caller, compare_seed = os.getpid(), scenario_cli._compare_seed

        def killed_at_seed_2(runs, paths, out):
            if out.name == "seed_2" and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return compare_seed(runs, paths, out)

        monkeypatch.setattr(scenario_cli, "_compare_seed", killed_at_seed_2)
        code, out, err, tree = _compare_in(
            tmp_path / "k", monkeypatch, capsys,
            ["--scenario", str(SCENARIOS / "head_on_duel.json"), "--seeds", "1..2", "--jobs", "2"])
        assert code == 4
        assert err == (f"i/o error: seed 2: its worker ended with status {signal.SIGKILL} "
                       "and no outcome\n")
        assert "seed 1:" in out and "seed 2:" not in out
        assert "seed_1/vo/report.json" in tree and "seed_1/apf/trajectories.csv" in tree
        assert not [p for p in tree if p.startswith("seed_2")] and "compare.csv" not in tree
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_seed_range_longer_than_maxsize(self, tmp_path, capsys):
        # the first seed cannot plan: one RRT iteration cannot reach a far goal
        doc = {"uavs": [{"id": "u1", "start": [10.0, 10.0], "goal": [390.0, 390.0]}],
               "params": {"max_iters": 1}}
        seeds = f"0..{10**20}"
        with pytest.raises(OverflowError):
            len(_parse_seed_range(seeds))
        out = tmp_path / "o"
        assert main(["compare", "--scenario", str(write_scenario(tmp_path, doc)),
                     "--seeds", seeds, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("planning error: uav 'u1'")
        assert not (out / "compare.csv").exists()

    def test_jobs_0_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--scenario", str(SCENARIOS / "head_on_duel.json"),
                  "--seeds", "1", "--jobs", "0", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--jobs: must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
