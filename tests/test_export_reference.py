"""The report and the CSV export equal their plain per-sample references.

`pairwise_distances` reuses a distance while the position objects behind it
are the same (`is`), and `export_result` a UAV's text while its `UavState`
object is. The results drawn here keep state objects, build new states of
the same position and velocity objects, repeat values in new objects, flip
the sign of zero components (`-0.0 == 0.0`, but the two format differently),
draw the step `dt`, and use UAV ids that contain `%`.
"""

import tempfile
from array import array
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from export_oracle import (oracle_distances_csv, oracle_pairwise_series, oracle_path_length,
                           oracle_positions, oracle_trajectories_csv)
from utm_sim.geom2d import Vec2
from utm_sim.metrics import build_report, pairwise_distances, path_length
from utm_sim.params import Params
from utm_sim.scenario_cli import export_result, load_scenario
from utm_sim.sim_engine import SimResult, UavState, run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

_value = st.sampled_from([0.0, -0.0, 1e-7, -1e-7, 2.5, -3.75]) | st.floats(-500.0, 500.0)
_ids = st.lists(st.sampled_from(["a", "b", "u1", "u%", "%s", "x%%y", "%.6f"]),
                min_size=1, max_size=4, unique=True)
_change = st.sampled_from(["same", "same", "equal", "flip_zero", "new"])
_dt = st.sampled_from([0.1, 0.05, 0.5, 1.0, 1 / 3]) | st.floats(1e-3, 5.0)


def _state(uid, position, velocity):
    return UavState(uid, position, velocity, (Vec2(0.0, 0.0),))


def _copy(v):
    """A new float object with the very value of `v` (sign of zero included)."""
    return float(repr(v))


def _flip_zero(v):
    return Vec2(-v.x if v.x == 0.0 else v.x, -v.y if v.y == 0.0 else v.y)


def _next(draw, v):
    """The sample after `v`: the same object, an equal new one, its zeros flipped, or new."""
    how = draw(_change)
    if how == "same":
        return v
    if how == "equal":
        return Vec2(_copy(v.x), _copy(v.y))
    if how == "flip_zero":
        return _flip_zero(v)
    return Vec2(draw(_value), draw(_value))


@st.composite
def _results(draw):
    row = tuple(_state(uid, Vec2(draw(_value), draw(_value)), Vec2(draw(_value), draw(_value)))
                for uid in draw(_ids))
    states = [row]
    for _ in range(draw(st.integers(0, 9))):
        # a UAV keeps its state object, or gets a new one
        row = tuple(u if draw(st.booleans()) else
                    _state(u.id, _next(draw, u.position), _next(draw, u.velocity))
                    for u in row)
        states.append(row)
    return SimResult(Params(dt=draw(_dt)), states, [])


class TestSameObjectsSameResult:
    @settings(max_examples=150, deadline=None)
    @given(result=_results())
    def test_report_and_export_equal_the_plain_references(self, result):
        positions = oracle_positions(result)
        series, minima = pairwise_distances(positions)
        want = oracle_pairwise_series(positions)
        assert list(series) == list(want)
        for pair, ds in series.items():
            assert [d.hex() for d in ds] == [d.hex() for d in want[pair]]
            assert minima[pair] == min(want[pair])
        for pts in positions.values():
            got = path_length(pts)
            assert type(got) is float and got == oracle_path_length(pts)

        report = build_report(result)
        with tempfile.TemporaryDirectory() as tmp:
            export_result(result, report, tmp)
            out = Path(tmp)
            assert (out / "trajectories.csv").read_text(encoding="utf-8") \
                == oracle_trajectories_csv(result)
            assert (out / "distances.csv").read_text(encoding="utf-8") \
                == oracle_distances_csv(result, report)

    def test_a_signed_zero_after_an_equal_zero_is_formatted_anew(self):
        zero, minus_zero = Vec2(0.0, 1.0), Vec2(-0.0, 1.0)
        assert zero == minus_zero
        result = SimResult(Params(algorithm="apf"), [(_state("u%", zero, zero),),
                                                     (_state("u%", minus_zero, minus_zero),)], [])
        with tempfile.TemporaryDirectory() as tmp:
            export_result(result, build_report(result), tmp)
            text = (Path(tmp) / "trajectories.csv").read_text(encoding="utf-8")
        assert text == oracle_trajectories_csv(result) == (
            "t,uav_id,x,y,vx,vy\n"
            "0.000000,u%,0.000000,1.000000,0.000000,1.000000\n"
            "0.100000,u%,-0.000000,1.000000,-0.000000,1.000000\n")


def test_packed_series_are_the_oracle_floats():
    # corner_corridor under APF: every run hits the cutoff, with most UAVs
    # parked at their goals for most of it, so their position objects repeat
    sc = load_scenario(SCENARIOS / "corner_corridor.json")
    result = run(sc, replace(sc.sim, algorithm="apf"), 1)
    positions = oracle_positions(result)
    parked = sum(p is q for pts in positions.values() for p, q in zip(pts, pts[1:]))
    assert parked > len(result.states)
    series, minima = pairwise_distances(positions)
    want = oracle_pairwise_series(positions)
    assert list(series) == list(want)
    for pair, ds in series.items():
        assert type(ds) is array and ds.typecode == "d"
        assert [d.hex() for d in ds] == [d.hex() for d in want[pair]]
        assert minima[pair].hex() == min(want[pair]).hex()


def test_path_length_of_one_sample_is_the_float_zero():
    got = path_length([Vec2(1.0, 2.0)])
    assert got == 0.0 and type(got) is float
