"""The report and the CSV export equal their plain per-sample references.

`pairwise_distances` reuses a distance, and `export_result` a sample's text,
while the objects behind them are the same (`is`). The results drawn here
repeat objects, repeat values in new objects, flip the sign of zero
components (`-0.0 == 0.0`, but the two format differently), mix the time
objects of one row, and use UAV ids that contain `%`.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from export_oracle import (oracle_distances_csv, oracle_pairwise_series, oracle_path_length,
                           oracle_trajectories_csv)
from utm_sim.geom2d import Vec2
from utm_sim.metrics import build_report, pairwise_distances, path_length
from utm_sim.scenario_cli import export_result
from utm_sim.sim_engine import SimResult, TrajectorySample

_value = st.sampled_from([0.0, -0.0, 1e-7, -1e-7, 2.5, -3.75]) | st.floats(-500.0, 500.0)
_ids = st.lists(st.sampled_from(["a", "b", "u1", "u%", "%s", "x%%y", "%.6f"]),
                min_size=1, max_size=4, unique=True)
_change = st.sampled_from(["same", "same", "equal", "flip_zero", "new"])
_row_time = st.sampled_from(["next", "next", "same_object", "same_value", "signed_zero"])
_sample_time = st.sampled_from(["row", "row", "row", "equal_object", "other"])


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
    ids = draw(_ids)
    n = draw(st.integers(1, 10))
    state = {uid: (Vec2(draw(_value), draw(_value)), Vec2(draw(_value), draw(_value)))
             for uid in ids}
    trajectories = {uid: [] for uid in ids}
    t = 0.0
    for i in range(n):
        how = draw(_row_time)
        if i > 0 and how == "next":
            t = i * 0.1
        elif how == "same_value":
            t = _copy(t)
        elif how == "signed_zero":
            t = -0.0 if draw(st.booleans()) else 0.0
        for uid in ids:
            pos, vel = state[uid]
            if i > 0:
                pos, vel = _next(draw, pos), _next(draw, vel)
            state[uid] = (pos, vel)
            which = draw(_sample_time)
            ts = t if which == "row" else _copy(t) if which == "equal_object" else draw(_value)
            trajectories[uid].append(TrajectorySample(ts, pos, vel))
    return SimResult(trajectories=trajectories, events=[], completed=True, steps=n - 1,
                     algorithm="vo")


class TestSameObjectsSameResult:
    @settings(max_examples=150, deadline=None)
    @given(result=_results())
    def test_report_and_export_equal_the_plain_references(self, result):
        positions = {uid: [s.position for s in samples]
                     for uid, samples in result.trajectories.items()}
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
        t0, t1 = 0.0, 0.1
        result = SimResult(
            trajectories={"u%": [TrajectorySample(t0, zero, zero),
                                 TrajectorySample(t1, minus_zero, minus_zero)]},
            events=[], completed=True, steps=1, algorithm="apf")
        with tempfile.TemporaryDirectory() as tmp:
            export_result(result, build_report(result), tmp)
            text = (Path(tmp) / "trajectories.csv").read_text(encoding="utf-8")
        assert text == oracle_trajectories_csv(result) == (
            "t,uav_id,x,y,vx,vy\n"
            "0.000000,u%,0.000000,1.000000,0.000000,1.000000\n"
            "0.100000,u%,-0.000000,1.000000,-0.000000,1.000000\n")


def test_path_length_of_one_sample_is_the_float_zero():
    got = path_length([Vec2(1.0, 2.0)])
    assert got == 0.0 and type(got) is float
