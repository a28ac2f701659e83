"""Reference writers and measures for a run's exported samples.

The program formats a UAV's text once per run of the same state object and
computes a pair distance once per run of the same positions
(`scenario_cli._trajectory_lines`, `metrics.pairwise_distances`). The plain
versions here format and measure every sample, as the per-sample writer
always did; the program must give their bytes and floats on every input.
"""

from itertools import combinations

from utm_sim.geom2d import distance


def oracle_trajectories_csv(result):
    """trajectories.csv, one `%` per sample line; the `k`th state is at `k * dt`."""
    lines = ["t,uav_id,x,y,vx,vy\n"]
    for k, row in enumerate(result.states):
        for u in row:
            lines.append("%.6f,%s,%.6f,%.6f,%.6f,%.6f\n" % (
                k * result.params.dt, u.id, u.position.x, u.position.y,
                u.velocity.x, u.velocity.y))
    return "".join(lines)


def oracle_distances_csv(result, report):
    """distances.csv, from `report.pair_distances` and the states' times."""
    series = report.pair_distances
    times = [k * result.params.dt for k in range(len(result.states))]
    row_fmt = ",".join(["%.6f"] * (1 + len(series))) + "\n"
    return ",".join(["t"] + [f"{a}-{b}" for (a, b) in series]) + "\n" + "".join(
        row_fmt % row for row in zip(times, *series.values()))


def oracle_positions(result):
    """Each UAV's position at every state, keyed by id in the states' order."""
    return {u.id: [row[i].position for row in result.states]
            for i, u in enumerate(result.states[0])}


def oracle_pairwise_series(trajectories):
    """Every pair's distance at every sample, in the mapping's pair order."""
    return {(a, b): [distance(p, q) for p, q in zip(trajectories[a], trajectories[b])]
            for a, b in combinations(trajectories, 2)}


def oracle_path_length(points):
    """The plain sum of every segment's length."""
    return sum(distance(a, b) for a, b in zip(points, points[1:]))
