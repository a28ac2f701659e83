"""Reference writers and measures for a run's exported samples.

The program formats a sample's text once per run of the same objects and
computes a pair distance once per run of the same positions
(`scenario_cli._trajectory_lines`, `metrics.pairwise_distances`). The plain
versions here format and measure every sample, as the per-sample writer
always did; the program must give their bytes and floats on every input.
"""

from itertools import combinations

from utm_sim.geom2d import distance


def oracle_trajectories_csv(result):
    """trajectories.csv, one `%` per sample line."""
    ids = list(result.trajectories)
    n_samples = len(result.trajectories[ids[0]]) if ids else 0
    lines = ["t,uav_id,x,y,vx,vy\n"]
    for i in range(n_samples):
        for uid in ids:
            s = result.trajectories[uid][i]
            lines.append("%.6f,%s,%.6f,%.6f,%.6f,%.6f\n" % (
                s.t, uid, s.position.x, s.position.y, s.velocity.x, s.velocity.y))
    return "".join(lines)


def oracle_distances_csv(result, report):
    """distances.csv, from `report.pair_distances` and the first UAV's times."""
    ids = list(result.trajectories)
    series = report.pair_distances
    times = [s.t for s in result.trajectories[ids[0]]] if ids else []
    row_fmt = ",".join(["%.6f"] * (1 + len(series))) + "\n"
    return ",".join(["t"] + [f"{a}-{b}" for (a, b) in series]) + "\n" + "".join(
        row_fmt % row for row in zip(times, *series.values()))


def oracle_pairwise_series(trajectories):
    """Every pair's distance at every sample, in the mapping's pair order."""
    return {(a, b): [distance(p, q) for p, q in zip(trajectories[a], trajectories[b])]
            for a, b in combinations(trajectories, 2)}


def oracle_path_length(points):
    """The plain sum of every segment's length."""
    return sum(distance(a, b) for a, b in zip(points, points[1:]))
