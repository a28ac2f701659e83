"""The run parameter table: every run parameter, its default and its check.

One frozen `Params` drives a whole run. The planner, both controllers, the
step loop and the obstacle geometry read the same instance, so a key that
several of them use (kp, dt, dist_wp, dist_uav, dist_obs) cannot hold two
values at once. The scenario file's `params` object holds every field except
`algorithm` and `bounds`, in field order; the loader and the saver derive
their key set from `dataclasses.fields(Params)`, and the loader hands the
values to `Params`, which checks them.
"""

import math
from dataclasses import dataclass, fields

from .geom2d import Bounds, finite_float

DEFAULT_BOUNDS = Bounds(0.0, 0.0, 400.0, 400.0)

ALGORITHMS = ("vo", "apf")

# The most VO headings, `2*pi / theta_step`, one table may hold. The VO search
# builds that table for its first decision; the shipped scenarios need 32, and a
# tiny `theta_step` would exhaust memory, so `Params` rejects one over the limit.
MAX_HEADINGS = 10_000

# The most VO speed steps, `kp * diagonal / mag_step`, that may cover kp times
# the diagonal of the bounds, the top nominal speed of a UAV inside them. The VO
# search grows a table of mag_step multiples up to each decision's relative
# speed, so a tiny `mag_step` would exhaust memory; `Params` rejects one over
# the limit. The shipped scenarios need 566 (kp 0.2 over a 400 m square at
# mag_step 0.2), 177 times fewer. At the limit, paper_like_7uav's VO run of
# seed 1 grows its table to 3,534 speeds and peaks 6% above the memory of its
# default run.
MAX_SPEEDS = 100_000

# The most VO candidates, headings times speed steps (the two ratios above),
# that one feasible set may stand for. Selection evaluates a few of them per
# heading, but where pruning rejects one of those it evaluates the heading's
# whole speed list, so each heading at most twice, and with huge magnitudes it
# visits every one; listing a set (the benchmark's tracer does) builds every
# one. So two steps that each pass their own limit may not together pass this
# one. The shipped scenarios need 32 x 566 = 18,112; a step at either limit
# above passes with the other at its default.
MAX_CANDIDATES = 10_000_000


@dataclass(frozen=True, slots=True)
class Params:
    """All run parameters of one run.

    Integer fields take an `int`, never a `bool`; float fields take what
    `geom2d.finite_float` takes and store what it returns; `bounds` takes a
    `geom2d.Bounds`. Every numeric field must be finite and > 0, except
    `goal_bias` in [0, 1] and `inflation` >= 0; `circle_spacing` must stay below
    `2 * obstacle_circle_radius` so adjacent circles overlap, and the bounds
    extent over `circle_spacing` must be finite, so that every edge of a
    rectangle inside the bounds gets a circle count. `2*pi / theta_step` must
    not exceed `MAX_HEADINGS`, `kp` times the bounds diagonal over `mag_step`
    not `MAX_SPEEDS`, and their product not `MAX_CANDIDATES`. `kp * dt` must stay
    below 2 so the nominal step converges. `inflation=None` takes the value
    of `uav_radius`.
    """

    # control loop
    kp: float = 0.2
    dt: float = 0.1
    dist_wp: float = 10.0
    max_steps: int = 20_000
    # activation ranges of both controllers
    dist_uav: float = 50.0
    dist_obs: float = 20.0
    # VO search grid
    theta_step: float = 0.2
    mag_step: float = 0.2
    # APF gains
    k_att: float = 8.0
    k_rep: float = 15.0
    # planner
    step_size: float = 10.0
    goal_bias: float = 0.05
    max_iters: int = 10_000
    goal_radius: float = 10.0
    inflation: float | None = None
    # bodies and the circle approximation of the rectangles
    uav_radius: float = 12.0
    obstacle_circle_radius: float = 12.0
    circle_spacing: float = 15.0
    # not in a file's `params`: set by the command line and the top-level bounds
    algorithm: str = "vo"
    bounds: Bounds = DEFAULT_BOUNDS

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int and (isinstance(value, bool) or not isinstance(value, int)):
                if isinstance(value, float):
                    finite_float(value, f.name)  # a non-finite value is named so in any field
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type is float or f.type == float | None and value is not None:
                value = finite_float(value, f.name)
                object.__setattr__(self, f.name, value)  # frozen
            if f.type in (int, float) and f.name != "goal_bias" and not value > 0:
                raise ValueError(f"{f.name} must be > 0")
        if self.inflation is None:  # after the loop, so errors name uav_radius itself
            object.__setattr__(self, "inflation", self.uav_radius)  # frozen
        if not 0.0 <= self.goal_bias <= 1.0:
            raise ValueError("goal_bias must be in [0, 1]")
        if not self.inflation >= 0.0:
            raise ValueError("inflation must be >= 0")
        if self.circle_spacing >= 2.0 * self.obstacle_circle_radius:
            raise ValueError("circle_spacing must be < 2 * obstacle_circle_radius; "
                             "adjacent circles would leave perimeter gaps")
        b = self.bounds
        if not isinstance(b, Bounds):
            raise ValueError(f"bounds must be a geom2d.Bounds, got {b!r}")
        # an edge inside the bounds is no longer than their extent, so its
        # circle count `ceil(edge / circle_spacing)` is then finite too
        if not math.isfinite(max(b.max_x - b.min_x, b.max_y - b.min_y) / self.circle_spacing):
            raise ValueError("circle_spacing is too small for the bounds: their extent "
                             "over it is not finite")
        if math.tau / self.theta_step > MAX_HEADINGS:
            raise ValueError(f"theta_step {self.theta_step} is too small: the VO search would "
                             f"need more than {MAX_HEADINGS} headings (2*pi / theta_step)")
        top_speed = self.kp * math.hypot(b.max_x - b.min_x, b.max_y - b.min_y)
        if top_speed / self.mag_step > MAX_SPEEDS:
            raise ValueError(f"mag_step {self.mag_step} is too small: the VO search would "
                             f"need more than {MAX_SPEEDS} speeds to cover kp * the bounds "
                             f"diagonal ({top_speed})")
        if math.tau / self.theta_step * (top_speed / self.mag_step) > MAX_CANDIDATES:
            raise ValueError(f"theta_step {self.theta_step} and mag_step {self.mag_step} are "
                             f"too small together: the VO search would need more than "
                             f"{MAX_CANDIDATES} candidates (2*pi / theta_step headings times "
                             f"kp * the bounds diagonal ({top_speed}) / mag_step speeds)")
        if self.kp * self.dt >= 2.0:
            raise ValueError(f"kp * dt must be < 2, got kp={self.kp}, dt={self.dt}; "
                             "the nominal step p += dt * kp * (wp - p) would diverge")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
