"""Potential-field baseline: fixed-magnitude attraction and repulsion.

The attractive force always has magnitude k_att toward the active waypoint and
the repulsive force magnitude k_rep away from each active threat, regardless
of range. Their sum is the velocity command (Khatib 1986): `apf_step` returns
a velocity, as `vo_core.avoid` does, and the engine commits both controllers
the same way. The constant magnitudes are deliberate: they are what makes this
baseline cut corners near obstacle edges, which the avoidance comparison
measures.

`apf_step` runs once per UAV-step. It sums the forces on plain floats and
builds one `Vec2` at the end.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .geom2d import Vec2
from .params import Params

if TYPE_CHECKING:
    from .sim_engine import UavState
    from .vo_core import Threat


def apf_step(state: "UavState", threats: Sequence["Threat"], params: Params) -> Vec2:
    """Velocity command for one step: the total force, as `vo_core.avoid` returns one.

    The attractive force plus each threat's repulsion, summed left to right in
    threat order. `threats` must already be filtered to activation range; only
    their positions matter here. A threat at the vehicle's own position is
    skipped, as `vo_core.avoid` skips it: it has no direction to repel along.
    By the same rule there is no attraction at the vehicle's own waypoint.

    Each term is `dx / n * k`: the offset `dx` over its `math.hypot` length
    `n`, times the gain. An offset that overflows turns into nan here instead
    of raising at once, and nan survives every later add, so the returned
    `Vec2` raises `ValueError` whenever an offset or the sum is not finite.
    """
    px, py = state.position.x, state.position.y
    wp = state.current_waypoint()
    dx, dy = wp.x - px, wp.y - py
    n = math.hypot(dx, dy)  # 0 exactly when the UAV sits on its waypoint
    fx, fy = (dx / n * params.k_att, dy / n * params.k_att) if n else (0.0, 0.0)
    k_rep = params.k_rep
    for t in threats:
        # finite floats differ by exactly 0 only when they are equal, so this
        # skips exactly the threats at the UAV's own position
        dx, dy = px - t.position.x, py - t.position.y
        if dx == 0.0 and dy == 0.0:
            continue
        n = math.hypot(dx, dy)
        fx += dx / n * k_rep
        fy += dy / n * k_rep
    return Vec2(fx, fy)
