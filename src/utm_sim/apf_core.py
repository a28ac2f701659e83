"""Potential-field baseline: fixed-magnitude attraction and repulsion.

The attractive force always has magnitude k_att toward the active waypoint and
the repulsive force magnitude k_rep away from each active threat, regardless
of range. The constant magnitudes are deliberate: they are what makes this
baseline cut corners near obstacle edges, which the avoidance comparison
measures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .geom2d import Vec2
from .params import Params

if TYPE_CHECKING:
    from .sim_engine import UavState
    from .vo_core import Threat


ApfParams = Params  # former name of the one parameter table


def attractive_force(pos: Vec2, waypoint: Vec2, k_att: float) -> Vec2:
    """Force of magnitude k_att pointing from pos toward the waypoint."""
    direction = waypoint - pos
    if direction.is_zero():
        raise ValueError("attractive force undefined at the waypoint itself")
    return k_att * direction.unit()


def repulsive_force(pos: Vec2, threat_pos: Vec2, k_rep: float) -> Vec2:
    """Force of magnitude k_rep pointing from the threat toward pos."""
    direction = pos - threat_pos
    if direction.is_zero():
        raise ValueError("repulsive force undefined at coincident positions")
    return k_rep * direction.unit()


def total_force(pos: Vec2, waypoint: Vec2, threat_positions: Sequence[Vec2],
                params: Params) -> Vec2:
    """Attractive force plus the sum of per-threat repulsions."""
    f = attractive_force(pos, waypoint, params.k_att)
    for tp in threat_positions:
        f = f + repulsive_force(pos, tp, params.k_rep)
    return f


def apf_step(state: "UavState", threats: Sequence["Threat"], params: Params) -> Vec2:
    """New position after one Euler step of the total force.

    `threats` must already be filtered to activation range; only their
    positions matter here. A threat at the vehicle's own position is skipped,
    as `vo_core.avoid` skips it: it has no direction to repel along.
    """
    pos = state.position
    wp = state.current_waypoint()
    f = total_force(pos, wp, [t.position for t in threats if t.position != pos], params)
    return Vec2(pos.x + params.dt * f.x, pos.y + params.dt * f.y)
