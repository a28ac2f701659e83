"""Potential-field baseline: fixed-magnitude attraction and repulsion.

The attractive force always has magnitude k_att toward the active waypoint and
the repulsive force magnitude k_rep away from each active threat, regardless
of range. Their sum is the velocity command (Khatib 1986): `apf_step` returns
a velocity, as `vo_core.avoid` does, and the engine commits both controllers
the same way. The constant magnitudes are deliberate: they are what makes this
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


def apf_step(state: "UavState", threats: Sequence["Threat"], params: Params) -> Vec2:
    """Velocity command for one step: the total force, as `vo_core.avoid` returns one.

    The attractive force plus each threat's repulsion, summed in threat order.
    `threats` must already be filtered to activation range; only their
    positions matter here. A threat at the vehicle's own position is skipped,
    as `vo_core.avoid` skips it: it has no direction to repel along.
    """
    pos = state.position
    f = attractive_force(pos, state.current_waypoint(), params.k_att)
    for t in threats:
        if t.position != pos:
            f = f + repulsive_force(pos, t.position, params.k_rep)
    return f
