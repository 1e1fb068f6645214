"""Hand-written fallback policies: a proportional goal chaser, a
potential-field dodger, and a proximity blend of the two.

These let the full hierarchical stack and every upper-layer test run
without any training.  The blend also carries a clearance-based stand-in
for the learned critic so exploration scoring has a safety signal.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .policy import Observation
from .world import beam_offsets, clamp_action

GO_GAIN = 1.4          # goal chaser: speed per unit goal direction
TURN_GAIN = 1.8        # goal chaser: turn rate per radian of goal bearing
AVOID_INFLUENCE = 1.2  # dodger: beams shorter than this (m) repel
AVOID_PUSH = 1.5       # dodger: speed per unit of summed repulsion
CAUTION_RANGE = 1.0    # blend: below this clearance (m) the dodger takes over


@functools.lru_cache(maxsize=8)
def _beam_directions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the n beam angles; read-only, since every action
    with this beam count shares them."""
    angles = beam_offsets(n)
    cos, sin = np.cos(angles), np.sin(angles)
    cos.flags.writeable = False
    sin.flags.writeable = False
    return cos, sin


class ScriptedGoStraight:
    """Drive straight at the goal feature, turning the nose toward it."""

    def action(self, obs: Observation) -> np.ndarray:
        gx, gy = obs.goal
        dist = math.hypot(gx, gy)
        if dist < 1e-9:
            return np.zeros(3)
        scale = min(1.0, dist)  # slow into the goal
        a = np.array([
            GO_GAIN * scale * gx / dist,
            GO_GAIN * scale * gy / dist,
            TURN_GAIN * math.atan2(gy, gx),
        ])
        return clamp_action(a)


class ScriptedAvoid:
    """Potential-field repulsion from near beams with a slow forward drift."""

    def action(self, obs: Observation) -> np.ndarray:
        cos, sin = _beam_directions(len(obs.ranges))
        weight = np.maximum(0.0, (AVOID_INFLUENCE - obs.ranges) / AVOID_INFLUENCE) ** 2
        rx = -(weight * cos).sum()
        ry = -(weight * sin).sum()
        a = np.array([0.25 + AVOID_PUSH * rx, AVOID_PUSH * ry, 1.5 * ry])
        return clamp_action(a)


class ScriptedBlend:
    """Goal chase blended with repulsion as clearance shrinks.

    value() reports clearance in the goal direction (a 90 degree cone, or
    all beams when the goal feature is degenerate) so the exploration
    heuristic can rank candidates without a learned critic.
    """

    def __init__(self):
        self._go = ScriptedGoStraight()
        self._avoid = ScriptedAvoid()

    def action(self, obs: Observation) -> np.ndarray:
        min_range = float(obs.ranges.min())
        w = min(1.0, max(0.0, (CAUTION_RANGE - min_range) / CAUTION_RANGE))
        a = (1.0 - w) * self._go.action(obs) + w * self._avoid.action(obs)
        return clamp_action(a)

    def value(self, obs: Observation) -> float:
        gx, gy = obs.goal
        if math.hypot(gx, gy) < 1e-9:
            return float(obs.ranges.min())
        heading = math.atan2(gy, gx)
        delta = np.abs(np.angle(np.exp(1j * (beam_offsets(len(obs.ranges)) - heading))))
        cone = obs.ranges[delta <= math.pi / 4]
        if cone.size == 0:
            cone = obs.ranges
        return float(cone.min())


class CompositePolicy:
    """Action from one source, critic value from another (used to pair the
    scripted controller with a trained critic)."""

    def __init__(self, action_source, value_source):
        self._action = action_source
        self._value = value_source

    def action(self, obs) -> np.ndarray:
        return self._action.action(obs)

    def value(self, obs) -> float:
        return self._value.value(obs)

    def alpha(self, obs):
        return getattr(self._action, "alpha", lambda _o: None)(obs)


def scripted_bundle() -> ScriptedBlend:
    return ScriptedBlend()
