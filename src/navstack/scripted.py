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

    def __init__(self, gain: float = 1.4, turn_gain: float = 1.8):
        self.gain = gain
        self.turn_gain = turn_gain

    def action(self, obs: Observation) -> np.ndarray:
        gx, gy = obs.goal
        dist = math.hypot(gx, gy)
        if dist < 1e-9:
            return np.zeros(3)
        scale = min(1.0, dist)  # slow into the goal
        a = np.array([
            self.gain * scale * gx / dist,
            self.gain * scale * gy / dist,
            self.turn_gain * math.atan2(gy, gx),
        ])
        return clamp_action(a)


class ScriptedAvoid:
    """Potential-field repulsion from near beams with a slow forward drift."""

    def __init__(self, influence: float = 1.2, push: float = 1.5):
        self.influence = influence
        self.push = push

    def action(self, obs: Observation) -> np.ndarray:
        cos, sin = _beam_directions(len(obs.ranges))
        weight = np.maximum(0.0, (self.influence - obs.ranges) / self.influence) ** 2
        rx = -(weight * cos).sum()
        ry = -(weight * sin).sum()
        a = np.array([0.25 + self.push * rx, self.push * ry, 1.5 * ry])
        return clamp_action(a)


class ScriptedBlend:
    """Goal chase blended with repulsion as clearance shrinks.

    value() reports clearance in the goal direction (a 90 degree cone, or
    all beams when the goal feature is degenerate) so the exploration
    heuristic can rank candidates without a learned critic.
    """

    def __init__(self, caution_range: float = 1.0):
        self.caution_range = caution_range
        self._go = ScriptedGoStraight()
        self._avoid = ScriptedAvoid()

    def action(self, obs: Observation) -> np.ndarray:
        min_range = float(obs.ranges.min())
        w = min(1.0, max(0.0, (self.caution_range - min_range) / self.caution_range))
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
