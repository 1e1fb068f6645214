import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from navstack.policy import Observation
from navstack.scripted import (
    AVOID_INFLUENCE,
    AVOID_PUSH,
    CAUTION_RANGE,
    GO_GAIN,
    TURN_GAIN,
    CompositePolicy,
    ScriptedAvoid,
    ScriptedBlend,
    ScriptedGoStraight,
    scripted_bundle,
)
from navstack.world import ACTION_HIGH, ACTION_LOW


def obs(ranges, goal=(2.0, 0.0)):
    r = np.asarray(ranges, dtype=float)
    return Observation(r, np.zeros_like(r), np.array(goal, dtype=float), np.zeros(3))


def test_go_straight_heads_at_goal():
    a = ScriptedGoStraight().action(obs(np.full(8, 6.0), goal=(3.0, 0.0)))
    assert a[0] > 0.5
    assert abs(a[1]) < 1e-9
    a_left = ScriptedGoStraight().action(obs(np.full(8, 6.0), goal=(0.0, 2.0)))
    assert a_left[1] > 0.3
    assert a_left[2] > 0.5  # turns toward it too


def test_go_straight_idles_at_goal():
    assert np.array_equal(ScriptedGoStraight().action(obs(np.full(8, 6.0), goal=(0.0, 0.0))), np.zeros(3))


def test_avoid_pushes_away_from_near_beam():
    ranges = np.full(8, 6.0)
    ranges[0] = 0.3  # wall dead ahead
    a = ScriptedAvoid().action(obs(ranges))
    assert a[0] < 0.25  # forward drift cancelled or reversed


def test_blend_within_limits_everywhere():
    rng = np.random.default_rng(0)
    blend = ScriptedBlend()
    for _ in range(300):
        o = obs(rng.uniform(0.05, 6.0, 16), goal=tuple(rng.uniform(-4, 4, 2)))
        a = blend.action(o)
        assert np.all(a >= ACTION_LOW - 1e-12)
        assert np.all(a <= ACTION_HIGH + 1e-12)


def test_blend_value_prefers_clear_goal_direction():
    clear = np.full(16, 6.0)
    cluttered = np.full(16, 6.0)
    cluttered[0] = 0.4
    cluttered[1] = 0.5
    cluttered[15] = 0.4
    blend = ScriptedBlend()
    assert blend.value(obs(clear)) > blend.value(obs(cluttered))


def test_composite_routes_action_and_value():
    class V:
        def value(self, o):
            return 42.0

    comp = CompositePolicy(scripted_bundle(), V())
    o = obs(np.full(8, 6.0))
    assert comp.value(o) == 42.0
    assert np.array_equal(comp.action(o), scripted_bundle().action(o))
    assert comp.alpha(o) is None


# The scripted actions and value as they were written with np.clip, np.sum
# and beam angles rebuilt on every call, kept verbatim (``_beam_angles``
# inlined); the new code must match them bit for bit.


def _beam_angles_oracle(n):
    return 2.0 * math.pi * np.arange(n) / n


def _go_action_oracle(o):
    gx, gy = o.goal
    dist = math.hypot(gx, gy)
    if dist < 1e-9:
        return np.zeros(3)
    scale = min(1.0, dist)  # slow into the goal
    a = np.array([
        GO_GAIN * scale * gx / dist,
        GO_GAIN * scale * gy / dist,
        TURN_GAIN * math.atan2(gy, gx),
    ])
    return np.clip(a, ACTION_LOW, ACTION_HIGH)


def _avoid_action_oracle(o):
    angles = _beam_angles_oracle(len(o.ranges))
    weight = np.maximum(0.0, (AVOID_INFLUENCE - o.ranges) / AVOID_INFLUENCE) ** 2
    rx = -np.sum(weight * np.cos(angles))
    ry = -np.sum(weight * np.sin(angles))
    a = np.array([0.25 + AVOID_PUSH * rx, AVOID_PUSH * ry, 1.5 * ry])
    return np.clip(a, ACTION_LOW, ACTION_HIGH)


def _blend_action_oracle(o):
    min_range = float(np.min(o.ranges))
    w = min(1.0, max(0.0, (CAUTION_RANGE - min_range) / CAUTION_RANGE))
    a = (1.0 - w) * _go_action_oracle(o) + w * _avoid_action_oracle(o)
    return np.clip(a, ACTION_LOW, ACTION_HIGH)


def _blend_value_oracle(o):
    gx, gy = o.goal
    angles = _beam_angles_oracle(len(o.ranges))
    if math.hypot(gx, gy) < 1e-9:
        return float(np.min(o.ranges))
    heading = math.atan2(gy, gx)
    delta = np.abs(np.angle(np.exp(1j * (angles - heading))))
    cone = o.ranges[delta <= math.pi / 4]
    if cone.size == 0:
        cone = o.ranges
    return float(np.min(cone))


_ranges = st.lists(
    st.one_of(st.floats(0.0, 8.0), st.sampled_from([0.0, -0.0, 1e-6, 1.2, np.inf, np.nan])),
    min_size=1, max_size=80,
)
_goal = st.one_of(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                  st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (1e-10, 0.0), (0.0, -3.0)]))


@settings(max_examples=300, deadline=None)
@given(_ranges, _goal)
def test_scripted_policies_match_oracles_bit_for_bit(ranges, goal):
    o = obs(ranges, goal)
    blend = ScriptedBlend()
    pairs = [
        (ScriptedAvoid().action(o), _avoid_action_oracle(o)),
        (blend.action(o), _blend_action_oracle(o)),
        (ScriptedGoStraight().action(o), _go_action_oracle(o)),
    ]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.float64(blend.value(o)).tobytes() == np.float64(_blend_value_oracle(o)).tobytes()
