import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navstack.rewards import (
    FUSION,
    GO_STRAIGHT,
    OBSTACLE_AVOIDANCE,
    PROFILES,
    RewardProfile,
    Transition,
    episode_metrics,
    metrics_csv_row,
    step_reward,
)
from navstack.stack import EpisodeResult


class TestPresets:
    def test_weight_table_literal(self):
        assert GO_STRAIGHT == RewardProfile(w_g=3, w_o=0, w_c=-0.25, w_r=1, w_t=-1, w_e=-1, w_a=-0.5)
        assert OBSTACLE_AVOIDANCE == RewardProfile(w_g=1, w_o=-0.4, w_c=-1, w_r=0.25, w_t=1, w_e=1, w_a=0)
        assert FUSION == RewardProfile(w_g=4, w_o=0, w_c=-1, w_r=1, w_t=0, w_e=0, w_a=0)
        assert set(PROFILES) == {"go-straight", "obstacle-avoidance", "fusion"}


# Nine hand-evaluated transitions, three per profile; expected values are
# written as the same literal arithmetic a reader would do on paper.
HAND_CASES = [
    (GO_STRAIGHT, Transition(5.0, 4.9, 6.0, 0.0), 3 * (5.0 - 4.9) - 0.01),
    (GO_STRAIGHT, Transition(2.0, 2.0, 0.4, 0.5, collision=True),
     -0.25 * 15 - 0.01 - 0.5 * (0.5 - 0.3) + 0 * (0.4)),
    (GO_STRAIGHT, Transition(0.4, 0.2, 1.0, -0.8, reached=True),
     3 * (0.4 - 0.2) + 20 - 0.01 - 0.5 * (0.8 - 0.3)),
    (OBSTACLE_AVOIDANCE, Transition(3.0, 3.0, 0.3, 0.0), -0.4 * (0.3 / 0.3) + 0.01),
    (OBSTACLE_AVOIDANCE, Transition(4.0, 4.05, 2.0, 0.0, timeout=True),
     1 * (4.0 - 4.05) + 0.01 + 5),
    (OBSTACLE_AVOIDANCE, Transition(2.0, 1.9, 0.45, 1.0),
     1 * (2.0 - 1.9) - 0.4 * (0.15 / 0.45) + 0.01),
    (FUSION, Transition(5.0, 4.9, 6.0, 0.0), 4 * (5.0 - 4.9)),
    (FUSION, Transition(1.0, 1.0, 0.2, 0.0, collision=True), -15.0),
    (FUSION, Transition(0.5, 0.25, 1.0, 0.0, reached=True), 4 * (0.5 - 0.25) + 20),
]


class TestStepReward:
    @pytest.mark.parametrize("profile,transition,expected", HAND_CASES)
    def test_hand_evaluated_transitions(self, profile, transition, expected):
        assert step_reward(profile, transition) == pytest.approx(expected, abs=1e-12)

    def test_progress_sign_rewards_approach(self):
        approach = step_reward(FUSION, Transition(5.0, 4.0, 6.0, 0.0))
        retreat = step_reward(FUSION, Transition(4.0, 5.0, 6.0, 0.0))
        assert approach > 0 > retreat

    def test_spin_penalty_uses_magnitude(self):
        left = step_reward(GO_STRAIGHT, Transition(1.0, 1.0, 6.0, 1.0))
        right = step_reward(GO_STRAIGHT, Transition(1.0, 1.0, 6.0, -1.0))
        assert left == right
        assert left < step_reward(GO_STRAIGHT, Transition(1.0, 1.0, 6.0, 0.0))

    def test_min_range_clamped_at_singularity(self):
        r = step_reward(OBSTACLE_AVOIDANCE, Transition(1.0, 1.0, 0.0, 0.0))
        clamped = step_reward(OBSTACLE_AVOIDANCE, Transition(1.0, 1.0, 0.05, 0.0))
        assert r == clamped
        assert math.isfinite(r)


def make_result(min_ranges, d_start, d_end, outcome="success", sim_time=10.0):
    """An episode record with the fields the metrics read; the robot
    stands still at the origin."""
    n = len(min_ranges)
    return EpisodeResult(
        outcome=outcome,
        sim_time=sim_time,
        min_ranges=np.asarray(min_ranges, dtype=float),
        d_start=d_start,
        d_end=d_end,
        poses=np.zeros((n, 3)),
        actions=np.zeros((n, 3)),
        exploration_selections=[],
        goal_known_time=None,
        cadence={},
    )


class TestRiskScore:
    """The per-step risk ramp, read through ARSPS on one-step episodes."""

    @staticmethod
    def risk(min_range):
        return episode_metrics(make_result([min_range], 5.0, 4.0))["arsps"]

    def test_clear_space_is_zero(self):
        assert self.risk(0.6) == 0.0
        assert self.risk(5.0) == 0.0

    def test_reference_points(self):
        assert self.risk(0.3) == pytest.approx(1.0, abs=1e-12)
        assert self.risk(0.45) == pytest.approx(0.15 / 0.45, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=5.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_nonincreasing(self, m, bump):
        assert self.risk(m) >= self.risk(m + bump) - 1e-12


class TestEpisodeMetrics:
    def test_clear_run_has_zero_arsps(self):
        m = episode_metrics(make_result([1.0, 2.0, 3.0], 3.0, 0.0))
        assert m["arsps"] == 0.0

    def test_ansps_reference_value(self):
        # direct evaluation: (10 - 0) / (10 * 100)
        m = episode_metrics(make_result([1.0] * 100, 10.0, 0.0))
        assert m["ansps"] == pytest.approx((10.0 - 0.0) / (10.0 * 100), abs=1e-12)

    def test_stationary_robot_zero_ansps(self):
        m = episode_metrics(make_result([1.0] * 50, 4.0, 4.0, outcome="timeout"))
        assert m["ansps"] == 0.0
        assert m["arriving_time"] is None

    def test_arsps_is_mean_risk(self):
        m = episode_metrics(make_result([0.3, 0.6], 5.0, 4.0))
        assert m["arsps"] == pytest.approx(0.5 * (1.0 + 0.0), abs=1e-12)
        assert m["arsps"] >= 0.0

    def test_flags(self):
        assert episode_metrics(make_result([1], 1, 0, "crash"))["crash"]
        assert episode_metrics(make_result([1], 1, 0, "timeout"))["timeout"]
        m = episode_metrics(make_result([1], 1, 0.0, "success", sim_time=7.5))
        assert m["success"] and m["arriving_time"] == 7.5

    def test_csv_row_layout(self):
        m = episode_metrics(make_result([1.0] * 10, 5.0, 1.0))
        row = metrics_csv_row("rooms", 42, m)
        assert row[0] == "rooms"
        assert row[1] == 42
        assert row[2] == 1 and row[3] == 0 and row[4] == 0
        assert row[8] == 10
