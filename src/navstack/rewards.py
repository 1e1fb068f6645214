"""Step rewards under the three weight presets, per-step risk scores, and
per-episode evaluation metrics.

Sign conventions: progress toward the goal is rewarded (R_g multiplies
d_prev - d_now) and the spin penalty uses |omega_z| so both turn directions
count.  The proximity term's singularity is bounded by clamping the minimum
range at 0.05 m; collisions end the episode before that matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RISK_BAND = 0.6      # clearance below this starts accruing risk
MIN_RANGE_CLAMP = 0.05


@dataclass(frozen=True)
class RewardProfile:
    w_g: float
    w_o: float
    w_c: float
    w_r: float
    w_t: float
    w_e: float
    w_a: float


# Preset weights: goal progress, proximity, collision, reach, per-step time,
# timeout, spin.  The obstacle-avoidance preset really does reward elapsed
# time and timeouts (positive w_t, w_e): it optimizes survival, not progress.
GO_STRAIGHT = RewardProfile(w_g=3, w_o=0, w_c=-0.25, w_r=1, w_t=-1, w_e=-1, w_a=-0.5)
OBSTACLE_AVOIDANCE = RewardProfile(w_g=1, w_o=-0.4, w_c=-1, w_r=0.25, w_t=1, w_e=1, w_a=0)
FUSION = RewardProfile(w_g=4, w_o=0, w_c=-1, w_r=1, w_t=0, w_e=0, w_a=0)

PROFILES = {
    "go-straight": GO_STRAIGHT,
    "obstacle-avoidance": OBSTACLE_AVOIDANCE,
    "fusion": FUSION,
}


@dataclass(frozen=True)
class Transition:
    """One control step as the reward function sees it."""

    d_prev: float      # robot-goal distance before the step, meters
    d_now: float       # distance after the step
    min_range: float   # smallest lidar range this step
    omega_z: float     # commanded yaw rate
    collision: bool = False
    reached: bool = False
    timeout: bool = False


def _proximity(min_range: float) -> float:
    m = max(min_range, MIN_RANGE_CLAMP)
    near = max(RISK_BAND - m, 0.0)
    return near / (RISK_BAND - near)


def step_reward(profile: RewardProfile, t: Transition) -> float:
    """The seven weighted terms, summed left to right: goal progress,
    proximity, collision, reach, time, timeout, spin."""
    return (
        profile.w_g * (t.d_prev - t.d_now)
        + profile.w_o * _proximity(t.min_range)
        + (profile.w_c * 15.0 if t.collision else 0.0)
        + (profile.w_r * 20.0 if t.reached else 0.0)
        + profile.w_t * 0.01
        + (profile.w_e * 5.0 if t.timeout else 0.0)
        + profile.w_a * max(abs(t.omega_z) - 0.3, 0.0)
    )


def episode_rewards(profile: RewardProfile, result, goal) -> list[float]:
    """Per-step rewards of a finished episode, replayed from its record.

    ``result`` is a stack.EpisodeResult.  Step k takes the robot from
    ``poses[k]`` to the next pose, or to the final one on the last step,
    which also carries the episode's collision, reach or timeout event.
    """
    gx, gy = goal
    dists = [result.d_start] + [math.hypot(p[0] - gx, p[1] - gy) for p in result.poses[1:]] + [result.d_end]
    last = result.steps - 1
    return [
        step_reward(profile, Transition(
            d_prev=dists[k],
            d_now=dists[k + 1],
            min_range=float(result.min_ranges[k]),
            omega_z=float(result.actions[k, 2]),
            collision=k == last and result.outcome == "crash",
            reached=k == last and result.outcome == "success",
            timeout=k == last and result.outcome == "timeout",
        ))
        for k in range(result.steps)
    ]


def episode_metrics(result) -> dict:
    """The five evaluation quantities of one stack.EpisodeResult, read from
    its ``outcome``, ``sim_time``, ``min_ranges``, ``d_start`` and ``d_end``.

    ARSPS is the mean per-step risk score; ANSPS is the normalized net
    approach per step, (D_start - D_end) / (D_start * N_steps); arriving
    time, the episode's sim time, exists only on success.
    """
    n = len(result.min_ranges)
    if n > 0:
        risks = np.array([_proximity(m) for m in result.min_ranges])
        arsps = float(risks.mean())
    else:
        arsps = 0.0
    if n > 0 and result.d_start > 0.0:
        ansps = (result.d_start - result.d_end) / (result.d_start * n)
    else:
        ansps = 0.0
    return {
        "success": result.outcome == "success",
        "crash": result.outcome == "crash",
        "timeout": result.outcome == "timeout",
        "arriving_time": result.sim_time if result.outcome == "success" else None,
        "arsps": arsps,
        "ansps": float(ansps),
        "steps": n,
    }


METRICS_CSV_HEADER = (
    "scenario", "seed", "success", "crash", "timeout",
    "arriving_time", "ARSPS", "ANSPS", "steps",
)


def metrics_csv_row(scenario: str, seed: int, metrics: dict) -> tuple:
    return (
        scenario,
        seed,
        int(metrics["success"]),
        int(metrics["crash"]),
        int(metrics["timeout"]),
        metrics["arriving_time"] if metrics["arriving_time"] is not None else "",
        metrics["arsps"],
        metrics["ansps"],
        metrics["steps"],
    )
