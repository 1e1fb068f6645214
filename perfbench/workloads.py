"""The benchmark's three workloads.

Each workload is a closed loop driven by one caller: it runs deterministic
units (four episodes, or one CEM generation) one after another, and
the next unit starts only when the previous one has returned.  Unit ``i``
is a pure function of the workload seed and ``i``, so running unit 0 twice
must give the same digest.

* ``explore``: the full stack with the scripted bundle, two double-branch
  and two blind-alley episodes per unit.
* ``train-expert``: one stage-1 CEM generation of ``train_expert``.
* ``train-fusion``: one stage-2 generation of ``cotrain_fusion`` from two
  seeded random experts.

The training calls are stopped from their ``on_generation`` callback once
the unit's generation has finished.  Letting them return would add their
held-out quality gate, which needs far more generations than a run can
afford: after 5 generations ``train_expert`` still raised ``TrainingError``
on one seed in six.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from speed import Speedometer

OUTCOMES = ("success", "crash", "timeout")
MAX_UNITS = 100          # explore scenario seeds are 1000 * seed + 2 * i + k, k in {0, 1}
WARMUP_SIM_S = 2.0       # simulated seconds of the warm-up episode


class TickClock:
    """Policy wrapper that stamps every ``action`` call.

    The gap between successive stamps is one control tick of the caller's
    loop.  Everything else is delegated to the wrapped policy, so
    ``run_episode`` and ``rollout_lower`` see the same attributes.  With a
    ``Speedometer`` it samples the host's speed when one is due, and the
    sample is left out of the gap it falls in.
    """

    def __init__(self, policy, tracer=None, speed=None):
        self.inner = policy
        self.speed = speed
        self.stamps: list[float] = []    # when the call came in
        self.resumed: list[float] = []   # when the tick's work went on, after any sample
        self.actions: list = []
        self._action = policy.action if tracer is None else tracer.wrap(policy.action, "policy.action")
        value = getattr(policy, "value", None)
        if value is not None:
            self.value = value if tracer is None else tracer.wrap(value, "policy.value")

    def action(self, obs, *args, **kwargs):
        t = perf_counter()
        self.stamps.append(t)
        if self.speed is not None and self.speed.due(t):
            t = self.speed.sample()
        self.resumed.append(t)
        a = self._action(obs, *args, **kwargs)
        self.actions.append(a)
        return a

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def gaps_ms(self, speed=None) -> np.ndarray:
        """Tick gaps in ms; scaled by ``speed`` when given."""
        start, end = np.array(self.resumed[:-1]), np.array(self.stamps[1:])
        gaps = (end - start) * 1e3
        return gaps if speed is None else gaps * speed.factor_at((start + end) / 2)


@dataclass
class Unit:
    """One unit's results.  ``wall_s`` and the tick gaps are scaled to the
    reference speed (see speed.py); the raw figures are kept beside them.
    A traced unit samples the speed only before and after its work."""

    wall_s: float
    raw_wall_s: float
    ticks: int
    episodes: int
    successes: int
    failed: int
    tick_ms: np.ndarray
    raw_tick_ms: np.ndarray
    digest: str
    plan_tick_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    counters: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def _actions_ok(actions: np.ndarray) -> bool:
    from navstack.world import ACTION_HIGH, ACTION_LOW

    return bool(np.all(np.isfinite(actions)) and np.all(actions >= ACTION_LOW) and np.all(actions <= ACTION_HIGH))


class Explore:
    """Full stack on double-branch and blind-alley, default StackConfig."""

    unit_s = 4.6  # nominal wall seconds of one unit, on a 2-vCPU 2.1 GHz Xeon VM
    MAPS = ("double-branch", "blind-alley")

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny

    def build(self) -> None:
        from navstack import scenarios, scripted, stack

        self.config = stack.StackConfig(timeout=3.0) if self.tiny else stack.StackConfig()
        self.plan_period = max(1, int(round(self.config.control_hz / self.config.plan_hz)))
        self.specs = [
            [scenarios.make_scenario(m, 1000 * self.seed + 2 * i + k) for k in (0, 1) for m in self.MAPS]
            for i in range(MAX_UNITS)
        ]
        self.policy = scripted.scripted_bundle()
        stack.run_episode(self.specs[0][0], self.policy, stack.StackConfig(timeout=WARMUP_SIM_S))

    def run_unit(self, i: int, tracer=None) -> Unit:
        from navstack import stack

        speed = Speedometer()
        speed.sample()
        runs = []
        for spec in self.specs[i]:
            clock = TickClock(self.policy, tracer, None if tracer else speed)
            t0 = perf_counter()
            res = stack.run_episode(spec, clock, self.config)
            runs.append((spec, clock, res, t0, perf_counter()))
        speed.sample()

        wall = raw_wall = 0.0
        ticks = successes = failed = 0
        gaps, raw_gaps, plan_gaps, errors = [], [], [], []
        counters = {"plan_ticks": 0, "explore_scheduled": 0, "explore_triggered": 0}
        h = hashlib.sha256()
        for spec, clock, res, t0, t1 in runs:
            wall += speed.scaled(t0, t1)
            raw_wall += speed.raw(t0, t1)
            g = clock.gaps_ms(speed)
            gaps.append(g)
            raw_gaps.append(clock.gaps_ms())
            plan_gaps.append(g[np.arange(1, g.size + 1) % self.plan_period == 0])
            ticks += res.steps
            successes += res.outcome == "success"
            counters["plan_ticks"] += (res.steps - 1) // self.plan_period + 1 if res.steps else 0
            counters["explore_scheduled"] += res.cadence["explore_scheduled"]
            counters["explore_triggered"] += res.cadence["explore_triggered"]
            ok = res.outcome in OUTCOMES and _actions_ok(res.actions) and len(res.poses) == res.steps
            if not ok:
                failed += 1
                errors.append(f"{spec.name} seed {spec.seed}: outcome {res.outcome} {res.error or ''}".strip())
            h.update(f"{spec.name}|{spec.seed}|{res.outcome}|{res.steps}|".encode())
            h.update(np.ascontiguousarray(res.poses, dtype=np.float64).tobytes())
            h.update(np.ascontiguousarray(res.actions, dtype=np.float64).tobytes())
        return Unit(
            wall_s=wall, raw_wall_s=raw_wall, ticks=ticks, episodes=len(runs), successes=successes,
            failed=failed, tick_ms=np.concatenate(gaps), raw_tick_ms=np.concatenate(raw_gaps),
            plan_tick_ms=np.concatenate(plan_gaps), digest=h.hexdigest(), counters=counters, errors=errors,
        )


class _GenerationDone(Exception):
    """Raised from on_generation to end a training call after one generation."""


def _params_of(policy) -> list:
    if hasattr(policy, "params"):
        return [policy.params]
    return [*policy.bank.experts, policy.gating.params, policy.critic.params]


class Train:
    """One CEM generation per unit, at the acceptance fixture's stage-1 or
    stage-2 TrainConfig.

    The workload seed picks the task set (and, for fusion, the starting
    experts).  Unit ``i`` runs with TrainConfig seed ``fixture seed + i``
    whatever the workload seed, so every seed draws its episodes from the
    same task indices and task families: with only 3-4 episodes per
    generation, a free draw made the fusion tick rate swing from 2.1k to
    3.1k ticks/s between seeds on family mix alone.
    """

    def __init__(self, name: str, seed: int, tiny: bool):
        self.name = name
        self.unit_s = 6.0 if name == "train-expert" else 7.0  # nominal, as Explore.unit_s
        self.seed = seed
        self.tiny = tiny

    def build(self) -> None:
        from navstack import policy, scenarios, training

        self.obs_config = policy.ObservationConfig()
        count = 2 if self.tiny else 12
        if self.name == "train-expert":
            self.scenarios = scenarios.training_scenarios("static", count, 3 + self.seed)
            cfg = training.TrainConfig(population=32, elite_fraction=0.2, noise_std=0.5, noise_decay=0.96,
                                       generations=1, episodes_per_eval=4, seed=11, episode_time_limit=12.0)
        else:
            self.scenarios = scenarios.training_scenarios("families", count, 5 + self.seed)
            cfg = training.TrainConfig(population=28, elite_fraction=0.2, noise_std=0.25, noise_decay=0.96,
                                       generations=1, episodes_per_eval=3, seed=12, episode_time_limit=12.0)
        if self.tiny:
            cfg = replace(cfg, population=4, episodes_per_eval=1, episode_time_limit=1.0)
        self.config = cfg
        experts = self._experts(0)
        warm = policy.SingleExpertPolicy(self.obs_config, experts[0])
        training.rollout_lower(self.scenarios[0], warm, training.PROFILES["fusion"], self.obs_config, WARMUP_SIM_S)

    def _experts(self, i: int):
        """Two seeded random experts: the stage-2 starting point."""
        from navstack import policy, training

        rng = np.random.Generator(np.random.PCG64([self.seed, i]))
        sizes = (self.obs_config.dim, *training.HIDDEN, 3)
        scales = self.obs_config.feature_scales()
        return [policy.MlpParams.random(*sizes, rng=rng, input_scales=scales) for _ in range(2)]

    def run_unit(self, i: int, tracer=None) -> Unit:
        from navstack import training

        cfg = replace(self.config, seed=self.config.seed + i)
        experts = self._experts(i) if self.name == "train-fusion" else None
        episodes, generations, errors = [], [], []
        original = training.rollout_lower

        speed = Speedometer()

        def recording(spec, policy, *args, **kwargs):
            clock = TickClock(policy, tracer, None if tracer else speed)
            out = original(spec, clock, *args, **kwargs)
            episodes.append((policy, clock, out[0], out[1]))
            return out

        def on_generation(info):
            generations.append(info)
            raise _GenerationDone

        training.rollout_lower = recording
        speed.sample()
        t0 = perf_counter()
        try:
            if experts is None:
                training.train_expert("go-straight", self.scenarios, cfg, self.obs_config, on_generation)
            else:
                training.cotrain_fusion(*experts, self.scenarios, cfg, self.obs_config, on_generation)
        except _GenerationDone:
            pass
        except training.TrainingError as exc:
            errors.append(f"TrainingError: {exc}")
        finally:
            t1 = perf_counter()
            training.rollout_lower = original
        speed.sample()
        return self._check(speed, t0, t1, episodes, generations, errors)

    def _check(self, speed, t0, t1, episodes, generations, errors) -> Unit:
        """Output checks and the digest, after the timed region."""
        h = hashlib.sha256()
        for info in generations:
            h.update(repr(sorted(info.items())).encode())
        param_digests: dict[int, bytes | None] = {}
        failed = len(errors)
        ticks = successes = 0
        gaps, raw_gaps = [], []
        for policy, clock, ret, traj in episodes:
            key = id(policy)  # policies stay referenced in ``episodes``, so ids are unique
            if key not in param_digests:
                ph = hashlib.sha256()
                try:
                    for p in _params_of(policy):
                        p.validate()
                        for a in p.arrays():
                            ph.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
                    param_digests[key] = ph.digest()
                except ValueError as exc:
                    errors.append(f"invalid parameters: {exc}")
                    param_digests[key] = None
            actions = np.array(clock.actions, dtype=float).reshape(-1, 3)
            steps = len(traj.min_ranges)
            if param_digests[key] is None or traj.outcome not in OUTCOMES or not _actions_ok(actions):
                failed += 1
                errors.append(f"episode failed its checks (outcome {traj.outcome})")
            ticks += steps
            successes += traj.outcome == "success"
            gaps.append(clock.gaps_ms(speed))
            raw_gaps.append(clock.gaps_ms())
            h.update(f"{traj.outcome}|{steps}|{ret!r}|".encode())
            h.update(param_digests[key] or b"")
            h.update(actions.tobytes())
        return Unit(
            wall_s=speed.scaled(t0, t1), raw_wall_s=speed.raw(t0, t1), ticks=ticks, episodes=len(episodes),
            successes=successes, failed=failed, tick_ms=np.concatenate(gaps) if gaps else np.empty(0),
            raw_tick_ms=np.concatenate(raw_gaps) if raw_gaps else np.empty(0), digest=h.hexdigest(),
            errors=errors,
        )


def make(name: str, seed: int, tiny: bool):
    if name == "explore":
        return Explore(seed, tiny)
    return Train(name, seed, tiny)

