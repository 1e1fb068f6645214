"""Desk-scale two-stage training with a cross-entropy-method optimizer.

Stage 1 trains the go-straight and obstacle-avoidance experts in their own
scenario diets; stage 2 replicates them into a four-expert bank and
co-trains bank + gating + critic on mixed tasks.  Candidates are sampled in
parameter space around a mean, scored by mean episodic return over a fixed
seed block (common random numbers across the population), and the elite
mean becomes the next center.  The critic's output layer is refit by ridge
regression to discounted returns observed on elite rollouts, so no gradient
machinery is needed anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice

import numpy as np

from .policy import (
    CriticParams,
    ExpertBank,
    GatingParams,
    MlpParams,
    NUM_EXPERTS,
    ObservationConfig,
    PolicyBundle,
    SingleExpertPolicy,
)
from .rewards import PROFILES, RewardProfile, episode_rewards
from .scenarios import training_scenarios
from .stack import StackConfig, check_timeout, run_episode

DISCOUNT = 0.99
RIDGE = 1.0  # the critic head refit's ridge penalty
HIDDEN = (64, 64)
CRITIC_ROWS = 40_000  # the newest elite rows the critic head is refit on


class TrainingError(RuntimeError):
    """Raised when training fails to improve on its baselines."""


@dataclass(frozen=True)
class TrainConfig:
    population: int = 64
    elite_fraction: float = 0.125
    noise_std: float = 0.4
    noise_decay: float = 0.97
    generations: int = 60
    episodes_per_eval: int = 8
    seed: int = 0
    episode_time_limit: float = 12.0

    def __post_init__(self) -> None:
        for name, low in (("population", 4), ("generations", 0), ("episodes_per_eval", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not (0 < self.elite_fraction < 1):
            raise ValueError("elite_fraction must be in (0, 1)")
        for name in ("noise_std", "noise_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        check_timeout("episode_time_limit", self.episode_time_limit)

    @property
    def n_elite(self) -> int:
        return max(1, int(round(self.population * self.elite_fraction)))


# Each training stage: the reward preset it trains under and the
# ``scenarios.training_scenarios`` kind of its task set.
STAGES = {
    "expert-gs": ("go-straight", "static"),
    "expert-oa": ("obstacle-avoidance", "dynamic"),
    "fusion": ("fusion", "families"),
}

# The acceptance training pipeline (``train_pipeline``): stage-1 experts, then
# stage-2 fusion, each on ``training_scenarios(kind, tasks, PIPELINE_TASK_SEEDS[kind])``.
PIPELINE_STAGE1 = TrainConfig(population=32, elite_fraction=0.2, noise_std=0.5, noise_decay=0.96,
                              generations=24, episodes_per_eval=4, seed=11, episode_time_limit=12.0)
PIPELINE_STAGE2 = replace(PIPELINE_STAGE1, population=28, noise_std=0.25, generations=16, episodes_per_eval=3, seed=12)
PIPELINE_TASKS = 12
PIPELINE_TASK_SEEDS = {"static": 3, "dynamic": 4, "families": 5}


# ---------------------------------------------------------------------------
# Parameter vectors.  A layout is a sequence of MLP ``sizes``; its vector holds
# the networks back to back, each as its arrays in ``MlpParams.arrays()`` order.


def pack(mlps) -> np.ndarray:
    """Flatten networks into one vector."""
    return np.concatenate([a.reshape(-1) for p in mlps for a in p.arrays()])


def unpack(vec: np.ndarray, layout) -> list[MlpParams]:
    """The networks of ``layout`` as views into a packed vector: a network
    changed in place changes ``vec``."""
    mlps = []
    off = 0
    for sizes in layout:
        arrays = []
        for shape in MlpParams.shapes(sizes):
            n = math.prod(shape)
            arrays.append(vec[off:off + n].reshape(shape))
            off += n
        mlps.append(MlpParams(*arrays))
    if off != len(vec):
        raise ValueError(f"vector of length {len(vec)} does not match a layout of {off} parameters")
    return mlps


def _copy(p: MlpParams) -> MlpParams:
    return MlpParams(*(a.copy() for a in p.arrays()))


def scale_vector(layout, input_scales: np.ndarray) -> np.ndarray:
    """Per-parameter perturbation unit: the init std of each entry, so CEM
    noise stays proportionate across layers and feature magnitudes."""
    return pack(MlpParams(*MlpParams.init_stds(sizes, input_scales)) for sizes in layout)


# ---------------------------------------------------------------------------
# Lower-layer rollouts: the episode loop in lower-only mode, then scored


class _ObservationRecorder:
    """Passes actions through and keeps every observation's feature vector:
    the observation's own array, the very one the policy reads."""

    def __init__(self, policy):
        self.policy = policy
        self.rows: list[np.ndarray] = []

    def action(self, obs) -> np.ndarray:
        self.rows.append(obs.vector())
        return self.policy.action(obs)


def rollout_lower(
    spec,
    policy,
    profile: RewardProfile,
    obs_config: ObservationConfig,
    time_limit: float,
    collect: bool = False,
):
    """One lower-layer episode (``run_episode`` in lower-only mode) scored
    under ``profile``; returns (return, EpisodeResult, obs_matrix, rewards)
    where the last two are None unless ``collect``.  Raises RuntimeError if
    the episode failed, so an error never passes for a short return."""
    recorder = _ObservationRecorder(policy) if collect else None
    config = StackConfig(mode="lower-only", timeout=time_limit)
    res = run_episode(spec, recorder or policy, config, obs_config)
    if res.outcome == "failed":
        raise RuntimeError(f"rollout on {spec.name} seed {spec.seed} failed: {res.error}")
    rewards = episode_rewards(profile, res, spec.goal)
    total = 0.0
    for r in rewards:  # left to right: np.sum's pairwise order changes the bits
        total += r
    if collect:
        return total, res, np.array(recorder.rows), np.array(rewards)
    return total, res, None, None


def _objective(make_policy, scenario_set, profile, obs_config, time_limit):
    """A stage's CEM objective ``score(vec, seeds)``: the mean return of
    ``make_policy(vec)`` over one episode per seed.  ``rollout_lower`` is
    looked up in this module at call time, so a patched one is the one run."""
    def score(vec: np.ndarray, seeds) -> float:
        policy = make_policy(vec)
        total = 0.0
        for sd in seeds:
            # The seed also picks the scenario, so every generation samples the
            # whole task set instead of replaying its head.
            spec = replace(scenario_set[int(sd) % len(scenario_set)], seed=int(sd))
            total += rollout_lower(spec, policy, profile, obs_config, time_limit)[0]
        return total / len(seeds)
    return score


def _episode_seeds(master: np.random.Generator, count: int) -> np.ndarray:
    return master.integers(0, 2**62, size=count)


# ---------------------------------------------------------------------------
# Stage 1: single experts


def train_expert(
    profile_name: str,
    scenario_set,
    config: TrainConfig,
    obs_config: ObservationConfig = ObservationConfig(),
    on_generation=None,
) -> MlpParams:
    """CEM-train one expert under the named reward preset.

    Returns the best candidate parameters seen anywhere in the run.  Raises
    TrainingError if the run never improves on its own starting point, or if
    the result fails to beat the all-zero policy on held-out seeds.
    """
    layout = [(obs_config.dim, HIDDEN[0], HIDDEN[1], 3)]
    master = np.random.Generator(np.random.PCG64(config.seed))
    mean = pack([MlpParams.random(*layout[0], rng=master, input_scales=obs_config.feature_scales())])
    if config.generations == 0:
        return unpack(mean, layout)[0]

    def make_policy(vec: np.ndarray) -> SingleExpertPolicy:
        return SingleExpertPolicy(obs_config, unpack(vec, layout)[0])

    score = _objective(make_policy, scenario_set, PROFILES[profile_name], obs_config, config.episode_time_limit)
    scales = scale_vector(layout, obs_config.feature_scales())
    best_vec, best_ret, init_ret, _ = _cem(mean, scales, score, config, master, on_generation)
    if best_ret <= init_ret:
        raise TrainingError(
            f"{profile_name}: no improvement over the initial policy "
            f"({best_ret:.3f} <= {init_ret:.3f})"
        )
    _require_beats_zero(score, best_vec, config.seed)
    return unpack(best_vec, layout)[0]


def _require_beats_zero(score, vec: np.ndarray, seed: int) -> None:
    """Raise TrainingError unless ``vec`` outscores the all-zero vector on
    16 held-out seeds drawn from ``seed``."""
    holdout = _episode_seeds(np.random.Generator(np.random.PCG64(seed + 7919)), 16)
    trained = score(vec, holdout)
    baseline = score(np.zeros_like(vec), holdout)
    if trained <= baseline:
        raise TrainingError(
            f"trained return {trained:.3f} does not beat the zero policy {baseline:.3f} on held-out seeds"
        )


def _noise_row(rng: np.random.Generator, i: int, dim: int) -> np.ndarray:
    """Candidate ``i``'s standard-normal row, drawn from ``rng``.  Row 0 is
    drawn too, so the stream does not depend on it, then zeroed: the mean
    itself is always a candidate."""
    row = rng.normal(0.0, 1.0, dim)
    if i == 0:
        row[:] = 0.0
    return row


def _generator_at(state: dict) -> np.random.Generator:
    """A generator that resumes from a saved ``bit_generator.state``."""
    bit_generator = np.random.PCG64(0)
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _perturbed(mean, sigma, scales, noise):
    """``mean + sigma * scales * row`` for each noise row, built when read."""
    return (mean + sigma * scales * row for row in noise)


def _cem(mean, scales, score, config, master, on_generation, _after_update=None):
    """Shared CEM loop: maximises ``score(vec, seeds)``, the mean return of
    candidate ``vec`` on the generation's episode seeds.  Returns (best_vec,
    best_return, initial_return, final_mean).

    Perturbations are sigma * scales * N(0, 1): proportional to each
    parameter's init magnitude.  Episode seeds are shared across the
    population (common random numbers) so candidates are comparable.
    Each candidate's noise row is drawn when the candidate is scored, after
    saving the generator's state; once the returns are known only the elite
    rows are drawn again, from their saved states.  Row-by-row draws give
    the stream of one (population, dim) draw, so a generation holds
    n_elite rows of noise, not population rows, and the results are the
    same bits.  ``_after_update(gen, seeds, elite_vecs, mean)``, when
    given, runs after each mean update and returns the mean to carry on
    with; ``elite_vecs`` is an iterator that builds each elite vector, best
    first, from the pre-update mean and sigma as it is read.  Every
    candidate, elite vector and updated mean is a fresh array, so ``score``
    may keep views of a candidate and ``_after_update`` may write into the
    mean it gets: neither reaches an earlier vector or the caller's ``mean``.
    """
    sigma = config.noise_std
    dim = mean.shape[0]
    best_vec = mean.copy()
    best_ret = -math.inf
    init_ret: float | None = None
    for gen in range(config.generations):
        seeds = _episode_seeds(master, config.episodes_per_eval)
        states = []
        returns = np.empty(config.population)
        for i in range(config.population):
            states.append(master.bit_generator.state)
            returns[i] = score(mean + sigma * scales * _noise_row(master, i, dim), seeds)
        if init_ret is None:
            init_ret = float(returns[0])
        order = np.argsort(-returns, kind="stable")
        elites = order[: config.n_elite]
        gen_best = int(order[0])
        # Row j is elite j's noise, best first, as noise[elites] was.
        noise = np.stack([_noise_row(_generator_at(states[i]), i, dim) for i in elites])
        if returns[gen_best] > best_ret:
            best_ret = float(returns[gen_best])
            best_vec = mean + sigma * scales * noise[0]
        elite_vecs = _perturbed(mean, sigma, scales, noise)
        mean = mean + sigma * scales * noise.mean(axis=0)
        if _after_update is not None:
            mean = _after_update(gen, seeds, elite_vecs, mean)
        sigma = max(sigma * config.noise_decay, 1e-3)
        if on_generation is not None:
            on_generation(
                {
                    "generation": gen,
                    "best_return": best_ret,
                    "gen_best_return": float(returns[gen_best]),
                    "mean_return": float(returns.mean()),
                    "sigma": sigma,
                }
            )
    return best_vec, best_ret, float(init_ret), mean


# ---------------------------------------------------------------------------
# Stage 2: bank + gating + critic co-training


def init_fusion_vector(
    expert_a: MlpParams,
    expert_b: MlpParams,
    obs_config: ObservationConfig,
    seed: int,
) -> tuple[np.ndarray, list]:
    """Stage-2 start: bank [a, b, a, b], small random gating, random critic.
    Returns the vector and its layout: four experts, then gating, then critic."""
    if expert_a.sizes != expert_b.sizes:
        raise ValueError("experts must share one shape")
    gating_sizes = (obs_config.dim, HIDDEN[0], HIDDEN[1], NUM_EXPERTS)
    critic_sizes = (obs_config.dim, HIDDEN[0], HIDDEN[1], 1)
    layout = [expert_a.sizes] * NUM_EXPERTS + [gating_sizes, critic_sizes]
    rng = np.random.Generator(np.random.PCG64(seed))
    scales = obs_config.feature_scales()
    gating = MlpParams.random(*gating_sizes, rng=rng, input_scales=scales)
    gating.w2 *= 0.1  # start near-uniform so the bank average acts first
    critic = MlpParams.random(*critic_sizes, rng=rng, input_scales=scales)
    return pack([expert_a, expert_b, expert_a, expert_b, gating, critic]), layout


def _fusion_parts(vec: np.ndarray, layout) -> tuple[ExpertBank, GatingParams, CriticParams]:
    """The stage-2 networks of ``vec``, each a copy.  The bank copies the
    experts straight from ``vec`` into its fusion matrices."""
    *experts, gating, critic = unpack(vec, layout)
    return ExpertBank(tuple(experts)), GatingParams(_copy(gating)), CriticParams(_copy(critic))


def _refit_critic_head(p: MlpParams, obs_matrix: np.ndarray, targets: np.ndarray) -> None:
    """Ridge-fit (penalty ``RIDGE``) the critic network's linear output layer on hidden features."""
    h = np.tanh(obs_matrix @ p.w0 + p.b0)
    h = np.tanh(h @ p.w1 + p.b1)
    phi = np.concatenate([h, np.ones((h.shape[0], 1))], axis=1)
    a = phi.T @ phi + RIDGE * np.eye(phi.shape[1])
    w = np.linalg.solve(a, phi.T @ targets)
    p.w2[:, 0] = w[:-1]
    p.b2[0] = w[-1]


def _discounted_returns(rewards: np.ndarray) -> np.ndarray:
    g = np.zeros_like(rewards)
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + DISCOUNT * acc
        g[i] = acc
    return g


class _RowWindow:
    """The newest ``size`` rows appended, in order, in one array allocated
    once: ``rows()`` equals ``np.concatenate(appended)[-size:]``."""

    def __init__(self, size: int, *shape: int):
        self.buf, self.n = np.empty((size, *shape)), 0

    def append(self, rows: np.ndarray) -> None:
        rows = rows[-len(self.buf):]
        keep = min(self.n, len(self.buf) - len(rows))  # the held rows that stay
        if keep < self.n:  # drop the oldest, keeping the rest in order
            self.buf[:keep] = self.buf[self.n - keep:self.n]
        self.n = keep + len(rows)
        self.buf[keep:self.n] = rows

    def rows(self) -> np.ndarray:
        return self.buf[:self.n]


def cotrain_fusion(
    expert_a: MlpParams,
    expert_b: MlpParams,
    scenario_mix,
    config: TrainConfig,
    obs_config: ObservationConfig = ObservationConfig(),
    on_generation=None,
) -> tuple[ExpertBank, GatingParams, CriticParams]:
    """Co-train the replicated bank, gating, and critic under the fusion
    reward preset; the critic head is refit each generation by regression on
    elite-rollout discounted returns."""
    profile = PROFILES["fusion"]
    master = np.random.Generator(np.random.PCG64(config.seed))
    mean, layout = init_fusion_vector(expert_a, expert_b, obs_config, config.seed)
    if config.generations == 0:
        return _fusion_parts(mean, layout)

    def make_policy(vec: np.ndarray) -> PolicyBundle:
        return PolicyBundle(obs_config, *_fusion_parts(vec, layout))

    buffer_obs = _RowWindow(CRITIC_ROWS, obs_config.dim)
    buffer_g = _RowWindow(CRITIC_ROWS)

    def refit_critic(gen, seeds, elite_vecs, mean):
        # Elite rollouts feed the critic's regression targets.  Elite j runs
        # task (gen + j) % len with the generation's seed j % len(seeds), not
        # the seed-picked tasks it was scored on.
        for j, vec in enumerate(islice(elite_vecs, 4)):
            spec = replace(scenario_mix[(gen + j) % len(scenario_mix)], seed=int(seeds[j % len(seeds)]))
            _, _, obs_m, rews = rollout_lower(
                spec, make_policy(vec), profile, obs_config, config.episode_time_limit, collect=True
            )
            if len(obs_m):
                buffer_obs.append(obs_m)
                buffer_g.append(_discounted_returns(rews))
        if buffer_obs.n:  # writes the head into ``mean``; the critic is last
            _refit_critic_head(unpack(mean, layout)[-1], buffer_obs.rows(), buffer_g.rows())
        return mean

    score = _objective(make_policy, scenario_mix, profile, obs_config, config.episode_time_limit)
    scales = scale_vector(layout, obs_config.feature_scales())
    best_vec, best_ret, init_ret, mean = _cem(mean, scales, score, config, master, on_generation,
                                              _after_update=refit_critic)
    if best_ret <= init_ret:
        raise TrainingError(
            f"fusion co-training did not improve ({best_ret:.3f} <= {init_ret:.3f})"
        )
    bank, gating, _ = _fusion_parts(best_vec, layout)
    _, _, critic = _fusion_parts(mean, layout)  # carries the latest regression fit
    return bank, gating, critic


# ---------------------------------------------------------------------------
# The two-stage pipeline


def pipeline_configs(generations: int, fusion_generations: int) -> tuple[TrainConfig, TrainConfig]:
    """The stage-1 and stage-2 configs of ``train_pipeline`` at these generation counts."""
    return (replace(PIPELINE_STAGE1, generations=generations),
            replace(PIPELINE_STAGE2, generations=fusion_generations))


def train_pipeline(
    tasks: int = PIPELINE_TASKS,
    generations: int = PIPELINE_STAGE1.generations,
    fusion_generations: int = PIPELINE_STAGE2.generations,
    on_generation=None,
) -> tuple[MlpParams, MlpParams, PolicyBundle]:
    """Train expert-gs and expert-oa under ``PIPELINE_STAGE1``, then the
    fusion bank, gating and critic from them under ``PIPELINE_STAGE2``, each
    stage on ``tasks`` scenarios of its ``STAGES`` kind.  Returns the
    go-straight expert, the obstacle-avoidance expert and the fused bundle.
    ``on_generation(stage, row)`` gets each stage's CEM log rows."""
    obs_config = ObservationConfig()
    stage1, stage2 = pipeline_configs(generations, fusion_generations)

    def task_set(stage):
        kind = STAGES[stage][1]
        return training_scenarios(kind, tasks, PIPELINE_TASK_SEEDS[kind])

    def hook(stage):
        return None if on_generation is None else partial(on_generation, stage)

    gs, oa = (
        train_expert(STAGES[stage][0], task_set(stage), stage1, obs_config, hook(stage))
        for stage in ("expert-gs", "expert-oa")
    )
    bank, gating, critic = cotrain_fusion(gs, oa, task_set("fusion"), stage2, obs_config, hook("fusion"))
    return gs, oa, PolicyBundle(obs_config, bank, gating, critic)
