import math
import tracemalloc
from dataclasses import replace
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navstack import training
from navstack.policy import (
    MlpParams,
    ObservationConfig,
    SingleExpertPolicy,
    act_with_alpha,
)
from navstack.rewards import PROFILES
from navstack.scenarios import training_scenarios
from navstack.stack import StackConfig, run_episode
from navstack.training import (
    CRITIC_ROWS,
    TrainConfig,
    TrainingError,
    _cem,
    _discounted_returns,
    _episode_seeds,
    _fusion_parts,
    _objective,
    _refit_critic_head,
    _require_beats_zero,
    _RowWindow,
    cotrain_fusion,
    init_fusion_vector,
    pack,
    rollout_lower,
    scale_vector,
    train_expert,
    unpack,
)

OBS8 = ObservationConfig(beams=8)
# A budget this small only clears the improvement gates on a cooperative
# seed; 0 is one (verified), which is all determinism tests need.
TINY = TrainConfig(
    population=8,
    elite_fraction=0.3,
    noise_std=0.4,
    noise_decay=0.9,
    generations=3,
    episodes_per_eval=1,
    seed=0,
    episode_time_limit=4.0,
)


def small_tasks(n=3, seed=1):
    return training_scenarios("static", n, seed)


class TestPacking:
    def test_flatten_round_trip(self):
        rng = np.random.default_rng(0)
        p = MlpParams.random(13, 6, 5, 3, rng)
        (q,) = unpack(pack([p]), [(13, 6, 5, 3)])
        for a, b in zip(p.arrays(), q.arrays()):
            assert np.array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.lists(st.tuples(*[st.integers(1, 5)] * 4), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_random_layouts(self, layout, seed):
        rng = np.random.default_rng(seed)
        mlps = [MlpParams.random(*sizes, rng=rng) for sizes in layout]
        vec = pack(mlps)
        assert vec.shape == (sum(sum(a.size for a in p.arrays()) for p in mlps),)
        back = unpack(vec, layout)
        assert [q.sizes for q in back] == layout
        for p, q in zip(mlps, back):
            for a, b in zip(p.arrays(), q.arrays()):
                assert a.shape == b.shape
                assert np.array_equal(a, b)
                assert np.shares_memory(b, vec)
        assert np.array_equal(pack(back), vec)

    def test_unpack_rejects_a_vector_of_another_length(self):
        vec = pack([MlpParams.zeros(3, 2, 2, 1)])
        with pytest.raises(ValueError):
            unpack(vec, [(3, 2, 2, 2)])  # too short: a slice cannot take its shape
        with pytest.raises(ValueError, match="does not match"):
            unpack(np.append(vec, 0.0), [(3, 2, 2, 1)])

    def test_scale_vector_is_concatenated_init_stds(self):
        layout = [(OBS8.dim, 6, 5, 3), (OBS8.dim, 6, 5, 4), (OBS8.dim, 4, 3, 1)]
        scales = OBS8.feature_scales()
        expected = np.concatenate([a.reshape(-1) for sizes in layout for a in MlpParams.init_stds(sizes, scales)])
        assert np.array_equal(scale_vector(layout, scales), expected)

    def test_discounted_returns(self):
        g = _discounted_returns(np.array([1.0, 0.0, 2.0]))
        assert g[2] == 2.0
        assert g[1] == pytest.approx(0.99 * 2.0)
        assert g[0] == pytest.approx(1.0 + 0.99 * 0.99 * 2.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(population=2)
        with pytest.raises(ValueError):
            TrainConfig(elite_fraction=1.5)
        with pytest.raises(ValueError):
            TrainConfig(noise_std=0.0)

    @pytest.mark.parametrize("name", ["population", "generations", "episodes_per_eval", "seed"])
    @pytest.mark.parametrize("value", [1.5, 8.0, True])
    def test_integer_fields_reject_non_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["elite_fraction", "noise_std", "noise_decay", "episode_time_limit"])
    @pytest.mark.parametrize("value", ["0.5", None, True, [0.5]])
    def test_real_fields_reject_non_reals(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_elite_count(self):
        assert TrainConfig(population=64, elite_fraction=0.125).n_elite == 8


class TestTrainExpert:
    def test_zero_generations_returns_init_unchanged(self):
        cfg = TrainConfig(population=6, elite_fraction=0.34, noise_std=0.3,
                          generations=0, episodes_per_eval=1, seed=5)
        a = train_expert("go-straight", small_tasks(), cfg, OBS8)
        b = train_expert("go-straight", small_tasks(), cfg, OBS8)
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)
        # reproduces the seeded random init exactly
        rng = np.random.Generator(np.random.PCG64(5))
        init = MlpParams.random(OBS8.dim, 64, 64, 3, rng, OBS8.feature_scales())
        for x, y in zip(a.arrays(), init.arrays()):
            assert np.array_equal(x, y)

    def test_beats_zero_gate_fires_for_zero_policy(self):
        layout = [(OBS8.dim, 64, 64, 3)]
        score = _objective(lambda vec: SingleExpertPolicy(OBS8, unpack(vec, layout)[0]), small_tasks(),
                           PROFILES["go-straight"], OBS8, TINY.episode_time_limit)
        with pytest.raises(TrainingError):
            _require_beats_zero(score, pack([MlpParams.zeros(*layout[0])]), TINY.seed)


class TestRollout:
    def test_policy_exception_propagates(self):
        class Exploding:
            def action(self, obs):
                raise RuntimeError("wiring fault")

        with pytest.raises(RuntimeError, match="wiring fault"):
            rollout_lower(small_tasks()[0], Exploding(), PROFILES["fusion"], OBS8, 1.0)

    def test_objective_runs_the_rollout_patched_into_training(self):
        """Profilers patch ``training.rollout_lower``; the objective must see it."""
        seeds, original = [], training.rollout_lower

        def recording(spec, *args):
            seeds.append(spec.seed)
            return original(spec, *args)

        layout = [(OBS8.dim, 64, 64, 3)]
        score = _objective(lambda vec: SingleExpertPolicy(OBS8, unpack(vec, layout)[0]), small_tasks(),
                           PROFILES["go-straight"], OBS8, 1.0)
        with mock.patch.object(training, "rollout_lower", recording):
            score(pack([MlpParams.zeros(*layout[0])]), np.array([3, 4]))
        assert seeds == [3, 4]


    def test_recorder_keeps_the_vector_the_policy_reads(self):
        """Each recorded row is the observation's own vector, the very array
        the policy reads, not a second build."""
        params = MlpParams.random(OBS8.dim, 8, 8, 3, np.random.default_rng(5), OBS8.feature_scales())
        inner = SingleExpertPolicy(OBS8, params)
        seen = []

        class Spy:
            def action(self, obs):
                seen.append(obs.vector())
                return inner.action(obs)

        recorder = training._ObservationRecorder(Spy())
        run_episode(small_tasks()[0], recorder, StackConfig(mode="lower-only", timeout=1.0), OBS8)
        assert len(recorder.rows) == len(seen) > 0
        assert all(row is vec for row, vec in zip(recorder.rows, seen))

        _, res, obs_matrix, _ = rollout_lower(small_tasks()[0], inner, PROFILES["fusion"], OBS8, 1.0, collect=True)
        assert obs_matrix.shape == (res.steps, OBS8.dim)
        assert obs_matrix.tobytes() == np.array(seen).tobytes()


class TestCotrain:
    def _experts(self):
        rng = np.random.default_rng(3)
        scales = OBS8.feature_scales()
        a = MlpParams.random(OBS8.dim, 64, 64, 3, rng, scales)
        b = MlpParams.random(OBS8.dim, 64, 64, 3, rng, scales)
        return a, b

    def test_zero_generations_bank_is_replicated_pair(self):
        a, b = self._experts()
        bank, gating, critic = cotrain_fusion(a, b, small_tasks(), TrainConfig(
            population=6, elite_fraction=0.34, noise_std=0.3, generations=0,
            episodes_per_eval=1, seed=7), OBS8)
        for expert, source in zip(bank.experts, (a, b, a, b)):
            for x, y in zip(expert.arrays(), source.arrays()):
                assert np.array_equal(x, y)
        assert gating.params.sizes[-1] == 4
        assert critic.params.sizes[-1] == 1

    def test_one_hot_alpha_reproduces_expert_a_rollout(self):
        a, b = self._experts()
        bank, _, _ = cotrain_fusion(a, b, small_tasks(), TrainConfig(
            population=6, elite_fraction=0.34, noise_std=0.3, generations=0,
            episodes_per_eval=1, seed=7), OBS8)

        class Forced:
            def action(self, obs, noise_std=0.0, rng=None):
                return act_with_alpha(bank, np.array([1.0, 0.0, 0.0, 0.0]), obs)

        spec = small_tasks()[0]
        _, forced, _, _ = rollout_lower(spec, Forced(), PROFILES["fusion"], OBS8, 3.0)
        _, single, _, _ = rollout_lower(spec, SingleExpertPolicy(OBS8, a), PROFILES["fusion"], OBS8, 3.0)
        assert forced.outcome == single.outcome
        assert forced.steps == single.steps
        assert np.array_equal(forced.min_ranges, single.min_ranges)

    def test_fusion_vector_layout_round_trip(self):
        a, b = self._experts()
        vec, layout = init_fusion_vector(a, b, OBS8, seed=1)
        assert np.array_equal(pack(unpack(vec, layout)), vec)

    def test_fusion_vector_is_bank_then_gating_then_critic(self):
        a, b = self._experts()
        vec, layout = init_fusion_vector(a, b, OBS8, seed=1)
        assert layout == [a.sizes] * 4 + [(OBS8.dim, 64, 64, 4), (OBS8.dim, 64, 64, 1)]
        *experts, gating, critic = unpack(vec, layout)
        rng = np.random.Generator(np.random.PCG64(1))
        scales = OBS8.feature_scales()
        want_gating = MlpParams.random(OBS8.dim, 64, 64, 4, rng=rng, input_scales=scales)
        want_gating.w2 *= 0.1
        want_critic = MlpParams.random(OBS8.dim, 64, 64, 1, rng=rng, input_scales=scales)
        for got, want in zip([*experts, gating, critic], [a, b, a, b, want_gating, want_critic]):
            for x, y in zip(got.arrays(), want.arrays()):
                assert np.array_equal(x, y)
        # documented order: experts a, b, a, b, then gating, then critic; each w0, b0, w1, b1, w2, b2
        nets = (a, b, a, b, want_gating, want_critic)
        explicit = np.concatenate([arr.reshape(-1) for n in nets for arr in (n.w0, n.b0, n.w1, n.b1, n.w2, n.b2)])
        assert np.array_equal(vec, explicit)


class TestCriticWindow:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.lists(st.integers(0, 9), max_size=12))
    def test_rows_are_the_newest_in_order(self, size, lengths):
        window = _RowWindow(size, 2)
        chunks = []
        for k, n in enumerate(lengths):
            chunk = np.arange(2.0 * n).reshape(n, 2) + 100 * k
            chunks.append(chunk)
            window.append(chunk)
            expected = np.concatenate(chunks)[-size:]
            assert window.rows().tobytes() == expected.tobytes()

    def test_refit_across_the_window_equals_the_concatenated_tail(self):
        """Past CRITIC_ROWS rows the window drops the oldest; the critic head
        refit on it has the bits of the refit on the old
        ``np.concatenate(...)[-CRITIC_ROWS:]``."""
        rng = np.random.default_rng(5)
        critic = MlpParams.random(OBS8.dim, 64, 64, 1, rng, OBS8.feature_scales())
        obs_window, g_window = _RowWindow(CRITIC_ROWS, OBS8.dim), _RowWindow(CRITIC_ROWS)
        obs_chunks, g_chunks = [], []
        refits = 0
        while sum(map(len, obs_chunks)) < CRITIC_ROWS + 12_000:
            n = int(rng.integers(1, 4000))
            obs_chunks.append(rng.normal(size=(n, OBS8.dim)))
            g_chunks.append(_discounted_returns(rng.normal(size=n)))
            obs_window.append(obs_chunks[-1])
            g_window.append(g_chunks[-1])
            if sum(map(len, obs_chunks)) > CRITIC_ROWS - 8000:
                got, want = (MlpParams(*(a.copy() for a in critic.arrays())) for _ in range(2))
                _refit_critic_head(got, obs_window.rows(), g_window.rows())
                _refit_critic_head(want, np.concatenate(obs_chunks)[-CRITIC_ROWS:],
                                   np.concatenate(g_chunks)[-CRITIC_ROWS:])
                assert got.w2.tobytes() == want.w2.tobytes() and got.b2.tobytes() == want.b2.tobytes()
                refits += 1
        assert obs_window.n == CRITIC_ROWS and refits > 3


class TestTrainPipeline:
    def test_equals_its_three_stage_calls(self):
        # Each stage runs for real at zero generations, where it returns its
        # starting networks, so the configs and task sets show in the calls.
        def expert(profile, tasks, config, obs_config):
            return train_expert(profile, tasks, replace(config, generations=0), obs_config)

        def fuse(gs, oa, tasks, config, obs_config):
            return cotrain_fusion(gs, oa, tasks, replace(config, generations=0), obs_config)

        with mock.patch.object(training, "train_expert", side_effect=expert) as experts, \
                mock.patch.object(training, "cotrain_fusion", side_effect=fuse) as fusion:
            got_gs, got_oa, bundle = training.train_pipeline()
        stage1, stage2 = training.PIPELINE_STAGE1, training.PIPELINE_STAGE2
        static, dynamic, families = (training.stage_tasks(stage) for stage in ("expert-gs", "expert-oa", "fusion"))
        assert [call.args[:3] for call in experts.call_args_list] == [
            ("go-straight", static, stage1), ("obstacle-avoidance", dynamic, stage1)]
        assert fusion.call_args.args[2:4] == (families, stage2)
        assert len(static) == len(dynamic) == len(families) == training.PIPELINE_TASKS
        assert bundle.obs_config == ObservationConfig()
        gs = train_expert("go-straight", static, replace(stage1, generations=0))
        oa = train_expert("obstacle-avoidance", dynamic, replace(stage1, generations=0))
        bank, gating, critic = cotrain_fusion(gs, oa, families, replace(stage2, generations=0))
        want = [gs, oa, *bank.experts, gating.params, critic.params]
        got = [got_gs, got_oa, *bundle.bank.experts, bundle.gating.params, bundle.critic.params]
        assert ([a.tobytes() for net in got for a in net.arrays()]
                == [a.tobytes() for net in want for a in net.arrays()])


class TestDeterminism:
    def test_training_is_a_pure_function_of_config(self):
        a = train_expert("go-straight", small_tasks(), TINY, OBS8)
        b = train_expert("go-straight", small_tasks(), TINY, OBS8)
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_best_so_far_is_monotone(self):
        log = []
        train_expert("go-straight", small_tasks(), TINY, OBS8, on_generation=log.append)
        bests = [row["best_return"] for row in log]
        assert bests == sorted(bests)
        assert all(row["best_return"] >= row["gen_best_return"] - 1e-12 for row in log)


class TestFusionParts:
    def test_every_network_is_a_copy_of_the_vector(self):
        rng = np.random.default_rng(3)
        a, b = (MlpParams.random(OBS8.dim, 6, 5, 3, rng, OBS8.feature_scales()) for _ in range(2))
        vec, layout = init_fusion_vector(a, b, OBS8, seed=1)
        bank, gating, critic = _fusion_parts(vec, layout)
        for net, want in zip([*bank.experts, gating.params, critic.params], unpack(vec, layout)):
            for got, arr in zip(net.arrays(), want.arrays()):
                assert got.tobytes() == arr.tobytes()
                assert not np.shares_memory(got, vec)


# ---------------------------------------------------------------------------
# The CEM loop against the bulk-noise loop it replaced


def _cem_bulk(mean, scales, score, config, master, on_generation, _after_update=None):
    """The bulk-noise ``_cem``, kept verbatim: one (population, dim) noise
    matrix per generation, drawn before the first candidate is scored."""
    sigma = config.noise_std
    dim = mean.shape[0]
    best_vec = mean.copy()
    best_ret = -math.inf
    init_ret: float | None = None
    for gen in range(config.generations):
        seeds = _episode_seeds(master, config.episodes_per_eval)
        noise = master.normal(0.0, 1.0, (config.population, dim))
        noise[0] = 0.0  # the mean itself is always a candidate
        returns = np.empty(config.population)
        for i in range(config.population):
            vec = mean + sigma * scales * noise[i]
            returns[i] = score(vec, seeds)
        if init_ret is None:
            init_ret = float(returns[0])
        order = np.argsort(-returns, kind="stable")
        elites = order[: config.n_elite]
        gen_best = int(order[0])
        if returns[gen_best] > best_ret:
            best_ret = float(returns[gen_best])
            best_vec = mean + sigma * scales * noise[gen_best]
        elite_vecs = [mean + sigma * scales * noise[i] for i in elites]
        mean = mean + sigma * scales * noise[elites].mean(axis=0)
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


def _scored_by(levels):
    """An objective of the candidate vector alone: ``levels`` return values
    per generation, so small ``levels`` make ties."""
    def score(vec, seeds):
        return float(math.floor(levels * math.tanh(float(vec[::2].sum() - vec[1::2].sum())))) + int(seeds[0]) % 3
    return score


def _run_cem(cem, mean, scales, score, config, take):
    """One CEM run; returns everything it produced, in bytes where it is an array."""
    records, updates = [], []

    def after_update(gen, seeds, elite_vecs, mean):
        taken = [v.copy() for v in islice(elite_vecs, take)]
        updates.append((gen, seeds.tobytes(), [v.tobytes() for v in taken], mean.tobytes()))
        return mean * 0.75 + (0.25 * taken[0] if taken else 0.0)

    master = np.random.Generator(np.random.PCG64(config.seed))
    best_vec, best_ret, init_ret, final = cem(
        mean, scales, score, config, master, records.append,
        _after_update=after_update if take is not None else None,
    )
    return best_vec.tobytes(), best_ret, init_ret, final.tobytes(), records, updates, master.bit_generator.state


class TestCemMatchesBulkNoise:
    def test_row_by_row_draws_equal_one_bulk_draw(self):
        for seed in range(5):
            bulk = np.random.Generator(np.random.PCG64(seed)).normal(0.0, 1.0, (7, 33))
            master = np.random.Generator(np.random.PCG64(seed))
            rows = np.stack([master.normal(0.0, 1.0, 33) for _ in range(7)])
            assert rows.tobytes() == bulk.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        layout=st.lists(st.tuples(*[st.integers(1, 6)] * 4), min_size=1, max_size=4),
        population=st.integers(4, 12),
        elite_fraction=st.sampled_from([0.1, 0.2, 0.34, 0.5, 0.9]),
        generations=st.integers(1, 3),
        levels=st.integers(1, 8),
        take=st.one_of(st.none(), st.integers(0, 5)),
    )
    def test_byte_identical_to_bulk_noise(self, seed, layout, population, elite_fraction, generations,
                                          levels, take):
        config = TrainConfig(population=population, elite_fraction=elite_fraction, noise_std=0.3,
                             noise_decay=0.9, generations=generations, episodes_per_eval=2, seed=seed)
        rng = np.random.default_rng(seed)
        mean = pack([MlpParams.random(*sizes, rng=rng) for sizes in layout])
        scales = np.concatenate([scale_vector([sizes], rng.uniform(0.5, 6.0, sizes[0])) for sizes in layout])
        got = _run_cem(_cem, mean, scales, _scored_by(levels), config, take)
        want = _run_cem(_cem_bulk, mean, scales, _scored_by(levels), config, take)
        assert got == want

    def test_byte_identical_to_bulk_noise_on_real_rollouts(self):
        sizes = (OBS8.dim, 64, 64, 3)
        layout = [sizes]
        scales = scale_vector(layout, OBS8.feature_scales())
        mean = pack([MlpParams.random(*sizes, rng=np.random.default_rng(2), input_scales=OBS8.feature_scales())])
        score = _objective(lambda vec: SingleExpertPolicy(OBS8, unpack(vec, layout)[0]), small_tasks(),
                           PROFILES["go-straight"], OBS8, TINY.episode_time_limit)
        runs = []
        for cem in (_cem, _cem_bulk):
            records = []
            master = np.random.Generator(np.random.PCG64(TINY.seed))
            out = cem(mean, scales, score, TINY, master, records.append)
            runs.append((out[0].tobytes(), out[1], out[2], out[3].tobytes(), records))
        assert runs[0] == runs[1]

    def test_cotrain_fusion_is_byte_identical_to_bulk_noise(self):
        a, b = TestCotrain()._experts()
        config = TrainConfig(population=6, elite_fraction=0.5, noise_std=0.3, generations=2,
                             episodes_per_eval=1, seed=4, episode_time_limit=3.0)
        runs = []
        for cem in (_cem, _cem_bulk):
            records = []
            with mock.patch.object(training, "_cem", cem):
                bank, gating, critic = cotrain_fusion(a, b, small_tasks(), config, OBS8, records.append)
            nets = [*bank.experts, gating.params, critic.params]
            runs.append(([arr.tobytes() for net in nets for arr in net.arrays()], records))
        assert runs[0] == runs[1]

    def test_peak_memory_stays_below_one_population_matrix(self):
        """One generation holds the elite rows of noise, not the population's."""
        config = TrainConfig(population=32, elite_fraction=0.125, noise_std=0.3, generations=1,
                             episodes_per_eval=1, seed=3)
        dim = 100_000
        mean, scales = np.zeros(dim), np.ones(dim)
        matrix_bytes = config.population * dim * 8
        peaks = {}
        for name, cem in (("lean", _cem), ("bulk", _cem_bulk)):
            master = np.random.Generator(np.random.PCG64(config.seed))
            tracemalloc.start()
            try:
                cem(mean, scales, _scored_by(4), config, master, None)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["bulk"] >= matrix_bytes  # the measure sees the matrix the old loop drew
        assert peaks["lean"] < matrix_bytes / 2
