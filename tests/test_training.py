import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navstack.policy import (
    MlpParams,
    ObservationConfig,
    SingleExpertPolicy,
    act_with_alpha,
)
from navstack.rewards import PROFILES
from navstack.scenarios import training_scenarios
from navstack.training import (
    TrainConfig,
    TrainingError,
    _discounted_returns,
    _require_beats_zero,
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
                assert not np.shares_memory(b, vec)
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
        sizes = (OBS8.dim, 64, 64, 3)
        zero = SingleExpertPolicy(OBS8, MlpParams.zeros(*sizes))
        with pytest.raises(TrainingError):
            _require_beats_zero(zero, sizes, small_tasks(), PROFILES["go-straight"], OBS8, TINY)


class TestRollout:
    def test_policy_exception_propagates(self):
        class Exploding:
            def action(self, obs):
                raise RuntimeError("wiring fault")

        with pytest.raises(RuntimeError, match="wiring fault"):
            rollout_lower(small_tasks()[0], Exploding(), PROFILES["fusion"], OBS8, 1.0)


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
        _, traj_forced, _, _ = rollout_lower(spec, Forced(), PROFILES["fusion"], OBS8, 3.0)
        _, traj_a, _, _ = rollout_lower(spec, SingleExpertPolicy(OBS8, a), PROFILES["fusion"], OBS8, 3.0)
        assert traj_forced.outcome == traj_a.outcome
        assert traj_forced.n_steps == traj_a.n_steps
        assert np.array_equal(traj_forced.min_ranges, traj_a.min_ranges)

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
