import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navstack.policy import (
    CriticParams,
    ExpertBank,
    GatingParams,
    MlpParams,
    Observation,
    ObservationConfig,
    PolicyBundle,
    SingleExpertPolicy,
    act,
    act_with_alpha,
    build_observation,
    critic_value,
    forward,
    fuse,
    gate,
    goal_in_robot_frame,
    load_bundle,
    load_expert,
    safety_heatmap,
    save_bundle,
    save_expert,
    scale_to_limits,
    softmax,
)
from navstack.world import ACTION_HIGH, ACTION_LOW


def random_mlp(sizes, rng):
    x, h1, h2, y = sizes
    return MlpParams(
        rng.normal(0, 0.5, (x, h1)), rng.normal(0, 0.5, h1),
        rng.normal(0, 0.5, (h1, h2)), rng.normal(0, 0.5, h2),
        rng.normal(0, 0.5, (h2, y)), rng.normal(0, 0.5, y),
    )


def random_obs(rng, beams=8, max_range=6.0):
    return Observation(
        ranges=rng.uniform(0.1, max_range, beams),
        motion=rng.normal(0, 1, beams),
        goal=rng.uniform(-5, 5, 2),
        velocity=rng.uniform(-1, 1, 3),
    )


class TestBuildObservation:
    def test_static_stationary_motion_is_zero(self):
        scan = np.full(8, 3.0)
        obs = build_observation([scan] * 4, (0, 0, 0), (1, 0), (0, 0, 0), history=3)
        assert np.array_equal(obs.motion, np.zeros(8))

    def test_padded_history_motion_is_zero(self):
        scan = np.linspace(1, 4, 8)
        obs = build_observation([scan], (0, 0, 0), (1, 0), (0, 0, 0), history=3)
        assert np.array_equal(obs.motion, np.zeros(8))

    def test_hand_built_three_scan_history(self):
        s0 = np.array([1.0, 2.0])  # oldest
        s1 = np.array([1.5, 1.0])
        s2 = np.array([2.0, 4.0])  # current
        obs = build_observation([s0, s1, s2], (0, 0, 0), (1, 0), (0, 0, 0), history=2)
        expected = (s2 - s1) / 1 + (s2 - s0) / 2
        assert np.allclose(obs.motion, expected, atol=1e-15)

    def test_goal_rotated_into_robot_frame(self):
        og = goal_in_robot_frame((1.0, 1.0, math.pi / 2), (1.0, 3.0))
        assert og[0] == pytest.approx(2.0, abs=1e-12)
        assert og[1] == pytest.approx(0.0, abs=1e-12)

    def test_vector_layout(self):
        cfg = ObservationConfig(beams=8)
        rng = np.random.default_rng(0)
        obs = random_obs(rng)
        v = obs.vector()
        assert v.shape == (cfg.dim,)
        assert np.array_equal(v[:8], obs.ranges)
        assert np.array_equal(v[8:16], obs.motion)
        assert np.array_equal(v[16:18], obs.goal)
        assert np.array_equal(v[18:], obs.velocity)

    def test_needs_at_least_one_scan(self):
        with pytest.raises(ValueError):
            build_observation([], (0, 0, 0), (1, 0), (0, 0, 0), 3)


def _build_observation_oracle(scans, pose, goal_world, velocity, history: int = 3) -> Observation:
    """The observation built from a zero vector with one division per
    motion term, kept verbatim."""
    if len(scans) < 1:
        raise ValueError("need at least the current scan")
    current = np.asarray(scans[-1], dtype=float)
    motion = np.zeros_like(current)
    for k in range(1, history + 1):
        past = np.asarray(scans[-1 - k], dtype=float) if len(scans) > k else current
        motion += (current - past) / k
    return Observation(
        ranges=current,
        motion=motion,
        goal=goal_in_robot_frame(pose, goal_world),
        velocity=np.asarray(velocity, dtype=float).copy(),
    )


# Every float64: NaN, +-inf, -0.0, subnormals and huge values included.
_any_float = st.floats(allow_nan=True, allow_infinity=True)
_finite = st.floats(-20.0, 20.0)


@st.composite
def _scan_histories(draw):
    beams = draw(st.integers(1, 10))
    history = draw(st.integers(0, 5))
    count = draw(st.integers(1, history + 2))  # fewer scans than history + 1 pads with the current one
    values = st.one_of(_any_float, st.sampled_from([0.0, -0.0, 1.0]))
    scans = [np.array(draw(st.lists(values, min_size=beams, max_size=beams))) for _ in range(count)]
    pose = draw(st.tuples(_finite, _finite, _finite))
    goal = draw(st.tuples(_finite, _finite))
    velocity = draw(st.lists(_any_float, min_size=3, max_size=3))
    return scans, pose, goal, velocity, history


@settings(max_examples=300, deadline=None)
@given(_scan_histories())
def test_build_observation_matches_oracle_bit_for_bit(case):
    scans, pose, goal, velocity, history = case
    with np.errstate(invalid="ignore"):  # inf - inf in the motion terms
        got = build_observation(scans, pose, goal, velocity, history)
        want = _build_observation_oracle(scans, pose, goal, velocity, history)
    for field in ("ranges", "motion", "goal", "velocity"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


def _scale_to_limits_oracle(raw: np.ndarray) -> np.ndarray:
    """The mapping with the np.clip wrapper, kept verbatim."""
    scaled = ACTION_LOW + (np.tanh(raw) + 1.0) * 0.5 * (ACTION_HIGH - ACTION_LOW)
    return np.clip(scaled, ACTION_LOW, ACTION_HIGH)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.one_of(_any_float, st.sampled_from([0.0, -0.0, 40.0, -40.0])),
                         min_size=3, max_size=3), min_size=1, max_size=4),
       st.booleans())
def test_scale_to_limits_matches_oracle_bit_for_bit(rows, flat):
    raw = np.array(rows[0] if flat else rows)
    got, want = scale_to_limits(raw), _scale_to_limits_oracle(raw)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5))
def test_motion_zero_for_any_constant_history(seed, history):
    rng = np.random.default_rng(seed)
    scan = rng.uniform(0.1, 6.0, 12)
    obs = build_observation([scan] * (history + 1), (0, 0, 0), (1, 0), (0, 0, 0), history)
    assert np.array_equal(obs.motion, np.zeros(12))


class TestForward:
    def test_zero_params_zero_output(self):
        p = MlpParams.zeros(5, 4, 3, 2)
        out = forward(p, np.ones(5))
        assert np.array_equal(out, np.zeros(2))

    def test_hand_evaluated_scalar_chain(self):
        p = MlpParams(
            np.array([[1.0]]), np.zeros(1),
            np.array([[1.0]]), np.zeros(1),
            np.array([[1.0]]), np.zeros(1),
        )
        out = forward(p, np.array([0.5]))
        assert out[0] == pytest.approx(math.tanh(math.tanh(0.5)), abs=1e-15)

    def test_finite_for_finite_inputs(self):
        rng = np.random.default_rng(1)
        p = random_mlp((21, 6, 5, 3), rng)
        for _ in range(20):
            out = forward(p, rng.uniform(-100, 100, 21))
            assert np.all(np.isfinite(out))

    def test_validate_catches_shape_mismatch(self):
        p = MlpParams.zeros(5, 4, 3, 2)
        p.b1 = np.zeros(7)
        with pytest.raises(ValueError):
            p.validate()


class TestGate:
    def test_equal_logits_uniform(self):
        gating = GatingParams(MlpParams.zeros(21, 4, 4, 4))
        rng = np.random.default_rng(0)
        alpha = gate(gating, random_obs(rng))
        assert np.array_equal(alpha, np.full(4, 0.25))

    def test_dominant_logit(self):
        p = MlpParams.zeros(21, 4, 4, 4)
        p.b2 = np.array([10.0, 0.0, 0.0, 0.0])
        alpha = gate(GatingParams(p), random_obs(np.random.default_rng(0)))
        assert alpha[0] > 0.999

    def test_simplex(self):
        rng = np.random.default_rng(2)
        gating = GatingParams(random_mlp((21, 6, 5, 4), rng))
        for _ in range(50):
            alpha = gate(gating, random_obs(rng))
            assert np.all(alpha >= 0)
            assert np.all(alpha <= 1)
            assert abs(alpha.sum() - 1.0) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=4, max_size=4))
def test_softmax_sums_to_one_and_permutes(logits):
    z = np.array(logits)
    s = softmax(z)
    assert abs(s.sum() - 1.0) <= 1e-9
    perm = np.array([2, 0, 3, 1])
    assert np.allclose(softmax(z[perm]), s[perm], atol=1e-12)


def make_bank(rng, sizes=(21, 6, 5, 3)):
    return ExpertBank(tuple(random_mlp(sizes, rng) for _ in range(4)))


class TestFuse:
    def test_one_hot_identity_exact(self):
        rng = np.random.default_rng(3)
        bank = make_bank(rng)
        for n in range(4):
            alpha = np.zeros(4)
            alpha[n] = 1.0
            fused = fuse(bank, alpha)
            for a, b in zip(fused.arrays(), bank.experts[n].arrays()):
                assert np.array_equal(a, b)

    def test_idempotent_on_equal_experts(self):
        rng = np.random.default_rng(4)
        e = random_mlp((21, 6, 5, 3), rng)
        twin = MlpParams(*(a.copy() for a in e.arrays()))
        bank = ExpertBank((e, twin, random_mlp((21, 6, 5, 3), rng), random_mlp((21, 6, 5, 3), rng)))
        fused = fuse(bank, np.array([0.5, 0.5, 0.0, 0.0]))
        for a, b in zip(fused.arrays(), e.arrays()):
            assert np.array_equal(a, b)

    def test_convexity(self):
        rng = np.random.default_rng(5)
        bank = make_bank(rng)
        for _ in range(30):
            alpha = rng.dirichlet(np.ones(4))
            fused = fuse(bank, alpha)
            for i, arr in enumerate(fused.arrays()):
                stack = np.stack([e.arrays()[i] for e in bank.experts])
                assert np.all(arr >= stack.min(axis=0) - 1e-12)
                assert np.all(arr <= stack.max(axis=0) + 1e-12)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        bad = (random_mlp((21, 6, 5, 3), rng),) * 3 + (random_mlp((21, 7, 5, 3), rng),)
        with pytest.raises(ValueError):
            ExpertBank(bad)

    def test_wrong_expert_count_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            ExpertBank((random_mlp((21, 6, 5, 3), rng),) * 3)


class TestBankStorage:
    def test_experts_are_row_views_of_the_fusion_matrices(self):
        bank = make_bank(np.random.default_rng(10))
        for k, expert in enumerate(bank.experts):
            for a, (m, shape) in zip(expert.arrays(), bank.terms):
                assert a.shape == shape
                assert np.shares_memory(a, m)
                assert a.tobytes() == m[k].tobytes()

    def test_constructor_copies_its_experts(self):
        rng = np.random.default_rng(11)
        experts = tuple(random_mlp((21, 6, 5, 3), rng) for _ in range(4))
        bank = ExpertBank(experts)
        for mine, given in zip(bank.experts, experts):
            for a, b in zip(mine.arrays(), given.arrays()):
                assert np.array_equal(a, b)
                assert not np.shares_memory(a, b)

    def test_in_place_edit_reaches_fuse(self):
        bank = make_bank(np.random.default_rng(12))
        one_hot = np.array([0.0, 0.0, 1.0, 0.0])
        fuse(bank, one_hot)  # a cache built here would hide the edit below
        bank.experts[2].w1[0, 0] += 1.0
        bank.experts[2].b2[:] = 7.0
        fused = fuse(bank, one_hot)
        _assert_same_bits(fused, bank.experts[2])
        assert np.all(fused.b2 == 7.0)


def _fuse_oracle(bank: ExpertBank, alpha) -> MlpParams:
    """The tensordot fusion that ``fuse`` replaced, kept verbatim."""
    alpha = np.asarray(alpha, dtype=float)
    stacks = tuple(np.stack([e.arrays()[i] for e in bank.experts]) for i in range(6))
    fused = tuple(np.tensordot(alpha, stack, axes=1) for stack in stacks)
    return MlpParams(*fused)


def _assert_same_bits(got: MlpParams, want: MlpParams) -> None:
    for a, b in zip(got.arrays(), want.arrays()):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@st.composite
def banks_and_alphas(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    sizes = draw(st.tuples(st.integers(1, 160), st.integers(1, 70), st.integers(1, 70), st.integers(1, 4)))
    rng = np.random.default_rng(seed)
    bank = make_bank(rng, sizes)
    kind = draw(st.sampled_from(["one-hot", "near-uniform", "gated"]))
    alphas = []
    for _ in range(5):
        if kind == "one-hot":
            alpha = np.zeros(4)
            alpha[rng.integers(4)] = 1.0
        elif kind == "near-uniform":
            alpha = softmax(rng.normal(0.0, 1e-6, 4))
        else:
            gating = GatingParams(random_mlp((sizes[0], 5, 5, 4), rng))
            alpha = gate(gating, rng.normal(0.0, 3.0, sizes[0]))
        alphas.append(alpha)
    return bank, alphas


@settings(max_examples=150, deadline=None)
@given(banks_and_alphas())
def test_fuse_matches_tensordot_oracle_bit_for_bit(case):
    bank, alphas = case
    for alpha in alphas:
        _assert_same_bits(fuse(bank, alpha), _fuse_oracle(bank, alpha))


@settings(max_examples=200, deadline=None)
@given(banks_and_alphas(), st.sampled_from(["distinct", "a-b-a-b", "equal"]))
def test_fused_parameters_lie_in_the_experts_hull(case, pattern):
    """Every fused entry lies within the experts' entrywise [min, max], up
    to 8 ulps of the largest expert entry's magnitude: the gate's weights
    sum to 1 only up to rounding, and so does the dot.  Repeated experts
    (the stage-2 bank is [a, b, a, b]) make the hull an interval of width 0,
    where that rounding shows (3 ulps at most in 3000 random banks)."""
    bank, alphas = case
    e = bank.experts
    bank = ExpertBank({"distinct": e, "a-b-a-b": (e[0], e[1], e[0], e[1]), "equal": (e[0],) * 4}[pattern])
    for alpha in alphas:
        fused = fuse(bank, alpha)
        for i, arr in enumerate(fused.arrays()):
            stack = np.stack([x.arrays()[i] for x in bank.experts])
            tol = 8 * np.spacing(np.abs(stack).max(axis=0))
            assert np.all(arr >= stack.min(axis=0) - tol)
            assert np.all(arr <= stack.max(axis=0) + tol)


@pytest.mark.parametrize("sigma", [0.0, 0.25])
def test_fuse_matches_oracle_on_stage2_bank(sigma):
    """The stage-2 bank [a, b, a, b] at full size, gated as in co-training:
    the start itself (zero biases) and a CEM candidate around it."""
    from navstack.training import HIDDEN, _fusion_parts, init_fusion_vector, scale_vector

    cfg = ObservationConfig()
    rng = np.random.default_rng(23)
    sizes = (cfg.dim, *HIDDEN, 3)
    a, b = (MlpParams.random(*sizes, rng=rng, input_scales=cfg.feature_scales()) for _ in range(2))
    vec, layout = init_fusion_vector(a, b, cfg, seed=5)
    vec = vec + sigma * rng.normal(0.0, 1.0, vec.size) * scale_vector(layout, cfg.feature_scales())
    bank, gating, _ = _fusion_parts(vec, layout)
    if sigma == 0.0:
        for expert, source in zip(bank.experts, (a, b, a, b)):
            _assert_same_bits(expert, source)
    for _ in range(200):
        x = np.concatenate([rng.uniform(0.1, 6.0, 2 * cfg.beams), rng.normal(0, 3, 2), rng.uniform(-1, 1, 3)])
        alpha = gate(gating, x)
        fused, want = fuse(bank, alpha), _fuse_oracle(bank, alpha)
        _assert_same_bits(fused, want)
        assert forward(fused, x).tobytes() == forward(want, x).tobytes()


class TestAct:
    def test_one_hot_gate_equals_expert(self):
        rng = np.random.default_rng(8)
        bank = make_bank(rng)
        obs = random_obs(rng)
        for n in range(4):
            alpha = np.zeros(4)
            alpha[n] = 1.0
            via_fusion = act_with_alpha(bank, alpha, obs)
            direct = np.clip(scale_to_limits(forward(bank.experts[n], obs)), ACTION_LOW, ACTION_HIGH)
            assert np.array_equal(via_fusion, direct)

    def test_limits_respected(self):
        rng = np.random.default_rng(9)
        bank = make_bank(rng)
        gating = GatingParams(random_mlp((21, 6, 5, 4), rng))
        for _ in range(1000):
            a = act(bank, gating, random_obs(rng))
            assert np.all(a >= ACTION_LOW)
            assert np.all(a <= ACTION_HIGH)

    def test_observation_and_its_vector_act_alike(self):
        rng = np.random.default_rng(11)
        bank = make_bank(rng)
        gating = GatingParams(random_mlp((21, 6, 5, 4), rng))
        for _ in range(50):
            obs = random_obs(rng)
            assert act(bank, gating, obs).tobytes() == act(bank, gating, obs.vector()).tobytes()

    def test_mapping_limits_bulk(self):
        rng = np.random.default_rng(10)
        raw = rng.normal(0, 50, (100_000, 3))
        mapped = scale_to_limits(raw)
        assert np.all(mapped >= ACTION_LOW)
        assert np.all(mapped <= ACTION_HIGH)


class TestCritic:
    def test_zero_params_zero_value(self):
        critic = CriticParams(MlpParams.zeros(21, 4, 3, 1))
        assert critic_value(critic, random_obs(np.random.default_rng(0))) == 0.0

    def test_pure(self):
        rng = np.random.default_rng(12)
        critic = CriticParams(random_mlp((21, 5, 4, 1), rng))
        obs = random_obs(rng)
        assert critic_value(critic, obs) == critic_value(critic, obs)

    def test_hand_built_2_2_2_1(self):
        w0 = np.array([[0.5, -0.25], [1.0, 0.75]])
        b0 = np.array([0.1, -0.2])
        w1 = np.array([[0.3, 0.6], [-0.4, 0.2]])
        b1 = np.array([0.05, 0.0])
        w2 = np.array([[1.5], [-2.0]])
        b2 = np.array([0.25])
        critic = CriticParams(MlpParams(w0, b0, w1, b1, w2, b2))
        x = np.array([0.4, -0.7])
        h1 = np.tanh(np.array([
            0.4 * 0.5 + (-0.7) * 1.0 + 0.1,
            0.4 * -0.25 + (-0.7) * 0.75 + -0.2,
        ]))
        h2 = np.tanh(np.array([
            h1[0] * 0.3 + h1[1] * -0.4 + 0.05,
            h1[0] * 0.6 + h1[1] * 0.2 + 0.0,
        ]))
        expected = h2[0] * 1.5 + h2[1] * -2.0 + 0.25
        assert critic_value(critic, x) == pytest.approx(expected, abs=1e-14)


class TestHeatmap:
    def _obs(self):
        return random_obs(np.random.default_rng(0))

    def test_constant_critic_uniform(self):
        critic = CriticParams(MlpParams.zeros(21, 4, 3, 1))
        values = safety_heatmap(critic, self._obs(), (-2, -2, 2, 2), stride=0.5)
        assert np.all(values == 0.5)

    def test_single_point_region(self):
        rng = np.random.default_rng(13)
        critic = CriticParams(random_mlp((21, 5, 4, 1), rng))
        values = safety_heatmap(critic, self._obs(), (1.0, -0.5, 1.0, -0.5), stride=0.25)
        assert values.shape == (1, 1)

    def test_symmetry_for_goal_sign_invariant_critic(self):
        rng = np.random.default_rng(14)
        p = random_mlp((21, 5, 4, 1), rng)
        p.w0[17, :] = 0.0  # kill the goal-y input row: value invariant to its sign
        critic = CriticParams(p)
        values = safety_heatmap(critic, self._obs(), (-1.0, -1.0, 1.0, 1.0), stride=0.5)
        assert values.shape == (5, 5)
        assert np.allclose(values, values[::-1, :], atol=1e-12)


class TestPersistence:
    def test_bundle_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        bundle = PolicyBundle(
            obs_config=ObservationConfig(beams=8),
            bank=make_bank(rng),
            gating=GatingParams(random_mlp((21, 6, 5, 4), rng)),
            critic=CriticParams(random_mlp((21, 6, 5, 1), rng)),
        )
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert loaded.obs_config == bundle.obs_config
        for a, b in zip(loaded.bank.experts, bundle.bank.experts):
            for x, y in zip(a.arrays(), b.arrays()):
                assert np.array_equal(x, y)
        obs = random_obs(rng)
        assert np.array_equal(loaded.action(obs), bundle.action(obs))
        assert loaded.value(obs) == bundle.value(obs)

    def test_expert_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        params = random_mlp((21, 6, 5, 3), rng)
        path = tmp_path / "expert.json"
        save_expert(params, "go-straight", ObservationConfig(beams=8), path)
        loaded, profile, cfg = load_expert(path)
        assert profile == "go-straight"
        assert cfg.beams == 8
        for x, y in zip(loaded.arrays(), params.arrays()):
            assert np.array_equal(x, y)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": 1, "kind": "other"}))
        with pytest.raises(ValueError):
            load_bundle(path)
        with pytest.raises(ValueError):
            load_expert(path)

    @pytest.mark.parametrize("text", ["null", "[1, 2]", '"bundle"'])
    def test_non_object_file_rejected(self, tmp_path, text):
        path = tmp_path / "x.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_bundle(path)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_expert(path)

    @staticmethod
    def _rewrite(tmp_path, doc, edit):
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["observation"].update(beams=36), "expert 0 field 'sizes' must be [77, h1, h2, 3]"),
        (lambda d: d["experts"][1].update(sizes=[21, 6, 5]), "expert 1 field 'sizes' must hold 4 positive"),
        (lambda d: d["experts"][1].update(sizes=[21, 0, 5, 3]), "expert 1 field 'sizes' must hold 4 positive"),
        (lambda d: d["experts"][2].update(sizes=[21, 6, 5, 3.0]), "expert 2 field 'sizes' must hold 4 positive"),
        (lambda d: d["experts"][3].update(b2=[0.0]), "expert 3 field 'b2' must hold 3 numbers"),
        (lambda d: d["experts"][0].pop("w1"), "expert 0 field 'w1' must hold 30 numbers"),
        (lambda d: d["gating"]["w1"].__setitem__(4, float("nan")), "gating field 'w1' holds a non-finite"),
        (lambda d: d["gating"].update(sizes=[21, 6, 5, 3]), "gating field 'sizes' must be [21, h1, h2, 4]"),
        (lambda d: d["critic"]["b2"].__setitem__(0, float("inf")), "critic field 'b2' holds a non-finite"),
        (lambda d: d["critic"].update(sizes=[20, 6, 5, 1]), "critic field 'sizes' must be [21, h1, h2, 1]"),
        (lambda d: d.update(experts=d["experts"][:3]), "field 'experts' must hold 4 networks"),
        (lambda d: d.update(critic=None), "critic must be a JSON object"),
        (lambda d: d.pop("observation"), "field 'observation' must be an object"),
        (lambda d: d["observation"].update(beams=0), "observation field 'beams' must be an integer >= 1"),
        (lambda d: d["observation"].update(history=-1), "observation field 'history' must be an integer >= 0"),
        (lambda d: d["observation"].update(max_range=float("nan")), "observation field 'max_range'"),
    ])
    def test_bad_bundle_names_the_network_and_field(self, tmp_path, edit, message):
        rng = np.random.default_rng(18)
        bundle = PolicyBundle(
            obs_config=ObservationConfig(beams=8),
            bank=make_bank(rng),
            gating=GatingParams(random_mlp((21, 6, 5, 4), rng)),
            critic=CriticParams(random_mlp((21, 6, 5, 1), rng)),
        )
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        with pytest.raises(ValueError) as err:
            load_bundle(self._rewrite(tmp_path, json.loads(path.read_text()), edit))
        assert message in str(err.value)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["observation"].update(beams=9), "expert field 'sizes' must be [23, h1, h2, 3]"),
        (lambda d: d["params"].update(sizes=[21, 6, 5, 4]), "expert field 'sizes' must be [21, h1, h2, 3]"),
        (lambda d: d["params"].update(sizes=[21, 6, True, 3]), "expert field 'sizes' must hold 4 positive"),
        (lambda d: d["params"]["w0"].__setitem__(0, float("nan")), "expert field 'w0' holds a non-finite"),
        (lambda d: d["observation"].update(max_range=0), "observation field 'max_range'"),
    ])
    def test_bad_expert_names_the_field(self, tmp_path, edit, message):
        path = tmp_path / "expert.json"
        params = random_mlp((21, 6, 5, 3), np.random.default_rng(19))
        save_expert(params, "go-straight", ObservationConfig(beams=8), path)
        with pytest.raises(ValueError) as err:
            load_expert(self._rewrite(tmp_path, json.loads(path.read_text()), edit))
        assert message in str(err.value)


@pytest.mark.parametrize("kwargs, field", [
    ({"beams": 0}, "beams"),
    ({"beams": -3}, "beams"),
    ({"beams": 2.5}, "beams"),
    ({"beams": True}, "beams"),
    ({"history": -1}, "history"),
    ({"history": 1.0}, "history"),
    ({"max_range": 0.0}, "max_range"),
    ({"max_range": -6.0}, "max_range"),
    ({"max_range": float("inf")}, "max_range"),
    ({"max_range": float("nan")}, "max_range"),
    ({"max_range": "6"}, "max_range"),
])
def test_observation_config_rejects_bad_fields(kwargs, field):
    with pytest.raises(ValueError, match=f"observation field '{field}'"):
        ObservationConfig(**kwargs)


def test_single_expert_policy_matches_one_hot_rollout_step():
    rng = np.random.default_rng(17)
    cfg = ObservationConfig(beams=8)
    bank = make_bank(rng)
    obs = random_obs(rng)
    single = SingleExpertPolicy(cfg, bank.experts[2])
    alpha = np.array([0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(single.action(obs), act_with_alpha(bank, alpha, obs))
