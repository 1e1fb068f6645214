"""Lower-layer policy machinery: observation construction, expert MLPs, the
gating network, parameter-level fusion, the critic, and safety heatmaps.

Fusion happens in parameter space: the gating network maps the observation
to four softmax weights and each weight matrix / bias of the executable
policy is the convex combination of the experts' corresponding tensors.
A one-hot weight vector therefore reproduces an expert bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .rewards import PROFILES
from .world import ACTION_HIGH, ACTION_LOW

PARAMS_SCHEMA = 1
NUM_EXPERTS = 4


@dataclass(frozen=True)
class ObservationConfig:
    beams: int = 72
    max_range: float = 6.0
    history: int = 3  # number of past scans folded into the motion feature

    def __post_init__(self) -> None:
        for name, low in (("beams", 1), ("history", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
                raise ValueError(f"observation field {name!r} must be an integer >= {low}, got {value!r}")
        r = self.max_range
        if isinstance(r, bool) or not isinstance(r, Real) or not (math.isfinite(r) and r > 0):
            raise ValueError(f"observation field 'max_range' must be a finite number > 0, got {r!r}")

    @property
    def dim(self) -> int:
        return 2 * self.beams + 5

    def feature_scales(self) -> np.ndarray:
        """Typical magnitude of each input feature, for weight init."""
        return np.concatenate([
            np.full(self.beams, self.max_range),
            np.full(self.beams, self.max_range),
            np.full(2, self.max_range),
            np.array([1.0, 1.0, 1.5]),
        ])


class Observation:
    """One float64 feature vector in the fixed layout
    [ranges | motion | goal | velocity].

    ``vector()`` returns the vector itself, not a copy; ``ranges`` (beams,
    lidar ranges, meters), ``motion`` (beams, weighted history
    differences), ``goal`` (2, goal offset in the robot frame) and
    ``velocity`` (3, commanded v_x, v_y, omega_z) are views of it, made
    when read.  The vector is read-only, so the parts are too, and a
    policy, its gate and a recorder can share it.
    """

    __slots__ = ("_vector", "_beams")

    def __init__(self, ranges, motion, goal, velocity):
        ranges, motion = np.ravel(ranges), np.ravel(motion)
        goal, velocity = np.ravel(goal), np.ravel(velocity)
        if (ranges.size, goal.size, velocity.size) != (motion.size, 2, 3):
            raise ValueError("an observation needs equal-length ranges and motion, a 2-element goal "
                             "and a 3-element velocity")
        self._bind(np.concatenate([ranges, motion, goal, velocity], dtype=float), ranges.size)

    @classmethod
    def _of(cls, vec: np.ndarray, beams: int) -> "Observation":
        """The observation whose vector is ``vec`` (laid out for ``beams``), adopted without a copy."""
        obs = cls.__new__(cls)
        obs._bind(vec, beams)
        return obs

    def _bind(self, vec: np.ndarray, beams: int) -> None:
        vec.setflags(write=False)
        self._vector = vec
        self._beams = beams

    @property
    def ranges(self) -> np.ndarray:
        return self._vector[:self._beams]

    @property
    def motion(self) -> np.ndarray:
        return self._vector[self._beams:2 * self._beams]

    @property
    def goal(self) -> np.ndarray:
        return self._vector[2 * self._beams:2 * self._beams + 2]

    @property
    def velocity(self) -> np.ndarray:
        return self._vector[2 * self._beams + 2:]

    def vector(self) -> np.ndarray:
        return self._vector

    def with_goal(self, goal_robot_frame) -> "Observation":
        vec = self._vector.copy()
        beams = self._beams
        vec[2 * beams:2 * beams + 2] = goal_robot_frame
        return Observation._of(vec, beams)


def goal_in_robot_frame(pose, goal_world) -> tuple[float, float]:
    """The world point ``goal_world`` as an offset in the frame of ``pose``."""
    dx = goal_world[0] - pose[0]
    dy = goal_world[1] - pose[1]
    c, s = math.cos(pose[2]), math.sin(pose[2])
    return c * dx + s * dy, -s * dx + c * dy


def build_observation(scans, pose, goal_world, velocity, history: int) -> Observation:
    """Assemble the policy input from the latest scans (oldest first).

    The motion feature is sum_{k=1..n} (scan_t - scan_{t-k}) / k; when fewer
    than n past scans exist the missing ones are padded with the current
    scan, so the corresponding terms vanish.  Each part is written straight
    into the observation's vector.
    """
    if len(scans) < 1:
        raise ValueError("need at least the current scan")
    current = np.asarray(scans[-1], dtype=float)
    beams = current.size
    vec = np.zeros(2 * beams + 5)  # the motion sum starts from +0.0, so a -0.0 first term reads +0.0
    vec[:beams] = current
    motion = vec[beams:2 * beams]
    for k in range(1, history + 1):
        # A padded term is still current - current: an infinite range makes it NaN, not 0.
        past = np.asarray(scans[-1 - k], dtype=float) if len(scans) > k else current
        term = current - past
        if k > 1:  # dividing by 1 is exact, so the k = 1 term skips it
            term /= k
        motion += term
    vec[2 * beams], vec[2 * beams + 1] = goal_in_robot_frame(pose, goal_world)
    vec[2 * beams + 2:] = velocity
    return Observation._of(vec, beams)


# ---------------------------------------------------------------------------
# Networks


@dataclass
class MlpParams:
    """Three-layer perceptron parameters: two tanh hidden layers, linear out."""

    w0: np.ndarray  # (x, h1)
    b0: np.ndarray  # (h1,)
    w1: np.ndarray  # (h1, h2)
    b1: np.ndarray  # (h2,)
    w2: np.ndarray  # (h2, y)
    b2: np.ndarray  # (y,)

    @property
    def sizes(self) -> tuple[int, int, int, int]:
        return (self.w0.shape[0], self.w0.shape[1], self.w1.shape[1], self.w2.shape[1])

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.w0, self.b0, self.w1, self.b1, self.w2, self.b2)

    @staticmethod
    def shapes(sizes: tuple[int, int, int, int]) -> tuple[tuple[int, ...], ...]:
        """The six array shapes for ``sizes`` = (x, h1, h2, y), in ``arrays()`` order."""
        x, h1, h2, y = sizes
        return ((x, h1), (h1,), (h1, h2), (h2,), (h2, y), (y,))

    @classmethod
    def zeros(cls, x: int, h1: int, h2: int, y: int) -> "MlpParams":
        return cls(*(np.zeros(shape) for shape in cls.shapes((x, h1, h2, y))))

    @classmethod
    def random(cls, x: int, h1: int, h2: int, y: int, rng: np.random.Generator,
               input_scales: np.ndarray | None = None) -> "MlpParams":
        """Random init with O(1) pre-activations: weights are N(0, 1) times
        their ``init_stds`` entries, drawn w0, w1, w2 in turn; biases are 0.

        ``input_scales`` gives the typical magnitude of each input feature;
        first-layer weights shrink accordingly so meter-scale inputs do not
        saturate the tanh units.
        """
        w0, _, w1, _, w2, _ = cls.init_stds((x, h1, h2, y), input_scales)
        return cls(
            rng.normal(0.0, 1.0, w0.shape) * w0, np.zeros(h1),
            rng.normal(0.0, 1.0, w1.shape) * w1, np.zeros(h2),
            rng.normal(0.0, 1.0, w2.shape) * w2, np.zeros(y),
        )

    @staticmethod
    def init_stds(sizes: tuple[int, int, int, int],
                  input_scales: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """Per-array elementwise init scales (also the CEM perturbation unit)."""
        x, h1, h2, y = sizes
        scales = np.ones(x) if input_scales is None else np.asarray(input_scales, dtype=float)
        w0 = (1.0 / (scales * math.sqrt(x)))[:, None] * np.ones((x, h1))
        return (
            w0,
            np.full(h1, 0.1),
            np.full((h1, h2), 1.0 / math.sqrt(h1)),
            np.full(h2, 0.1),
            np.full((h2, y), 1.0 / math.sqrt(h2)),
            np.full(y, 0.1),
        )

    def validate(self) -> None:
        for a, shape in zip(self.arrays(), self.shapes(self.sizes)):
            if a.shape != shape:
                raise ValueError(f"inconsistent parameter shapes: {a.shape} != {shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError("non-finite network parameter")


def _vec(obs) -> np.ndarray:
    return obs.vector() if isinstance(obs, Observation) else np.asarray(obs, dtype=float)


def forward(params: MlpParams, obs) -> np.ndarray:
    """Raw network output (deterministic): tanh, tanh, linear.  The bias
    adds are not in place: on a one-element array numpy's in-place add
    keeps the bias's NaN where ``a + b`` keeps the product's."""
    h = np.tanh(_vec(obs) @ params.w0 + params.b0)
    h = np.tanh(h @ params.w1 + params.b1)
    return h @ params.w2 + params.b2


@dataclass
class ExpertBank:
    """Exactly four expert parameter sets with identical shapes.

    The bank stores each weight once: ``terms`` holds one (matrix, shape)
    pair per parameter array, in ``arrays()`` order, where row k of the
    (4, n) matrix is expert k's array, flattened.  The constructor copies
    the given experts into these matrices and replaces ``experts`` with
    row views of them, so an in-place edit of an expert reaches ``fuse``.
    """

    experts: tuple[MlpParams, ...]
    terms: tuple[tuple[np.ndarray, tuple[int, ...]], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.experts) != NUM_EXPERTS:
            raise ValueError(f"expert bank must hold exactly {NUM_EXPERTS} experts")
        sizes = self.experts[0].sizes
        for e in self.experts:
            if e.sizes != sizes:
                raise ValueError("experts must share one shape to be fused")
        self.terms = tuple(
            (np.stack([e.arrays()[i] for e in self.experts]).reshape(NUM_EXPERTS, -1), shape)
            for i, shape in enumerate(MlpParams.shapes(sizes))
        )
        self.experts = tuple(MlpParams(*(m[k].reshape(shape) for m, shape in self.terms))
                             for k in range(NUM_EXPERTS))


@dataclass
class GatingParams:
    params: MlpParams

    def __post_init__(self) -> None:
        if self.params.sizes[-1] != NUM_EXPERTS:
            raise ValueError("gating network must emit one logit per expert")


@dataclass
class CriticParams:
    params: MlpParams

    def __post_init__(self) -> None:
        if self.params.sizes[-1] != 1:
            raise ValueError("critic must emit a scalar")


def softmax(z: np.ndarray) -> np.ndarray:
    # np.max and ndarray.sum wrap these very reductions
    e = z - np.maximum.reduce(z)
    np.exp(e, out=e)
    e /= np.add.reduce(e)
    return e


def gate(gating: GatingParams, obs) -> np.ndarray:
    """Softmax expert weights for this observation; sums to 1."""
    return softmax(forward(gating.params, obs))


def fuse(bank: ExpertBank, alpha) -> MlpParams:
    """Entrywise convex combination of the four experts' parameters."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (NUM_EXPERTS,):
        raise ValueError("alpha must have one weight per expert")
    # One (1, 4) @ (4, n) product per array: the very dot call that
    # np.tensordot(alpha, stack, axes=1) makes, so the bits match it.  A
    # single product over all arrays concatenated would change b2's bits.
    row = alpha.reshape(1, NUM_EXPERTS)
    return MlpParams(*(np.dot(row, m).reshape(shape) for m, shape in bank.terms))


# (t + 1) * 0.5 * span == (t + 1) * (0.5 * span) bit for bit: halving is
# exact, and t + 1 is 0 or >= 2**-53 for t = tanh(raw), so no subnormal arises.
_HALF_ACTION_SPAN = 0.5 * (ACTION_HIGH - ACTION_LOW)


def scale_to_limits(raw: np.ndarray) -> np.ndarray:
    """Map raw network outputs through tanh onto the command limits.  No
    clamp: rounding is monotone and 2 * _HALF_ACTION_SPAN + ACTION_LOW ==
    ACTION_HIGH exactly, so the result lies within them (a NaN stays NaN)."""
    t = np.tanh(raw)
    t += 1.0
    t *= _HALF_ACTION_SPAN
    t += ACTION_LOW
    return t


def act_with_alpha(bank: ExpertBank, alpha, obs) -> np.ndarray:
    return scale_to_limits(forward(fuse(bank, alpha), obs))


def act(bank: ExpertBank, gating: GatingParams, obs) -> np.ndarray:
    """Fused action (v_x, v_y, omega_z), deterministic and always within
    the command limits."""
    x = _vec(obs)  # one feature vector for the gate and the fused network
    return act_with_alpha(bank, gate(gating, x), x)


def critic_value(critic: CriticParams, obs) -> float:
    return float(forward(critic.params, obs)[0])


def safety_heatmap(critic: CriticParams, base_obs: Observation,
                   region: tuple[float, float, float, float], stride: float) -> np.ndarray:
    """Critic values over a robot-frame rectangle of candidate goals.

    Every sample point replaces the goal feature of ``base_obs``; the grid
    is normalized to [0, 1] (flat 0.5 when the critic is constant).  Row i
    corresponds to the i-th y sample, ascending.
    """
    x0, y0, x1, y1 = region
    xs = np.arange(x0, x1 + 1e-9, stride) if x1 > x0 else np.array([x0])
    ys = np.arange(y0, y1 + 1e-9, stride) if y1 > y0 else np.array([y0])
    values = np.empty((len(ys), len(xs)))
    for i, sy in enumerate(ys):
        for j, sx in enumerate(xs):
            values[i, j] = critic_value(critic, base_obs.with_goal((sx, sy)))
    lo, hi = values.min(), values.max()
    if hi - lo < 1e-15:
        return np.full_like(values, 0.5)
    return (values - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# Bundles and persistence


@dataclass
class PolicyBundle:
    """Everything the lower layer needs at runtime, plus the critic the
    upper layer queries for candidate safety."""

    obs_config: ObservationConfig
    bank: ExpertBank
    gating: GatingParams
    critic: CriticParams

    def action(self, obs) -> np.ndarray:
        return act(self.bank, self.gating, obs)

    def value(self, obs) -> float:
        return critic_value(self.critic, obs)

    def alpha(self, obs) -> np.ndarray:
        return gate(self.gating, obs)


@dataclass
class SingleExpertPolicy:
    """One expert driven directly; used in stage-1 training and ablations."""

    obs_config: ObservationConfig
    params: MlpParams

    def action(self, obs) -> np.ndarray:
        return scale_to_limits(forward(self.params, obs))


_MLP_KEYS = ("w0", "b0", "w1", "b1", "w2", "b2")  # arrays() order


def _mlp_to_dict(p: MlpParams) -> dict:
    doc = {key: a.reshape(-1).tolist() for key, a in zip(_MLP_KEYS, p.arrays())}
    doc["sizes"] = list(p.sizes)
    return doc


def _mlp_from_dict(doc, owner: str, inputs: int, outputs: int) -> MlpParams:
    """The network ``owner`` of a checkpoint, which must take ``inputs``
    features and emit ``outputs``; every error names ``owner`` and the field."""
    if not isinstance(doc, dict):
        raise ValueError(f"{owner} must be a JSON object")
    sizes = doc.get("sizes")
    if not (isinstance(sizes, list) and len(sizes) == 4
            and all(isinstance(n, int) and not isinstance(n, bool) and n > 0 for n in sizes)):
        raise ValueError(f"{owner} field 'sizes' must hold 4 positive integers, got {sizes!r}")
    if (sizes[0], sizes[3]) != (inputs, outputs):
        raise ValueError(f"{owner} field 'sizes' must be [{inputs}, h1, h2, {outputs}] "
                         f"for this observation layout, got {sizes!r}")
    arrays = []
    for key, shape in zip(_MLP_KEYS, MlpParams.shapes(tuple(sizes))):
        try:
            a = np.array(doc[key], dtype=float).reshape(shape)
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"{owner} field {key!r} must hold {math.prod(shape)} numbers") from None
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{owner} field {key!r} holds a non-finite number")
        arrays.append(a)
    return MlpParams(*arrays)


_OBS_KEYS = ("beams", "max_range", "history")


def _obs_to_dict(cfg: ObservationConfig) -> dict:
    return {key: getattr(cfg, key) for key in _OBS_KEYS}


def _obs_from_dict(doc) -> ObservationConfig:
    if not (isinstance(doc, dict) and all(key in doc for key in _OBS_KEYS)):
        raise ValueError(f"field 'observation' must be an object with {', '.join(map(repr, _OBS_KEYS))}")
    return ObservationConfig(*(doc[key] for key in _OBS_KEYS))


def _checkpoint(path: str | Path, kind: str) -> dict:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("schema") != PARAMS_SCHEMA or doc.get("kind") != kind:
        raise ValueError(f"{path}: not a checkpoint of schema {PARAMS_SCHEMA} and kind {kind!r}")
    return doc


def _write_checkpoint(path: str | Path, kind: str, obs_config: ObservationConfig, **fields) -> None:
    """Write a checkpoint of ``kind``: the schema, kind and observation
    header plus ``fields``, as one line of key-sorted JSON."""
    doc = {"schema": PARAMS_SCHEMA, "kind": kind, "observation": _obs_to_dict(obs_config), **fields}
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def save_bundle(bundle: PolicyBundle, path: str | Path) -> None:
    _write_checkpoint(
        path, "fusion_bundle", bundle.obs_config,
        experts=[_mlp_to_dict(e) for e in bundle.bank.experts],
        gating=_mlp_to_dict(bundle.gating.params),
        critic=_mlp_to_dict(bundle.critic.params),
    )


def load_bundle(path: str | Path) -> PolicyBundle:
    doc = _checkpoint(path, "fusion_bundle")
    obs_config = _obs_from_dict(doc.get("observation"))
    experts = doc.get("experts")
    if not (isinstance(experts, list) and len(experts) == NUM_EXPERTS):
        raise ValueError(f"field 'experts' must hold {NUM_EXPERTS} networks")
    dim = obs_config.dim
    return PolicyBundle(
        obs_config=obs_config,
        bank=ExpertBank(tuple(_mlp_from_dict(e, f"expert {k}", dim, 3) for k, e in enumerate(experts))),
        gating=GatingParams(_mlp_from_dict(doc.get("gating"), "gating", dim, NUM_EXPERTS)),
        critic=CriticParams(_mlp_from_dict(doc.get("critic"), "critic", dim, 1)),
    )


def save_expert(params: MlpParams, profile: str, obs_config: ObservationConfig, path: str | Path) -> None:
    _write_checkpoint(path, "expert", obs_config, profile=profile, params=_mlp_to_dict(params))


def load_expert(path: str | Path) -> tuple[MlpParams, str, ObservationConfig]:
    doc = _checkpoint(path, "expert")
    profile = doc.get("profile")
    if not (isinstance(profile, str) and profile in PROFILES):
        raise ValueError(f"expert field 'profile' must be one of {sorted(PROFILES)}, got {profile!r}")
    obs_config = _obs_from_dict(doc.get("observation"))
    return _mlp_from_dict(doc.get("params"), "expert", obs_config.dim, 3), profile, obs_config
