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

from .world import ACTION_HIGH, ACTION_LOW, clamp_action

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


@dataclass(frozen=True)
class Observation:
    """Fixed layout [ranges | motion | goal | velocity]."""

    ranges: np.ndarray    # (beams,) lidar ranges, meters
    motion: np.ndarray    # (beams,) weighted history differences
    goal: np.ndarray      # (2,) goal offset in the robot frame
    velocity: np.ndarray  # (3,) commanded (v_x, v_y, omega_z)

    def vector(self) -> np.ndarray:
        return np.concatenate([self.ranges, self.motion, self.goal, self.velocity])

    def with_goal(self, goal_robot_frame) -> "Observation":
        return Observation(self.ranges, self.motion, np.asarray(goal_robot_frame, dtype=float), self.velocity)


def goal_in_robot_frame(pose, goal_world) -> np.ndarray:
    dx = goal_world[0] - pose[0]
    dy = goal_world[1] - pose[1]
    c, s = math.cos(pose[2]), math.sin(pose[2])
    return np.array([c * dx + s * dy, -s * dx + c * dy])


def build_observation(scans, pose, goal_world, velocity, history: int) -> Observation:
    """Assemble the policy input from the latest scans (oldest first).

    The motion feature is sum_{k=1..n} (scan_t - scan_{t-k}) / k; when fewer
    than n past scans exist the missing ones are padded with the current
    scan, so the corresponding terms vanish.
    """
    if len(scans) < 1:
        raise ValueError("need at least the current scan")
    current = np.asarray(scans[-1], dtype=float)
    motion = np.zeros(current.shape)
    for k in range(1, history + 1):
        past = np.asarray(scans[-1 - k], dtype=float) if len(scans) > k else current
        term = current - past
        if k > 1:  # dividing by 1 is exact, so the k = 1 term skips it
            term /= k
        motion += term
    return Observation(
        ranges=current,
        motion=motion,
        goal=goal_in_robot_frame(pose, goal_world),
        velocity=np.array(velocity, dtype=float),
    )


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
        """Random init with O(1) pre-activations.

        ``input_scales`` gives the typical magnitude of each input feature;
        first-layer weights shrink accordingly so meter-scale inputs do not
        saturate the tanh units.
        """
        w0_std = cls.init_stds((x, h1, h2, y), input_scales)[0]
        return cls(
            rng.normal(0.0, 1.0, (x, h1)) * w0_std, np.zeros(h1),
            rng.normal(0.0, 1.0 / math.sqrt(h1), (h1, h2)), np.zeros(h2),
            rng.normal(0.0, 1.0 / math.sqrt(h2), (h2, y)), np.zeros(y),
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
    """Raw network output (deterministic): tanh, tanh, linear."""
    x = _vec(obs)
    h = np.tanh(x @ params.w0 + params.b0)
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
    z = z - np.max(z)
    e = np.exp(z)
    return e / e.sum()


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


_ACTION_SPAN = ACTION_HIGH - ACTION_LOW


def scale_to_limits(raw: np.ndarray) -> np.ndarray:
    """Map raw network outputs through tanh onto the command limits; the
    clamp keeps rounding from stepping past them."""
    return clamp_action(ACTION_LOW + (np.tanh(raw) + 1.0) * 0.5 * _ACTION_SPAN)


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


def save_bundle(bundle: PolicyBundle, path: str | Path) -> None:
    doc = {
        "schema": PARAMS_SCHEMA,
        "kind": "fusion_bundle",
        "observation": _obs_to_dict(bundle.obs_config),
        "experts": [_mlp_to_dict(e) for e in bundle.bank.experts],
        "gating": _mlp_to_dict(bundle.gating.params),
        "critic": _mlp_to_dict(bundle.critic.params),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


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
    doc = {
        "schema": PARAMS_SCHEMA,
        "kind": "expert",
        "profile": profile,
        "observation": _obs_to_dict(obs_config),
        "params": _mlp_to_dict(params),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_expert(path: str | Path) -> tuple[MlpParams, str, ObservationConfig]:
    doc = _checkpoint(path, "expert")
    obs_config = _obs_from_dict(doc.get("observation"))
    return _mlp_from_dict(doc.get("params"), "expert", obs_config.dim, 3), doc["profile"], obs_config
