"""Minimal differentiable scorer: a small feed-forward net with one scalar
output, exact reverse-mode gradients, and a finite-difference verifier.

The core is one matrix forward over a batch of rows, (N, d) -> (N,), and one
batched backward that adds the parameter gradients of an upstream vector to a
GradientTape. The per-example forward()/backward() are the same code at N=1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np


class Activation(Enum):
    TANH = "tanh"
    RELU = "relu"


class Direction(Enum):
    ASCENT = "ascent"
    DESCENT = "descent"


class NonFiniteGradientError(RuntimeError):
    """An update step was aborted because a gradient buffer went non-finite."""


def _act(z: np.ndarray, kind: Activation) -> np.ndarray:
    if kind is Activation.TANH:
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _act_prime(z: np.ndarray, kind: Activation) -> np.ndarray:
    if kind is Activation.TANH:
        t = np.tanh(z)
        return 1.0 - t * t
    return np.where(z > 0.0, 1.0, 0.0)


class GradientTape:
    """Per-parameter gradient buffers aligned with a Scorer's weights/biases."""

    def __init__(self, scorer: "Scorer"):
        self.d_weights = [np.zeros_like(w) for w in scorer.weights]
        self.d_biases = [np.zeros_like(b) for b in scorer.biases]

    def zero(self) -> None:
        for g in self.d_weights:
            g[:] = 0.0
        for g in self.d_biases:
            g[:] = 0.0

    def add(self, other: "GradientTape") -> None:
        for mine, theirs in zip(self.d_weights, other.d_weights):
            mine += theirs
        for mine, theirs in zip(self.d_biases, other.d_biases):
            mine += theirs


# Rows per matrix forward in score_rows(): large enough to amortise the
# per-call overhead, small enough that the activations of a block stay a
# small fraction of the process's memory however many rows are scored.
SCORE_BLOCK_ROWS = 2048


@dataclass
class ForwardCache:
    """Activations captured by forward_batch() for the matching backward_batch()."""

    scorer_id: int
    version: int
    inputs: list[np.ndarray]  # layer inputs A_0 .. A_{L-1}, each (N, n_in)
    pre_activations: list[np.ndarray]  # Z_1 .. Z_L, each (N, n_out)


class Scorer:
    """Feed-forward net mapping an input vector to one raw scalar score.

    Hidden layers use the configured activation; the output is linear.
    Weights are W @ a + b with W of shape (n_out, n_in).
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        activation: Activation,
        weights: list[np.ndarray],
        biases: list[np.ndarray],
        init_seed: int | None = None,
    ):
        layer_sizes = list(int(n) for n in layer_sizes)
        if len(layer_sizes) < 2 or any(n <= 0 for n in layer_sizes):
            raise ValueError("layer_sizes must be >= 2 positive integers")
        if layer_sizes[-1] != 1:
            raise ValueError("output dimension must be exactly 1")
        self.layer_sizes = layer_sizes
        self.activation = activation
        self.weights = weights
        self.biases = biases
        self.init_seed = init_seed
        self._version = 0
        if len(weights) != len(layer_sizes) - 1 or len(biases) != len(layer_sizes) - 1:
            raise ValueError(f"expected {len(layer_sizes) - 1} weight and bias arrays")
        for i, (w, b) in enumerate(zip(weights, biases)):
            expect_w = (layer_sizes[i + 1], layer_sizes[i])
            if w.shape != expect_w or b.shape != (layer_sizes[i + 1],):
                raise ValueError(f"layer {i} parameter shapes do not match layer_sizes")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} has non-finite parameters")

    @classmethod
    def create(
        cls,
        layer_sizes: Sequence[int],
        activation: Activation = Activation.TANH,
        seed: int = 0,
    ) -> "Scorer":
        """Fresh scorer with uniform(-1/sqrt(n_in), +1/sqrt(n_in)) init."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(n_in)
            weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
            biases.append(rng.uniform(-bound, bound, size=(n_out,)))
        return cls(layer_sizes, activation, weights, biases, init_seed=seed)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def clone(self) -> "Scorer":
        return Scorer(
            list(self.layer_sizes),
            self.activation,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            init_seed=self.init_seed,
        )

    def new_tape(self) -> GradientTape:
        return GradientTape(self)

    def forward_batch(self, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
        """Score each row of an (N, d) matrix; the cache feeds backward_batch()."""
        a = np.asarray(x, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != self.input_dim:
            raise ValueError(f"input shape {a.shape} != (N, {self.input_dim})")
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite input")
        inputs, pre_acts = [], []
        for i in range(self.n_layers):
            inputs.append(a)
            z = a @ self.weights[i].T + self.biases[i]
            pre_acts.append(z)
            a = _act(z, self.activation) if i < self.n_layers - 1 else z
        cache = ForwardCache(id(self), self._version, inputs, pre_acts)
        return a[:, 0], cache

    def forward(self, x: np.ndarray) -> tuple[float, ForwardCache]:
        """Score one input vector; the cache feeds the matching backward()."""
        a = np.asarray(x, dtype=np.float64)
        if a.shape != (self.input_dim,):
            raise ValueError(f"input shape {a.shape} != ({self.input_dim},)")
        scores, cache = self.forward_batch(a[None, :])
        return float(scores[0]), cache

    def score_rows(self, x: np.ndarray) -> np.ndarray:
        """Scores of many input rows, by the matrix forward over blocks of
        SCORE_BLOCK_ROWS rows; no forward cache is kept."""
        out = np.empty(len(x))
        for start in range(0, len(x), SCORE_BLOCK_ROWS):
            block = slice(start, start + SCORE_BLOCK_ROWS)
            out[block] = self.forward_batch(x[block])[0]
        return out

    def backward_batch(self, cache: ForwardCache, upstream: np.ndarray, tape: GradientTape) -> None:
        """Accumulate sum_n upstream[n] * d(score_n)/d(param) into the tape."""
        if cache.scorer_id != id(self) or cache.version != self._version:
            raise ValueError("stale or mismatched forward cache")
        dz = np.asarray(upstream, dtype=np.float64).reshape(-1, 1)
        for i in reversed(range(self.n_layers)):
            tape.d_weights[i] += dz.T @ cache.inputs[i]
            tape.d_biases[i] += dz.sum(axis=0)
            if i > 0:
                dz = (dz @ self.weights[i]) * _act_prime(cache.pre_activations[i - 1], self.activation)

    def backward(self, cache: ForwardCache, upstream: float, tape: GradientTape) -> None:
        """Accumulate upstream * d(score)/d(param) into the tape."""
        self.backward_batch(cache, np.asarray([upstream]), tape)

    def sgd_step(self, tape: GradientTape, lr: float, direction: Direction) -> None:
        """params <- params +/- lr * grad, then zero the tape."""
        for i, g in enumerate(tape.d_weights):
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(f"non-finite gradient in layer {i} weights")
        for i, g in enumerate(tape.d_biases):
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(f"non-finite gradient in layer {i} biases")
        sign = 1.0 if direction is Direction.ASCENT else -1.0
        for w, g in zip(self.weights, tape.d_weights):
            w += sign * lr * g
        for b, g in zip(self.biases, tape.d_biases):
            b += sign * lr * g
        self._version += 1
        tape.zero()

    def to_json_dict(self) -> dict:
        return {
            "layer_sizes": list(self.layer_sizes),
            "activation": self.activation.value,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "init_seed": self.init_seed,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Scorer":
        return cls(
            d["layer_sizes"],
            Activation(d["activation"]),
            [np.asarray(w, dtype=np.float64) for w in d["weights"]],
            [np.asarray(b, dtype=np.float64) for b in d["biases"]],
            init_seed=d.get("init_seed"),
        )


def finite_diff_check(
    scorer: Scorer,
    loss_fn: Callable[[Scorer, GradientTape | None], float],
    eps: float = 1e-5,
) -> float:
    """Worst relative error between backward gradients and central differences.

    loss_fn(scorer, tape) must return the loss and, when a tape is supplied,
    accumulate d(loss)/d(param) into it. The perturbation loop calls it with
    tape=None. Relative error uses max(|analytic|, |numeric|, 1e-6) as the
    denominator so that near-zero gradients compare on an absolute scale.
    """
    tape = scorer.new_tape()
    loss_fn(scorer, tape)
    worst = 0.0
    params = list(zip(scorer.weights, tape.d_weights)) + list(
        zip(scorer.biases, tape.d_biases)
    )
    for array, grads in params:
        flat = array.reshape(-1)
        grad_flat = grads.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            loss_plus = loss_fn(scorer, None)
            flat[j] = orig - eps
            loss_minus = loss_fn(scorer, None)
            flat[j] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            analytic = grad_flat[j]
            denom = max(abs(analytic), abs(numeric), 1e-6)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst
