"""Linear classifiers for noise identification and sentiment analysis.

Both trainers run the one seeded SGD loop `_sgd`:

* one-vs-rest hinge loss (per class: 0.5*||w||^2 + c * sum_i hinge_i),
* class-weighted softmax cross-entropy with L2 term ||W||^2 / (2c),

with the decaying step size lr_t = lr0 / (1 + t/n) over global step t and
the L2 shrink folded into a scale factor so updates stay sparse. A trainer
supplies only its per-sample direction, its loss multiplier (c for hinge,
1 for softmax) and its L2 divisor (n for hinge, c*n for softmax).
Training is bit-deterministic given the data order and the seed: every sum
runs in an order this module fixes (`_score`, `_softmax`), never in one a
BLAS kernel or numpy's SIMD dispatch picks.

A model's weights are one (D, K) table with a row per term, used as is by
training, the bundle and prediction.

Class weights for cost-sensitive training follow w_c = N / (K * n_c) and
live in `TrainConfig.class_weights`.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass

from ._lazy import np
from .errors import DataError, DimensionMismatch, InsufficientData, Malformed
from .features import FeatureMatrix
from .textcore import NOISE_CLASSES, SENTIMENT_CLASSES, NoiseLabelSet, SentimentLabel


class ModelKind(enum.Enum):
    OVR_HINGE = "ovr_hinge"
    SOFTMAX_WEIGHTED = "softmax_weighted"

    @property
    def class_names(self) -> tuple[str, ...]:
        """The fixed classes of this kind, one per weight column."""
        return NOISE_CLASSES if self is ModelKind.OVR_HINGE else SENTIMENT_CLASSES


def _finite_number(value) -> bool:
    """A finite int or float; bool, a subclass of int, is rejected."""
    return type(value) in (int, float) and math.isfinite(value)


@dataclass(frozen=True)
class TrainConfig:
    c: float = 1.0
    epochs: int = 20
    learning_rate: float = 0.1
    seed: int = 0
    class_weights: tuple[float, ...] | None = None  # None trains every class with weight 1

    def __post_init__(self):
        if not (_finite_number(self.c) and self.c > 0):
            raise Malformed(f"regularization strength must be finite and > 0, got {self.c!r}")
        # `type(...) is int` also rejects bool, a subclass of int.
        if type(self.epochs) is not int:
            raise Malformed(f"epochs must be an integer, got {self.epochs!r}")
        if self.epochs < 1:
            raise Malformed(f"epochs must be >= 1, got {self.epochs}")
        if not (_finite_number(self.learning_rate) and self.learning_rate > 0):
            raise Malformed(f"learning rate must be finite and > 0, got {self.learning_rate!r}")
        if type(self.seed) is not int:
            raise Malformed(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise Malformed(f"seed must be >= 0, got {self.seed}")
        if self.class_weights is not None and not all(
            _finite_number(v) and v > 0 for v in self.class_weights
        ):
            raise Malformed(
                f"class weights must be finite positive numbers, got {list(self.class_weights)}"
            )


def compute_class_weights(counts) -> tuple[float, ...]:
    """Inverse-frequency weights w_c = N / (K * n_c) for K classes of size n_c."""
    counts = [int(c) for c in counts]
    if any(c <= 0 for c in counts):
        raise InsufficientData(f"all class counts must be positive, got {counts}")
    n = sum(counts)
    k = len(counts)
    return tuple(n / (k * c) for c in counts)


@dataclass
class LinearModel:
    kind: ModelKind
    weights: np.ndarray  # (dim, n_classes)
    bias: np.ndarray  # (n_classes,)

    def __post_init__(self):
        k = len(self.kind.class_names)
        if self.weights.ndim != 2 or self.weights.shape[1] != k:
            raise DimensionMismatch(
                f"{self.kind.value} weights must be (D, {k}), got shape {self.weights.shape}"
            )
        if self.bias.shape != (k,):
            raise DimensionMismatch(
                f"{self.kind.value} bias count must be {k}, got shape {self.bias.shape}"
            )

    @property
    def class_names(self) -> tuple[str, ...]:
        return self.kind.class_names

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def decision_values(self, features: FeatureMatrix) -> np.ndarray:
        """(rows, K) scores x W + b as `_sgd` computes them; an empty row scores the bias alone."""
        if features.dim != self.dim:
            raise DimensionMismatch(
                f"feature dimension {features.dim} does not match model dimension {self.dim}"
            )
        out = np.tile(self.bias, (len(features), 1))
        for i in range(len(features)):
            idx, val = features.row(i)
            if len(idx):
                out[i] = _score(self.weights.take(idx, axis=0), val) + self.bias
        return out


def _score(block: np.ndarray, val: np.ndarray) -> np.ndarray:
    """x W for a row's (nnz, K) weight block: per class, the nnz products added in row order.

    einsum's two-operand loop adds each product to a zeroed output in turn;
    a BLAS ``block.T @ val`` sums in whatever order its kernel picks.
    """
    return np.einsum("ij,i->j", block, val)


def _sgd(features: FeatureMatrix, labels, k: int, config: TrainConfig, direction,
         loss_multiplier: float, l2_divisor: float):
    """Seeded SGD over the rows of `features`; returns the (D, K) weights and (K,) bias.

    The epochs visit the rows in the order of one list, first 0..n-1, shuffled
    in place before each epoch by Fisher-Yates: for i from n-1 down to 1, swap
    items i and j = int(random() * (i + 1)), with ``random`` the method of one
    ``random.Random(seed)``. Python keeps the `random()` stream of a seed
    across releases; it does not promise that of `shuffle` or `randrange`.
    Each step visits row i, asks
    ``direction(i, z)`` for the descent direction g (K,) at the scores
    z = x_i W + b, shrinks W by 1 - lr/l2_divisor and adds
    (lr*loss_multiplier) * x_i^T g to W and (lr*loss_multiplier) * g to b.
    W is kept as w * scale so the shrink is O(1) and updates stay sparse
    (Bottou, "Stochastic Gradient Descent Tricks", 2012).

    w is viewed as one K-float record per term. A step takes the row's
    (nnz, K) block in one gather, scores it with `_score` and puts the
    updated block back with one record put. The bits equal those of the
    (K, D) oracle ``conftest.sgd_reference``.
    """
    n = len(features)
    if n != len(labels):
        raise DimensionMismatch(f"{n} feature rows but {len(labels)} labels")
    if not n:
        raise InsufficientData("no training samples")
    w = np.zeros((features.dim, k), dtype=np.float64)
    terms = w.view(np.dtype((np.void, 8 * k))).reshape(-1)
    scale = 1.0
    bias = np.zeros(k, dtype=np.float64)
    indptr, indices, values = features.indptr.tolist(), features.indices, features.values
    draw = random.Random(config.seed).random
    order = list(range(n))
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        for _ in range(config.epochs):
            for last in range(n - 1, 0, -1):
                j = int(draw() * (last + 1))
                order[last], order[j] = order[j], order[last]
            for i in order:
                lr = config.learning_rate / (1.0 + step / n)
                step += 1
                lo, hi = indptr[i], indptr[i + 1]
                idx, val = indices[lo:hi], values[lo:hi]
                # An empty row scores bias + 0.0, which is bias bit for bit: b starts
                # at +0.0, and a sum is -0.0 only when both terms are.
                block = w.take(idx, axis=0)
                g = direction(i, scale * _score(block, val) + bias)
                # Extreme learning rates could flip the sign; clamp instead.
                scale *= max(1.0 - lr / l2_divisor, 1e-12)
                if scale < 1e-9:
                    w *= scale
                    block *= scale
                    scale = 1.0
                rate = lr * loss_multiplier
                block += val[:, None] * ((rate / scale) * g)
                terms.put(idx, block.view(terms.dtype))
                bias += rate * g
    w *= scale
    if not (np.isfinite(w).all() and np.isfinite(bias).all()):
        raise DataError(
            "training diverged to non-finite weights; lower the learning rate (--lr) or c (--c)"
        )
    return w, bias


def train_ovr_hinge(features: FeatureMatrix, labels, config: TrainConfig) -> LinearModel:
    """One independent max-margin binary classifier per noise class.

    Each class minimizes 0.5*||w||^2 + c * sum_i max(0, 1 - y_i (w.x_i + b))
    by seeded stochastic subgradient descent; the classes share the sample
    order so the whole run is deterministic.
    """
    k = len(NOISE_CLASSES)
    # Row i's +1/-1 targets; rows with the same label set share one array.
    signs = {
        m: np.array([1.0 if m >> j & 1 else -1.0 for j in range(k)])
        for m in {label_set.mask for label_set in labels}
    }
    y = [signs[label_set.mask] for label_set in labels]

    def direction(i, decision):
        # y on the classes whose margin is violated, 0 elsewhere.
        yi = y[i]
        return yi * (yi * decision < 1.0)

    weights, bias = _sgd(features, labels, k, config, direction, config.c, len(features))
    return LinearModel(ModelKind.OVR_HINGE, weights, bias)


def predict_multilabel(model: LinearModel, features: FeatureMatrix) -> list[NoiseLabelSet]:
    """Per row, every class with a non-negative decision value, else the argmax class."""
    if model.kind is not ModelKind.OVR_HINGE:
        raise Malformed(f"expected an OVR hinge model, got {model.kind.value}")
    decision = model.decision_values(features)
    masks = np.where(decision >= 0.0, 1 << np.arange(decision.shape[1]), 0).sum(axis=1)
    masks = np.where(masks > 0, masks, 1 << np.argmax(decision, axis=1))
    return [NoiseLabelSet(int(m)) for m in masks]


def _softmax(z: list[float]) -> list[float]:
    """exp(z - max z), normalized, over K Python floats.

    libm's `math.exp` and the exactly rounded `math.fsum`, so no SIMD exp and
    no summation order that differs between numpy or Python releases.
    """
    top = max(z)
    e = [math.exp(v - top) for v in z]
    total = math.fsum(e)
    return [v / total for v in e]


def train_softmax_weighted(features: FeatureMatrix, labels, config: TrainConfig) -> LinearModel:
    """Cost-sensitive softmax regression by seeded SGD.

    Minimizes sum_i cw[y_i] * CE_i + ||W||^2 / (2c) with cw from
    ``config.class_weights``; None, like all-ones weights, trains unweighted.
    """
    k = len(SENTIMENT_CLASSES)
    cw = [1.0] * k if config.class_weights is None else [float(v) for v in config.class_weights]
    if len(cw) != k:
        raise DimensionMismatch(f"{len(cw)} class weights for {k} classes")
    label_idx = [int(lbl) for lbl in labels]
    if any(not 0 <= j < k for j in label_idx):
        raise DimensionMismatch("label index outside class range")

    def direction(i, z):
        # The negated gradient of cw[y] * CE at z.
        yi = label_idx[i]
        weight = cw[yi]
        g = [-weight * p for p in _softmax(z.tolist())]
        g[yi] += weight
        return np.array(g)

    weights, bias = _sgd(features, labels, k, config, direction, 1.0, config.c * len(features))
    return LinearModel(ModelKind.SOFTMAX_WEIGHTED, weights, bias)


def predict_sentiment(model: LinearModel, features: FeatureMatrix):
    """Return (labels, (rows, K) probabilities); argmax ties go to the lowest class index."""
    if model.kind is not ModelKind.SOFTMAX_WEIGHTED:
        raise Malformed(f"expected a softmax model, got {model.kind.value}")
    decision = model.decision_values(features)
    probs = np.array([_softmax(row) for row in decision.tolist()]).reshape(decision.shape)
    labels = [SentimentLabel(int(j)) for j in np.argmax(probs, axis=1)]
    return labels, probs


def to_json(model: LinearModel) -> dict:
    """Bundle section: JSON-ready fields, and the (D, K) weights as a table of distinct rows.

    ``columns`` is the (U, K) little-endian float64 array of the U distinct
    weight rows, in the order of their raw bytes, and ``column_index`` the D
    little-endian uint32 entries naming each term's row; the bundle stores
    both as raw bytes. Rows are compared by raw bytes, so -0.0 and 0.0 stay apart.
    """
    by_term = np.ascontiguousarray(model.weights, dtype="<f8")
    # np.unique's stable sort without its copies of the table: the rows argsorted
    # as byte records, a flag on each sorted row whose <u8 words differ from the
    # row before, and each term's rank among the distinct rows, scattered back
    # through the order.
    keys = by_term.view(np.dtype((np.void, 8 * by_term.shape[1]))).reshape(-1)
    order = keys.argsort(kind="stable")
    sorted_words = by_term.view("<u8")[order]
    first = np.empty(len(order), dtype=bool)
    first[:1] = True
    (sorted_words[1:] != sorted_words[:-1]).any(axis=1, out=first[1:])
    del sorted_words  # one table-sized copy at a time
    ranks = np.cumsum(first, dtype="<u4")
    ranks -= 1
    inverse = np.empty_like(ranks)
    inverse[order] = ranks
    return {
        "kind": model.kind.value,
        "class_names": list(model.class_names),
        "biases": model.bias.tolist(),
        "columns": by_term[order[first]],
        "column_index": inverse,
    }


def from_json(section: dict) -> LinearModel:
    """Inverse of `to_json`; D is the length of ``column_index``."""
    kind = ModelKind(section["kind"])
    if section["class_names"] != list(kind.class_names):
        raise Malformed(
            f"class_names must be the {kind.value} classes {list(kind.class_names)}, "
            f"got {section['class_names']!r}"
        )
    columns, index = section["columns"], section["column_index"]
    if index.size and int(index.max()) >= len(columns):
        raise Malformed(
            f"column index {int(index.max())} is out of range for {len(columns)} columns"
        )
    biases = section["biases"]
    if not (isinstance(biases, list) and all(map(_finite_number, biases))):
        raise Malformed("biases must be finite numbers")
    if not np.isfinite(columns).all():
        raise Malformed("weights must be finite")
    return LinearModel(
        kind=kind,
        weights=columns[index],
        bias=np.array(biases, dtype=np.float64),
    )
