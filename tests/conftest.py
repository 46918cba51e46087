import os
import random
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

import noisekit
from noisekit.errors import DataError, DimensionMismatch, EmptyTrainingSet
from noisekit.features import FeatureMatrix, TfidfModel, analyzer_terms
from noisekit.reduce import Dictionary, read_phonetic_table
from noisekit.textcore import Document, NoiseLabelSet, SentimentLabel

# Latin-script corpus words used across the reduction and metric tests.
BASE_VOCAB = {
    "the": 50,
    "cat": 22,
    "dog": 9,
    "hello": 10,
    "world": 5,
    "bat": 7,
    "pad": 4,
    "tap": 3,
    "seat": 6,
    "note": 8,
    "tone": 2,
    "data": 12,
    "test": 11,
    "good": 14,
    "bad": 13,
}


# json.loads rejects an integer longer than this; 0 when integers of any length parse,
# as before Python 3.10.7 or after sys.set_int_max_str_digits(0).
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def latin_test_phonetic_table() -> dict[str, str]:
    """Small Latin consonant-class table, so reduction tests can use English words."""
    return read_phonetic_table(Path(__file__).parent / "phonetic_latin_test.tsv")


@pytest.fixture(scope="session")
def latin_table():
    return latin_test_phonetic_table()


@pytest.fixture()
def latin_dict(latin_table):
    return Dictionary(dict(BASE_VOCAB), table=latin_table)


def subprocess_env() -> dict[str, str]:
    """The environment for a child Python that must import the noisekit this process imported.

    PYTHONPATH leads with the directory holding the package: `src/` in a checkout,
    `site-packages` for an installed package.
    """
    package_root = str(Path(noisekit.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def make_docs(texts, sentiments=None, noises=None):
    docs = []
    for i, text in enumerate(texts):
        sentiment = None
        if sentiments is not None and sentiments[i] is not None:
            sentiment = SentimentLabel.from_name(sentiments[i])
        noise = None
        if noises is not None and noises[i] is not None:
            noise = NoiseLabelSet.from_bits(noises[i])
        docs.append(Document(id=f"d{i}", text=text, sentiment=sentiment, noise=noise))
    return docs


def random_word(rng: random.Random, alphabet="abdegikloprstz", max_len=8):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))


def csr(rows, dim=None):
    """FeatureMatrix from per-row (index, value) pairs; dim defaults to max index + 1."""
    indptr, indices, values = [0], [], []
    for pairs in rows:
        for i, v in sorted((int(i), float(v)) for i, v in pairs if v != 0.0):
            indices.append(i)
            values.append(v)
        indptr.append(len(indices))
    if dim is None:
        dim = max(indices, default=-1) + 1
    return FeatureMatrix(
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
        values=np.array(values, dtype=np.float64),
        dim=dim,
    )


def transform_reference(model: TfidfModel, texts: list[str]) -> FeatureMatrix:
    """Featurize texts, one row each: tf * idf, then L2-normalized.

    The dict-counting `features.transform`, one row at a time; the chunked one must
    return the same bytes.
    """
    vocab = model.vocabulary
    indptr, indices, values = array("q", [0]), array("q"), array("d")
    for text in texts:
        counts: dict[int, int] = {}
        for term in analyzer_terms(text, model.config):
            idx = vocab.get(term)
            if idx is not None:
                counts[idx] = counts.get(idx, 0) + 1
        if counts:
            row_idx = np.fromiter(sorted(counts), dtype=np.int64, count=len(counts))
            row_val = np.array([counts[i] for i in row_idx], dtype=np.float64) * model.idf[row_idx]
            norm = np.sqrt(np.dot(row_val, row_val))
            if norm > 0:
                row_val /= norm
            indices.frombytes(row_idx.tobytes())
            values.frombytes(row_val.tobytes())
        indptr.append(len(indices))
    return FeatureMatrix(
        indptr=np.frombuffer(indptr, dtype=np.int64),
        indices=np.frombuffer(indices, dtype=np.int64),
        values=np.frombuffer(values, dtype=np.float64),
        dim=model.dim,
    )


def hinge_objective(w: np.ndarray, b: float, features: FeatureMatrix, y, c: float) -> float:
    """Primal objective of one binary hinge classifier: 0.5*||w||^2 + c * sum_i hinge_i."""
    total = 0.5 * float(np.dot(w, w))
    for i, yi in enumerate(y):
        idx, val = features.row(i)
        margin = yi * ((float(w[idx] @ val) if len(idx) else 0.0) + b)
        total += c * max(0.0, 1.0 - margin)
    return total


def sgd_reference(features: FeatureMatrix, labels, k: int, config, direction,
                  loss_multiplier: float, l2_divisor: float):
    """The SGD loop of `classify._sgd` over (K, D) weights indexed as ``w[:, idx]``.

    `classify._sgd` must return the same weight and bias bits.
    """
    n = len(features)
    if n != len(labels):
        raise DimensionMismatch(f"{n} feature rows but {len(labels)} labels")
    if not n:
        raise EmptyTrainingSet("no training samples")
    w = np.zeros((k, features.dim), dtype=np.float64)
    scale = 1.0
    bias = np.zeros(k, dtype=np.float64)
    rng = np.random.default_rng(config.seed)
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        for _ in range(config.epochs):
            for i in rng.permutation(n):
                lr = config.learning_rate / (1.0 + step / n)
                step += 1
                idx, val = features.row(i)
                z = scale * (w[:, idx] @ val) + bias if len(idx) else bias.copy()
                g = direction(i, z)
                # Extreme learning rates could flip the sign; clamp instead.
                scale *= max(1.0 - lr / l2_divisor, 1e-12)
                if scale < 1e-9:
                    w *= scale
                    scale = 1.0
                rate = lr * loss_multiplier
                if len(idx):
                    w[:, idx] += ((rate / scale) * g)[:, None] * val[None, :]
                bias += rate * g
    w *= scale
    if not (np.isfinite(w).all() and np.isfinite(bias).all()):
        raise DataError(
            "training diverged to non-finite weights; lower the learning rate (--lr) or c (--c)"
        )
    return w, bias


def decision_reference(weights: np.ndarray, bias: np.ndarray, features: FeatureMatrix):
    """(rows, K) scores over C-ordered (K, D) weights as ``w[:, idx] @ val + b``.

    `LinearModel.decision_values` on the (D, K) transpose must give the same bits.
    """
    out = np.tile(bias, (len(features), 1))
    for i in range(len(features)):
        idx, val = features.row(i)
        if len(idx):
            out[i] = weights[:, idx] @ val + bias
    return out


def softmax_loss_grad(weights, bias, features, label_idx, class_weights, c):
    """Weighted cross-entropy loss with L2 term, plus its analytic gradient.

    loss = sum_i cw[y_i] * (-ln softmax(W x_i + b)_{y_i}) + ||W||^2 / (2c)
    """
    k, _ = weights.shape
    loss = float(np.sum(weights * weights)) / (2.0 * c)
    grad_w = weights / c
    grad_b = np.zeros(k, dtype=np.float64)
    for i, yi in enumerate(label_idx):
        idx, val = features.row(i)
        z = (weights[:, idx] @ val if len(idx) else np.zeros(k)) + bias
        e = np.exp(z - np.max(z))
        p = e / e.sum()
        cw = class_weights[yi]
        loss -= cw * float(np.log(p[yi]))
        delta = cw * p
        delta[yi] -= cw
        if len(idx):
            grad_w[:, idx] += delta[:, None] * val[None, :]
        grad_b += delta
    return loss, grad_w, grad_b


def lcs_length_dp(a, b) -> int:
    """Longest-common-subsequence length by the O(|a|*|b|) dynamic program."""
    previous = [0] * (len(b) + 1)
    for x in a:
        current = [0]
        for j, y in enumerate(b, start=1):
            current.append(previous[j - 1] + 1 if x == y else max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]
