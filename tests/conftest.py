import os
import random
from pathlib import Path

import numpy as np
import pytest

import noisekit
from noisekit.features import FeatureMatrix
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


def hinge_objective(w: np.ndarray, b: float, features: FeatureMatrix, y, c: float) -> float:
    """Primal objective of one binary hinge classifier: 0.5*||w||^2 + c * sum_i hinge_i."""
    total = 0.5 * float(np.dot(w, w))
    for i, yi in enumerate(y):
        idx, val = features.row(i)
        margin = yi * ((float(w[idx] @ val) if len(idx) else 0.0) + b)
        total += c * max(0.0, 1.0 - margin)
    return total


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
