import base64
import json
import math
import os
import random
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

import noisekit
from noisekit.errors import BadEncoding, DataError, DimensionMismatch, InsufficientData, Malformed
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
            norm = math.sqrt((row_val * row_val).sum())
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


def sequential_score(weights: np.ndarray, idx: np.ndarray, val: np.ndarray) -> np.ndarray:
    """``weights[:, idx] @ val`` over (K, D) weights, each product added to a zeroed (K,) in row order."""
    z = np.zeros(weights.shape[0], dtype=np.float64)
    for t, v in zip(idx.tolist(), val.tolist()):
        z += weights[:, t] * v
    return z


def sgd_reference(features: FeatureMatrix, labels, k: int, config, direction,
                  loss_multiplier: float, l2_divisor: float):
    """The SGD loop of `classify._sgd` over (K, D) weights indexed as ``w[:, idx]``.

    Each epoch reshuffles one order list with Fisher-Yates over
    ``random.Random(seed).random()``, and each score is `sequential_score`.
    `classify._sgd` must return the same weight and bias bits.
    """
    n = len(features)
    if n != len(labels):
        raise DimensionMismatch(f"{n} feature rows but {len(labels)} labels")
    if not n:
        raise InsufficientData("no training samples")
    w = np.zeros((k, features.dim), dtype=np.float64)
    scale = 1.0
    bias = np.zeros(k, dtype=np.float64)
    rng = random.Random(config.seed)
    order = list(range(n))
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        for _ in range(config.epochs):
            for last in reversed(range(1, n)):
                j = int(rng.random() * (last + 1))
                order[last], order[j] = order[j], order[last]
            for i in order:
                lr = config.learning_rate / (1.0 + step / n)
                step += 1
                idx, val = features.row(i)
                g = direction(i, scale * sequential_score(w, idx, val) + bias)
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
    """(rows, K) scores over C-ordered (K, D) weights as ``sequential_score + b``.

    `LinearModel.decision_values` on the (D, K) transpose must give the same bits.
    """
    out = np.tile(bias, (len(features), 1))
    for i in range(len(features)):
        idx, val = features.row(i)
        if len(idx):
            out[i] = sequential_score(weights, idx, val) + bias
    return out


def to_json_reference(model) -> dict:
    """`classify.to_json` by `np.unique` over the (D, K) weights as one byte record per term.

    The bundle section `classify.to_json` builds must equal this one, its arrays byte for byte.
    """
    by_term = np.ascontiguousarray(model.weights, dtype="<f8")
    keys = by_term.view(np.dtype((np.void, 8 * by_term.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return {
        "kind": model.kind.value,
        "class_names": list(model.class_names),
        "biases": model.bias.tolist(),
        "columns": by_term[first],
        "column_index": inverse.astype("<u4"),
    }


def repeated_rows_table() -> np.ndarray:
    """(20639, 10) random weights, the benchmark noise model's shape, about 40 % of rows repeated."""
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(20639, 10))
    repeated = rng.random(len(weights)) < 0.4
    weights[repeated] = weights[rng.integers(0, len(weights), repeated.sum())]
    return weights


def raw_section(section: dict) -> dict:
    """A bundle section with each array as (dtype, shape, raw bytes), so `==` compares bytes."""
    return {
        key: (value.dtype.str, value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value
        for key, value in section.items()
    }


def read_bundle(path) -> dict:
    """A v5 bundle as its JSON header, with the raw bytes of its two arrays added to ``linear``.

    ``columns`` gets the header's ``distinct_rows`` x K weights, and
    ``column_index`` every byte after them.
    """
    header, _, arrays = Path(path).read_bytes().partition(b"\n")
    bundle = json.loads(header)
    linear = bundle["linear"]
    split = linear["distinct_rows"] * len(linear["class_names"]) * 8
    linear["columns"], linear["column_index"] = arrays[:split], arrays[split:]
    return bundle


def _header_and_arrays(bundle: dict) -> tuple[bytes, bytes]:
    linear = dict(bundle["linear"])
    arrays = bytes(linear.pop("columns")) + bytes(linear.pop("column_index"))
    return json.dumps({**bundle, "linear": linear}, ensure_ascii=False).encode("utf-8"), arrays


def write_bundle(path, bundle: dict) -> None:
    """Inverse of `read_bundle`: the header as one JSON line, then the arrays' bytes as given."""
    header, arrays = _header_and_arrays(bundle)
    Path(path).write_bytes(header + b"\n" + arrays)


def edit_bundle(path, edit) -> None:
    """Rewrite the bundle at `path` after ``edit(read_bundle(path))``.

    `edit` changes the bundle in place, or returns the whole file's new bytes.
    """
    bundle = read_bundle(path)
    raw = edit(bundle)
    if isinstance(raw, bytes):
        Path(path).write_bytes(raw)
    else:
        write_bundle(path, bundle)


def v4_bundle(bundle: dict) -> bytes:
    """The noisekit-bundle-v4 file of a `read_bundle` bundle: one JSON line, arrays in base64."""
    linear = {key: value for key, value in bundle["linear"].items() if key != "distinct_rows"}
    for key in ("columns", "column_index"):
        linear[key] = base64.b64encode(linear[key]).decode("ascii")
    payload = {**bundle, "version": "noisekit-bundle-v4", "linear": linear}
    return (json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _set_rows(bundle, rows):
    bundle["linear"]["distinct_rows"] = rows


# v5 files that break the layout: (edit for `edit_bundle`, error class, message pattern).
BROKEN_BUNDLES = {
    "arrays-cut-short": (lambda b: b["linear"].update(column_index=b["linear"]["column_index"][:-1]),
                         DimensionMismatch, "column index bytes must follow the header, not"),
    "trailing-bytes": (lambda b: b["linear"].update(column_index=b["linear"]["column_index"] + b"tail"),
                       DimensionMismatch, "must follow the header, not"),
    "rows-off-by-one": (lambda b: _set_rows(b, b["linear"]["distinct_rows"] + 1),
                        DimensionMismatch, r"classifier \d+ distinct rows of \d+ weights"),
    "empty-file": (lambda b: b"", Malformed, "expected a JSON header line ending in a newline"),
    "header-without-newline": (lambda b: _header_and_arrays(b)[0], Malformed, "header line ending in a newline"),
    "header-not-utf8": (lambda b: b'{"version": "\xff"}\n', BadEncoding, "header is not UTF-8 at byte 13"),
    "header-not-json": (lambda b: b"noisekit-bundle-v5\n", Malformed, "invalid JSON"),
    "rows-bool": (lambda b: _set_rows(b, True), Malformed, "distinct_rows must be a non-negative integer, got True"),
    "rows-negative": (lambda b: _set_rows(b, -1), Malformed, "distinct_rows must be a non-negative integer, got -1"),
    "rows-float": (lambda b: _set_rows(b, float(b["linear"]["distinct_rows"])), Malformed, r"got \d+\.0"),
    "v4-file": (v4_bundle, Malformed, "unsupported bundle version 'noisekit-bundle-v4'"),
}


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
