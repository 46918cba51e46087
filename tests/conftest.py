import base64
import json
import math
import os
import random
import sys
import unicodedata
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import noisekit
from noisekit.errors import BadEncoding, DataError, DimensionMismatch, InsufficientData, Malformed
from noisekit.features import FeatureMatrix, TfidfModel, analyzer_terms
from noisekit.metrics import BLEU_MAX_N, EPSILON, EmbeddingTable, composite_similarity, human_eval_score, rouge_l, word_coverage
from noisekit.reduce import Dictionary
from noisekit.textcore import Document, NoiseLabelSet, SentimentLabel, is_punct_token, read_text, tokenize

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
    return {"b": "1", "p": "1", "t": "2", "d": "2", "k": "3", "g": "3", "s": "4", "z": "4"}


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


def tokenize_reference(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """`textcore.tokenize` and `textcore.token_spans` as one loop over the characters.

    Whitespace ends a word; a punctuation or symbol code point (general category P* or
    S*) ends a word and is a token of its own; every other code point joins the word.
    """
    tokens: list[str] = []
    spans: list[tuple[int, int]] = []
    start = None
    for i, ch in enumerate(text):
        if ch.isspace():
            if start is not None:
                tokens.append(text[start:i])
                spans.append((start, i))
                start = None
        elif unicodedata.category(ch)[0] in ("P", "S"):
            if start is not None:
                tokens.append(text[start:i])
                spans.append((start, i))
                start = None
            tokens.append(ch)
            spans.append((i, i + 1))
        else:
            if start is None:
                start = i
    if start is not None:
        tokens.append(text[start:])
        spans.append((start, len(text)))
    return tokens, spans


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


def distinct_rows_reference(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`dataio._distinct_rows` by `np.unique` over the (D, K) weights as one byte record per term.

    The (U, K) `<f8` distinct rows and the (D,) `<u4` index the bundle stores must equal these,
    byte for byte.
    """
    by_term = np.ascontiguousarray(weights, dtype="<f8")
    keys = by_term.view(np.dtype((np.void, 8 * by_term.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return by_term[first], inverse.astype("<u4")


def repeated_rows_table() -> np.ndarray:
    """(20639, 10) random weights, the benchmark noise model's shape, about 40 % of rows repeated."""
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(20639, 10))
    repeated = rng.random(len(weights)) < 0.4
    weights[repeated] = weights[rng.integers(0, len(weights), repeated.sum())]
    return weights


def raw_arrays(*arrays: np.ndarray) -> list[tuple]:
    """Each array as (dtype, shape, raw bytes), so `==` compares bytes: -0.0 and 0.0 differ."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def sparse_rows_reference(weights: np.ndarray) -> tuple[bytes, bytes, np.ndarray]:
    """The v6 weight section of (D, K) weights: the mask, the stored entries and the index.

    A mask bit is set, little-endian within each byte, where an entry of the
    `distinct_rows_reference` rows has raw bytes that are not all zero; the stored entries
    are those, row-major. The bytes a bundle stores after its header must equal these.
    """
    rows, index = distinct_rows_reference(weights)
    stored = rows.view("<u8") != 0
    return np.packbits(stored, bitorder="little").tobytes(), rows[stored].tobytes(), index


def mask_flags(mask: bytes, entries: int) -> np.ndarray:
    """The first `entries` bits of a v6 mask as booleans."""
    return np.unpackbits(np.frombuffer(mask, dtype=np.uint8), count=entries, bitorder="little").view(bool)


def read_bundle(path) -> dict:
    """A v6 bundle as its JSON header, with the raw bytes of its three arrays added to ``linear``.

    ``mask`` gets the header's ceil(``distinct_rows`` x K / 8) mask bytes, ``columns`` 8 bytes
    for each bit set among the first ``distinct_rows`` x K of the mask, and ``column_index``
    every byte after them.
    """
    header, _, arrays = Path(path).read_bytes().partition(b"\n")
    bundle = json.loads(header)
    linear = bundle["linear"]
    entries = linear["distinct_rows"] * len(linear["class_names"])
    mask_size = -(-entries // 8)
    split = mask_size + 8 * int(mask_flags(arrays[:mask_size], entries).sum())
    linear["mask"], linear["columns"], linear["column_index"] = (
        arrays[:mask_size], arrays[mask_size:split], arrays[split:]
    )
    return bundle


def _header_and_arrays(bundle: dict) -> tuple[bytes, bytes]:
    linear = dict(bundle["linear"])
    arrays = b"".join(bytes(linear.pop(key)) for key in ("mask", "columns", "column_index"))
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


def _dense_rows(linear: dict) -> bytes:
    """The U x K distinct rows of a `read_bundle` linear section, as v4 and v5 stored them."""
    k = len(linear["class_names"])
    rows = np.zeros((linear["distinct_rows"], k), dtype="<f8")
    rows.reshape(-1)[mask_flags(linear["mask"], rows.size)] = np.frombuffer(linear["columns"], dtype="<f8")
    return rows.tobytes()


def _older_linear(bundle: dict) -> dict:
    linear = {key: value for key, value in bundle["linear"].items() if key != "mask"}
    linear["columns"] = _dense_rows(bundle["linear"])
    return linear


def v4_bundle(bundle: dict) -> bytes:
    """The noisekit-bundle-v4 file of a `read_bundle` bundle: one JSON line, arrays in base64."""
    linear = {key: value for key, value in _older_linear(bundle).items() if key != "distinct_rows"}
    for key in ("columns", "column_index"):
        linear[key] = base64.b64encode(linear[key]).decode("ascii")
    payload = {**bundle, "version": "noisekit-bundle-v4", "linear": linear}
    return (json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":")) + "\n").encode()


def v5_bundle(bundle: dict) -> bytes:
    """The noisekit-bundle-v5 file of a `read_bundle` bundle: the header, then the dense rows and index."""
    linear = _older_linear(bundle)
    arrays = linear.pop("columns") + linear.pop("column_index")
    payload = {**bundle, "version": "noisekit-bundle-v5", "linear": linear}
    return (json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":")) + "\n").encode() + arrays


def _set_stored(bundle, position, value):
    """Overwrite the stored entry at `position` with the raw bytes of float `value`."""
    columns = bytearray(bundle["linear"]["columns"])
    columns[8 * position : 8 * position + 8] = np.array([value], dtype="<f8").tobytes()
    bundle["linear"]["columns"] = bytes(columns)


def _clear_first_mask_bit(bundle):
    mask = bytearray(bundle["linear"]["mask"])
    first = next(i for i, byte in enumerate(mask) if byte)
    mask[first] &= mask[first] - 1
    bundle["linear"]["mask"] = bytes(mask)


def _set_rows(bundle, rows):
    bundle["linear"]["distinct_rows"] = rows


# v6 files that break the layout: (edit for `edit_bundle`, error class, message pattern).
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
    "rows-past-the-file": (lambda b: _set_rows(b, 2**60), DimensionMismatch,
                           r"so at least \d+ mask bytes and \d+ column index bytes must follow the header"),
    "v4-file": (v4_bundle, Malformed, "unsupported bundle version 'noisekit-bundle-v4'"),
    "v5-file": (v5_bundle, Malformed, "unsupported bundle version 'noisekit-bundle-v5'"),
    # One set bit fewer: 8 stored bytes too many for the mask's popcount.
    "mask-bit-cleared": (_clear_first_mask_bit, DimensionMismatch,
                         r"the mask marks \d+ stored weights, so \d+ mask bytes, \d+ weight bytes"),
    "stored-positive-zero": (lambda b: _set_stored(b, 0, 0.0), Malformed, r"a stored weight is \+0\.0"),
    "stored-nan": (lambda b: _set_stored(b, 0, float("nan")), Malformed, "weights must be finite"),
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


def embedding_table(vectors: dict) -> EmbeddingTable:
    """The `EmbeddingTable` `dataio.load_embeddings` returns, from a {word: vector} dict."""
    dim = len(next(iter(vectors.values()))) if vectors else 1
    values = array("d", (float(x) for vector in vectors.values() for x in vector))
    return EmbeddingTable(values, dim, {word: row for row, word in enumerate(vectors)})


def outcome(func, *args, **kwargs):
    """What a call returns, or the class and message of the DataError it raises."""
    try:
        return func(*args, **kwargs)
    except DataError as exc:
        return type(exc), str(exc)


def load_embeddings_reference(path) -> EmbeddingTable:
    """`dataio.load_embeddings` on the whole file, decoded at once and split into lines.

    The line-at-a-time loader must return an equal table and raise the same first error.
    """
    lines = read_text(path).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise Malformed("missing header line", path=path, line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise Malformed("header must be VOCAB_SIZE DIM", path=path, line=1)
    try:
        vocab_size, dim = int(header[0]), int(header[1])
    except ValueError:
        raise Malformed("header must be two integers", path=path, line=1) from None
    if vocab_size < 0 or dim < 1:
        raise Malformed("need VOCAB_SIZE >= 0 and DIM >= 1", path=path, line=1)
    index: dict[str, int] = {}
    values = array("d")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            raise Malformed("blank line inside embedding table", path=path, line=lineno)
        parts = line.split(" ")
        if len(parts) != dim + 1:
            raise DimensionMismatch(
                f"expected {dim} components, got {len(parts) - 1}", path=path, line=lineno
            )
        if parts[0] in index:
            raise Malformed(f"duplicate word {parts[0]!r}", path=path, line=lineno, column=1)
        try:
            row = [float(v) for v in parts[1:]]
        except ValueError:
            raise Malformed("non-numeric vector component", path=path, line=lineno) from None
        if not all(map(math.isfinite, row)):
            raise Malformed(f"non-finite component for {parts[0]!r}", path=path, line=lineno)
        index[parts[0]] = len(index)
        values.extend(row)
    if len(index) != vocab_size:
        raise Malformed(f"header declares {vocab_size} words but file has {len(index)}", path=path)
    return EmbeddingTable(values, dim, index)


def bleu_reference(cand: list[str], ref: list[str]) -> float:
    """`metrics.bleu` on two token lists, counting both sides' n-grams by slicing, per order.

    `bleu` on the two `metrics.ngram_table`s must return the same bits.
    """
    if not ref:
        raise InsufficientData("BLEU needs a non-empty reference")
    if not cand:
        return 0.0
    log_sum = 0.0
    orders = range(1, min(BLEU_MAX_N, len(cand)) + 1)
    for n in orders:
        cand_counts = Counter(tuple(cand[i : i + n]) for i in range(len(cand) - n + 1))
        ref_counts = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        clipped = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
        log_sum += math.log(max(clipped / (len(cand) - n + 1), EPSILON))
    brevity = math.exp(min(0.0, 1.0 - len(ref) / len(cand)))
    return brevity * math.exp(log_sum / len(orders))


def sentence_similarity_reference(cand: list[str], ref: list[str], vectors: dict) -> float:
    """Cosine of the means of each side's {word: vector} vectors; 0 when a side has none.

    `metrics.sentence_similarity` on the two `metrics.mean_vector`s must return the same bits.
    """
    sides = []
    for tokens in (cand, ref):
        vecs = [vectors[t] for t in tokens if t in vectors]
        if not vecs:
            return 0.0
        sides.append(np.mean(vecs, axis=0))
    a, b = sides
    norm = math.sqrt((a * a).sum()) * math.sqrt((b * b).sum())
    if norm == 0.0:
        return 0.0
    return float((a * b).sum()) / norm


def evaluate_reduction_reference(outputs, ground_truth, *, inputs=None, vectors=None,
                                 coverage_vocab=None, human_tallies=None) -> list[dict]:
    """`metrics.evaluate_reduction` method by method, scoring each pair from its token lists.

    ``vectors`` is a {word: vector} dict. The one-pass `evaluate_reduction`, given the
    `embedding_table` of the same vectors, must return equal reports and raise the same
    first error.
    """
    truth_tokens = [tokenize(t) for t in ground_truth]
    input_tokens = None
    if inputs is not None:
        if len(inputs) != len(ground_truth):
            raise DimensionMismatch(f"{len(inputs)} inputs vs {len(ground_truth)} references")
        input_tokens = [tokenize(t) for t in inputs]
    vocab = coverage_vocab if coverage_vocab is not None else vectors
    human_tallies = human_tallies or {}
    reports = []
    for method in sorted(outputs):
        sentences = outputs[method]
        if len(sentences) != len(ground_truth):
            raise DimensionMismatch(
                f"method {method}: {len(sentences)} outputs vs {len(ground_truth)} references"
            )
        bleu_scores, rouge_scores, semantic_scores, composite_scores = [], [], [], []
        all_tokens: list[str] = []
        for i, sentence in enumerate(sentences):
            out_tokens = tokenize(sentence)
            all_tokens.extend(out_tokens)
            bleu_scores.append(bleu_reference(out_tokens, truth_tokens[i]))
            rouge_scores.append(rouge_l(out_tokens, truth_tokens[i]))
            if vectors is not None:
                semantic = sentence_similarity_reference(out_tokens, truth_tokens[i], vectors)
                semantic_scores.append(semantic)
                if input_tokens is not None:
                    surface = bleu_reference(out_tokens, input_tokens[i])
                    composite_scores.append(composite_similarity(semantic, surface))
        coverage = None
        if vocab is not None and any(not is_punct_token(t) for t in all_tokens):
            coverage = word_coverage(all_tokens, vocab)
        human = None
        if method in human_tallies:
            human = human_eval_score(*human_tallies[method])
        reports.append({
            "method": method,
            "bleu": float(np.mean(bleu_scores)),
            "rouge_l": float(np.mean(rouge_scores)),
            "word_coverage": coverage,
            "embedding_similarity": float(np.mean(semantic_scores)) if semantic_scores else None,
            "composite": float(np.mean(composite_scores)) if composite_scores else None,
            "human_eval": human,
        })
    return reports
