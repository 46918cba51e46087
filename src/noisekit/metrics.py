"""Evaluation machinery for noise reduction and classification.

Text-overlap metrics (BLEU, ROUGE-L), embedding-cosine sentence similarity,
a composite score that rewards semantic similarity while penalizing surface
overlap with the noisy input, word coverage, the human-evaluation tally and
micro/macro/weighted precision-recall-F1.

Corpus-level overlap scores are means of sentence-level scores.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import Counter
from operator import add, mul
from typing import NamedTuple

from . import textcore
from .errors import DimensionMismatch, InsufficientData, Malformed

EPSILON = 1e-9
# BLEU-4, and beta, the composite score's weight on the semantic term.
BLEU_MAX_N = 4
COMPOSITE_BETA = 4.0


class EmbeddingTable(NamedTuple):
    """V rows of `dim` float64 components in one flat array, rows in file order, and the
    {word: row} index; row r is ``values[r * dim : (r + 1) * dim]``."""

    values: array
    dim: int
    index: dict[str, int]


def _numpy_sum(values) -> float:
    """numpy's float64 `add.reduce` of the floats, bit for bit: 0.0 plus their pairwise sum.

    Never the built-in `sum`, which is compensated from Python 3.12 on, nor `math.fsum`:
    either rounds otherwise. Index ranges, not slices, carry the recursion.
    """
    return 0.0 + _pairwise_sum(values, 0, len(values))


def _pairwise_sum(values, lo: int, n: int) -> float:
    """numpy's `pairwise_sum` of values[lo : lo + n]: in order below 8 values; up to 128,
    eight lanes seeded with the first 8 and fed in steps of 8, combined as a tree, then
    the rest in order; else two halves split at a multiple of 8."""
    hi = lo + n
    if n < 8:
        return functools.reduce(add, values[lo:hi], 0.0)
    if n <= 128:
        end = hi - n % 8
        lanes = values[lo : lo + 8]
        for start in range(lo + 8, end, 8):  # lane j adds values[start + j], lazily
            lanes = map(add, lanes, values[start : start + 8])
        r0, r1, r2, r3, r4, r5, r6, r7 = lanes
        return functools.reduce(add, values[end:hi], ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)


def _numpy_mean(values) -> float:
    """`np.mean` of a non-empty list of floats, bit for bit."""
    return _numpy_sum(values) / len(values)


def ngram_table(tokens: list[str]) -> tuple[Counter, ...]:
    """The n-gram Counters of a token list for orders 1..BLEU_MAX_N, which `bleu` scores."""
    return tuple(Counter(zip(*[tokens[i:] for i in range(n)])) for n in range(1, BLEU_MAX_N + 1))


def bleu(cand: tuple[Counter, ...], ref: tuple[Counter, ...]) -> float:
    """Geometric mean of clipped 1..BLEU_MAX_N-gram precisions times the brevity penalty.

    Both sides are `ngram_table`s. Zero precisions are floored at a tiny
    epsilon instead of zeroing the whole score; an empty candidate scores 0.
    """
    ref_length = ref[0].total()
    if not ref_length:
        raise InsufficientData("BLEU needs a non-empty reference")
    cand_length = cand[0].total()
    if not cand_length:
        return 0.0
    log_sum = 0.0
    orders = min(BLEU_MAX_N, cand_length)
    for cand_counts, ref_counts in zip(cand[:orders], ref):
        # `.get`, not `[]`: Counter's `__missing__` is a Python call per n-gram the reference lacks.
        clipped = sum(min(count, ref_counts.get(gram, 0)) for gram, count in cand_counts.items())
        log_sum += math.log(max(clipped / cand_counts.total(), EPSILON))
    brevity = math.exp(min(0.0, 1.0 - ref_length / cand_length))
    return brevity * math.exp(log_sum / orders)


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Bit-parallel LCS (Allison-Dix, Hyyro).

    After each x of `a`, bit j of `v` is 0 where the LCS with b[: j + 1] is one
    longer than with b[:j], so the zero bits of `v` count the LCS.
    """
    positions: dict[str, int] = {}
    for j, y in enumerate(b):
        positions[y] = positions.get(y, 0) | (1 << j)
    all_ones = (1 << len(b)) - 1
    v = all_ones
    for x in a:
        u = v & positions.get(x, 0)
        v = ((v + u) | (v - u)) & all_ones
    return len(b) - v.bit_count()


def rouge_l(cand: list[str], ref: list[str]) -> float:
    """LCS-based F-score over word tokens."""
    lcs = _lcs_length(cand, ref)
    precision = lcs / len(cand) if cand else 0.0
    recall = lcs / len(ref) if ref else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def word_coverage(tokens: list[str], vocab) -> float:
    """Percentage of word tokens found in the vocabulary; punctuation excluded."""
    words = [t for t in tokens if not textcore.is_punct_token(t)]
    if not words:
        raise InsufficientData("word coverage needs at least one word token")
    known = sum(1 for t in words if t in vocab)
    return 100.0 * known / len(words)


def mean_vector(tokens: list[str], embeddings: EmbeddingTable) -> list[float] | None:
    """Mean of the embedding rows of the tokens in the index; None when none is.

    The bits of numpy's `np.mean(matrix[rows], axis=0)`: each component starts at 0.0 and
    adds the rows in order. A one-column table is the exception, as there numpy reduces
    the column with its pairwise sum.
    """
    values, dim, index = embeddings
    starts = [index[t] * dim for t in tokens if t in index]
    if not starts:
        return None
    if dim == 1:
        return [_numpy_mean([values[start] for start in starts])]
    total = [0.0] * dim
    for start in starts:
        total = list(map(add, total, values[start : start + dim]))
    count = len(starts)
    return [component / count for component in total]


def sentence_similarity(cand, ref) -> float:
    """Cosine of two `mean_vector`s; 0 when a side is None, having no embedded word.

    Each dot product is numpy's pairwise sum of the products, as ``(a * b).sum()`` gave.
    """
    if cand is None or ref is None:
        return 0.0
    norm = math.sqrt(_numpy_sum(list(map(mul, cand, cand)))) * math.sqrt(
        _numpy_sum(list(map(mul, ref, ref)))
    )
    if norm == 0.0:
        return 0.0
    return _numpy_sum(list(map(mul, cand, ref))) / norm


def composite_similarity(semantic: float, surface_bleu: float) -> float:
    """Weighted harmonic mean of semantic similarity and (1 - surface overlap).

    High surface overlap with the noisy input drags the score down even when
    the semantic term is perfect. Inputs are clamped away from the
    singularities.
    """
    semantic = min(max(semantic, EPSILON), 1.0)
    inverse_overlap = max(1.0 - surface_bleu, EPSILON)
    return (COMPOSITE_BETA + 1.0) / (COMPOSITE_BETA / semantic + 1.0 / inverse_overlap)


def human_eval_score(accurate: int, total: int) -> float:
    """Percentage of outputs judged accurate out of the evaluated total."""
    if total <= 0 or not 0 <= accurate <= total:
        raise Malformed(f"need 0 <= accurate <= total with total > 0, got {accurate}/{total}")
    return 100.0 * accurate / total


def _prf_one(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def prf_report(gold, predicted, class_names) -> dict:
    """P/R/F1 micro, macro, support-weighted and per class; 0/0 is 0, scores rounded to 6 places.

    Each row is a label bitmask whose bit j is class_names[j]: a multi-label
    row may set any bits, a multiclass row sets exactly one.
    """
    if len(gold) != len(predicted):
        raise DimensionMismatch(f"{len(gold)} gold rows vs {len(predicted)} predictions")
    bits = [1 << j for j in range(len(class_names))]
    tp, fp, fn = [0] * len(bits), [0] * len(bits), [0] * len(bits)
    for g, p in zip(gold, predicted):
        for j, bit in enumerate(bits):
            if p & bit:
                if g & bit:
                    tp[j] += 1
                else:
                    fp[j] += 1
            elif g & bit:
                fn[j] += 1

    def rounded(scores):
        return {name: round(v, 6) for name, v in zip(("precision", "recall", "f1"), scores)}

    per_class = [_prf_one(t, f, n) for t, f, n in zip(tp, fp, fn)]
    support = [t + n for t, n in zip(tp, fn)]
    total = sum(support)
    micro = _prf_one(sum(tp), sum(fp), sum(fn))
    macro = [sum(scores[i] for scores in per_class) / len(per_class) for i in range(3)]
    weighted = [
        sum(s * scores[i] for s, scores in zip(support, per_class)) / total if total else 0.0
        for i in range(3)
    ]
    return {
        "micro": rounded(micro),
        "macro": rounded(macro),
        "weighted": rounded(weighted),
        "per_class": {name: rounded(scores) for name, scores in zip(class_names, per_class)},
    }


def evaluate_reduction(
    outputs: dict[str, list[str]],
    ground_truth: list[str],
    *,
    inputs: list[str] | None = None,
    embeddings: EmbeddingTable | None = None,
    coverage_vocab=None,
    human_tallies: dict[str, tuple[int, int]] | None = None,
) -> list[dict]:
    """Score each method's outputs against the manually corrected references.

    ``inputs`` are the original noisy sentences (needed for the composite
    self-overlap penalty); ``embeddings`` is the `EmbeddingTable` of
    `dataio.load_embeddings`; ``coverage_vocab`` falls back to the embedding
    words when unset; ``human_tallies`` maps method -> (accurate, total).
    Returns the `eval-reduction` record of each method, sorted by name. Each
    score is the mean over the rows, which must not be none.

    One pass over the rows: each reference and input is tokenized, counted
    and averaged once, and each output once, for every method.
    """
    if inputs is not None and len(inputs) != len(ground_truth):
        raise DimensionMismatch(f"{len(inputs)} inputs vs {len(ground_truth)} references")
    methods = sorted(outputs)
    for method in methods:
        count = len(outputs[method])
        if count != len(ground_truth):
            raise DimensionMismatch(
                f"method {method}: {count} outputs vs {len(ground_truth)} references"
            )
    if not ground_truth:
        raise InsufficientData("evaluation needs at least one reference row")
    composite = embeddings is not None and inputs is not None
    # Per method: BLEU, ROUGE-L, semantic and composite scores, then every output token,
    # for word coverage. Interned, each distinct token string is held once for all methods.
    scores = {method: ([], [], [], [], []) for method in methods}
    interned: dict[str, str] = {}
    for i, truth in enumerate(ground_truth):
        truth_tokens = textcore.tokenize(truth)
        truth_table = ngram_table(truth_tokens)
        truth_mean = mean_vector(truth_tokens, embeddings) if embeddings is not None else None
        input_table = ngram_table(textcore.tokenize(inputs[i])) if composite else None
        for method in methods:
            bleu_scores, rouge_scores, semantic_scores, composite_scores, all_tokens = scores[method]
            tokens = textcore.tokenize(outputs[method][i])
            out_tokens = [interned.setdefault(t, t) for t in tokens]
            all_tokens.extend(out_tokens)
            out_table = ngram_table(out_tokens)
            bleu_scores.append(bleu(out_table, truth_table))
            rouge_scores.append(rouge_l(out_tokens, truth_tokens))
            if embeddings is not None:
                # An output equal to its reference, a method's aim, has the reference's mean.
                out_mean = truth_mean if out_tokens == truth_tokens else mean_vector(out_tokens, embeddings)
                semantic = sentence_similarity(out_mean, truth_mean)
                semantic_scores.append(semantic)
                if composite:
                    surface = bleu(out_table, input_table)
                    composite_scores.append(composite_similarity(semantic, surface))

    vocab = coverage_vocab
    if vocab is None and embeddings is not None:
        vocab = embeddings.index
    human_tallies = human_tallies or {}
    reports = []
    for method in methods:
        bleu_scores, rouge_scores, semantic_scores, composite_scores, all_tokens = scores[method]
        coverage = None
        if vocab is not None and any(not textcore.is_punct_token(t) for t in all_tokens):
            coverage = word_coverage(all_tokens, vocab)
        human = None
        if method in human_tallies:
            accurate, total = human_tallies[method]
            human = human_eval_score(accurate, total)
        reports.append({
            "method": method,
            "bleu": _numpy_mean(bleu_scores),
            "rouge_l": _numpy_mean(rouge_scores),
            "word_coverage": coverage,
            "embedding_similarity": _numpy_mean(semantic_scores) if semantic_scores else None,
            "composite": _numpy_mean(composite_scores) if composite_scores else None,
            "human_eval": human,
        })
    return reports
