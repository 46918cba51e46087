"""Evaluation machinery for noise reduction and classification.

Text-overlap metrics (BLEU, ROUGE-L), embedding-cosine sentence similarity,
a composite score that rewards semantic similarity while penalizing surface
overlap with the noisy input, word coverage, the human-evaluation tally and
micro/macro/weighted precision-recall-F1.

Corpus-level overlap scores are means of sentence-level scores.
"""

from __future__ import annotations

import math
from collections import Counter

from . import textcore
from ._lazy import np
from .errors import DimensionMismatch, InsufficientData, InvalidCounts

EPSILON = 1e-9
# BLEU-4, and beta, the composite score's weight on the semantic term.
BLEU_MAX_N = 4
COMPOSITE_BETA = 4.0


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(cand: list[str], ref: list[str]) -> float:
    """Geometric mean of clipped 1..BLEU_MAX_N-gram precisions times the brevity penalty.

    Zero precisions are floored at a tiny epsilon instead of zeroing the
    whole score; an empty candidate scores 0.
    """
    if not ref:
        raise InsufficientData("BLEU needs a non-empty reference")
    if not cand:
        return 0.0
    log_sum = 0.0
    orders = range(1, min(BLEU_MAX_N, len(cand)) + 1)
    for n in orders:
        cand_counts = _ngram_counts(cand, n)
        ref_counts = _ngram_counts(ref, n)
        clipped = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
        total = len(cand) - n + 1
        precision = clipped / total
        log_sum += math.log(max(precision, EPSILON))
    brevity = math.exp(min(0.0, 1.0 - len(ref) / len(cand)))
    return brevity * math.exp(log_sum / len(orders))


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


def sentence_similarity(cand: list[str], ref: list[str], vectors: dict[str, np.ndarray]) -> float:
    """Cosine of mean {word: vector} vectors, skipping OOV words; 0 when a side is fully OOV."""
    sides = []
    for tokens in (cand, ref):
        vecs = [vectors[t] for t in tokens if t in vectors]
        if not vecs:
            return 0.0
        sides.append(np.mean(vecs, axis=0))
    a, b = sides
    # numpy's pairwise sums, not BLAS ddot, whose order depends on the kernel.
    norm = math.sqrt((a * a).sum()) * math.sqrt((b * b).sum())
    if norm == 0.0:
        return 0.0
    return float((a * b).sum()) / norm


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
        raise InvalidCounts(f"need 0 <= accurate <= total with total > 0, got {accurate}/{total}")
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


def _token_lists(texts: list[str]) -> list[list[str]]:
    return [textcore.tokenize(t).tokens for t in texts]


def evaluate_reduction(
    outputs: dict[str, list[str]],
    ground_truth: list[str],
    *,
    inputs: list[str] | None = None,
    embeddings: dict[str, np.ndarray] | None = None,
    coverage_vocab=None,
    human_tallies: dict[str, tuple[int, int]] | None = None,
) -> list[dict]:
    """Score each method's outputs against the manually corrected references.

    ``inputs`` are the original noisy sentences (needed for the composite
    self-overlap penalty); ``coverage_vocab`` falls back to the embedding
    words when unset; ``human_tallies`` maps method -> (accurate, total).
    Returns the `eval-reduction` record of each method, sorted by name.
    """
    truth_tokens = _token_lists(ground_truth)
    input_tokens = None
    if inputs is not None:
        if len(inputs) != len(ground_truth):
            raise DimensionMismatch(f"{len(inputs)} inputs vs {len(ground_truth)} references")
        input_tokens = _token_lists(inputs)
    vocab = coverage_vocab if coverage_vocab is not None else embeddings
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
        for i, out_tokens in enumerate(_token_lists(sentences)):
            all_tokens.extend(out_tokens)
            bleu_scores.append(bleu(out_tokens, truth_tokens[i]))
            rouge_scores.append(rouge_l(out_tokens, truth_tokens[i]))
            if embeddings is not None:
                semantic = sentence_similarity(out_tokens, truth_tokens[i], embeddings)
                semantic_scores.append(semantic)
                if input_tokens is not None:
                    surface = bleu(out_tokens, input_tokens[i])
                    composite_scores.append(composite_similarity(semantic, surface))
        coverage = None
        if vocab is not None and any(not textcore.is_punct_token(t) for t in all_tokens):
            coverage = word_coverage(all_tokens, vocab)
        human = None
        if method in human_tallies:
            accurate, total = human_tallies[method]
            human = human_eval_score(accurate, total)
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
