"""Corpus statistics: deduplication, per-noise-class counts, text lengths,
noise-label correlations. Emits JSON-friendly structures plus plot-ready TSV.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from . import textcore
from ._lazy import np
from .errors import InsufficientData, Malformed, MissingLabels
from .textcore import NOISE_CLASSES, Document


def dedupe(documents) -> tuple[list[Document], int]:
    """Drop repeated texts, keeping first occurrences in order.

    Texts are compared as loaded: a corpus loaded with normalization is
    deduplicated on normalized text, one loaded raw on raw text.
    """
    seen = set()
    kept = []
    for doc in documents:
        if doc.text in seen:
            continue
        seen.add(doc.text)
        kept.append(doc)
    return kept, len(documents) - len(kept)


def _word_count(text: str) -> int:
    return sum(1 for t in textcore.tokenize(text).tokens if not textcore.is_punct_token(t))


def class_stats(documents) -> dict[str, dict]:
    """Instance count and mean word-token count per noise class."""
    labeled = [d for d in documents if d.noise is not None]
    if not labeled:
        raise MissingLabels("no document carries noise labels")
    word_counts = [_word_count(d.text) for d in labeled]
    out = {}
    for j, name in enumerate(NOISE_CLASSES):
        words = [n for d, n in zip(labeled, word_counts) if d.noise.has(j)]
        out[name] = {
            "count": len(words),
            "mean_words": sum(words) / len(words) if words else 0.0,
            "defined": bool(words),
        }
    return out


@dataclass
class LengthStats:
    bins: list[tuple[int, int]]  # (bin start, count), bin width fixed
    bin_width: int
    min: int
    max: int
    mean: float


def length_histogram(documents, bin_width: int = 10) -> LengthStats:
    """Character-length histogram plus min/max/mean over the corpus."""
    if bin_width < 1:
        raise Malformed(f"bin width must be >= 1, got {bin_width}")
    lengths = [len(d.text) for d in documents]
    if not lengths:
        return LengthStats(bins=[], bin_width=bin_width, min=0, max=0, mean=0.0)
    counts: dict[int, int] = {}
    for length in lengths:
        start = (length // bin_width) * bin_width
        counts[start] = counts.get(start, 0) + 1
    return LengthStats(
        bins=sorted(counts.items()),
        bin_width=bin_width,
        min=min(lengths),
        max=max(lengths),
        mean=sum(lengths) / len(lengths),
    )


_CORRELATION_NEEDS = "label correlation needs at least 2 labeled documents"


def label_correlation(documents) -> np.ndarray:
    """Pearson correlation between the ten 0/1 noise indicator columns.

    Diagonal is 1 by definition; a constant column yields 0 against every
    other column, with a warning.
    """
    labeled = [d for d in documents if d.noise is not None]
    if len(labeled) < 2:
        raise InsufficientData(_CORRELATION_NEEDS)
    k = len(NOISE_CLASSES)
    x = np.zeros((len(labeled), k), dtype=np.float64)
    for row, doc in enumerate(labeled):
        for j in range(k):
            if doc.noise.has(j):
                x[row, j] = 1.0
    centered = x - x.mean(axis=0)
    std = centered.std(axis=0)
    constant = std == 0.0
    if constant.any():
        names = [NOISE_CLASSES[j] for j in np.nonzero(constant)[0]]
        warnings.warn(f"constant noise indicator column(s): {', '.join(names)}")
    safe_std = np.where(constant, 1.0, std)
    z = centered / safe_std
    corr = (z.T @ z) / len(labeled)
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


def histogram_tsv(summary: dict) -> str:
    """The length histogram of a `corpus_summary` as bin<TAB>count lines, plot-ready."""
    return "".join(f"{start}\t{count}\n" for start, count in summary["length"]["histogram"])


def correlation_tsv(summary: dict) -> str:
    """The label correlation of a `corpus_summary` as rowlabel<TAB>collabel<TAB>value lines.

    The summary's values are rounded to 6 places, which ``.6f`` prints unchanged.
    """
    if "label_correlation" not in summary:
        raise InsufficientData(_CORRELATION_NEEDS)
    matrix = summary["label_correlation"]["matrix"]
    lines = []
    for i, row_name in enumerate(NOISE_CLASSES):
        for j, col_name in enumerate(NOISE_CLASSES):
            lines.append(f"{row_name}\t{col_name}\t{matrix[i][j]:.6f}\n")
    return "".join(lines)


def corpus_summary(documents) -> dict:
    """One JSON-friendly bundle of all the dataset statistics."""
    sentiment_counts = {label.label: 0 for label in textcore.SentimentLabel}
    unlabeled_sentiment = 0
    for doc in documents:
        if doc.sentiment is None:
            unlabeled_sentiment += 1
        else:
            sentiment_counts[doc.sentiment.label] += 1
    lengths = length_histogram(documents)
    summary = {
        "documents": len(documents),
        "sentiment_counts": sentiment_counts,
        "sentiment_unlabeled": unlabeled_sentiment,
        "length": {
            "min": lengths.min,
            "max": lengths.max,
            "mean": lengths.mean,
            "bin_width": lengths.bin_width,
            "histogram": [list(pair) for pair in lengths.bins],
        },
    }
    if any(d.noise is not None for d in documents):
        summary["noise_classes"] = class_stats(documents)
        labeled = sum(1 for d in documents if d.noise is not None)
        if labeled >= 2:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                matrix = label_correlation(documents)
            summary["label_correlation"] = {
                "classes": list(NOISE_CLASSES),
                "matrix": [[round(float(v), 6) for v in row] for row in matrix],
            }
    return summary
