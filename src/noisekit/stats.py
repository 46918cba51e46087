"""Corpus statistics: deduplication, per-noise-class counts, text lengths,
noise-label correlations. Emits JSON-friendly structures plus plot-ready TSV.
"""

from __future__ import annotations

from collections import Counter

from . import textcore
from ._lazy import np
from .errors import InsufficientData
from .textcore import NOISE_CLASSES, Document

# Width in characters of each bin of the text-length histogram.
LENGTH_BIN_WIDTH = 10


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
    return sum(1 for t in textcore.tokenize(text) if not textcore.is_punct_token(t))


def class_stats(labeled) -> dict[str, dict]:
    """Instance count and mean word-token count per noise class of noise-labeled documents."""
    if not labeled:
        raise InsufficientData("no document carries noise labels")
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


_CORRELATION_NEEDS = "label correlation needs at least 2 labeled documents"


def label_correlation(labeled) -> np.ndarray:
    """Pearson correlation between the ten 0/1 noise indicator columns of noise-labeled documents.

    Diagonal is 1 by definition; a constant column yields 0 against every
    other column.
    """
    if len(labeled) < 2:
        raise InsufficientData(_CORRELATION_NEEDS)
    masks = np.array([d.noise.mask for d in labeled])
    x = ((masks[:, None] >> np.arange(len(NOISE_CLASSES))) & 1).astype(np.float64)
    centered = x - x.mean(axis=0)
    std = centered.std(axis=0)
    constant = std == 0.0
    z = centered / np.where(constant, 1.0, std)
    # einsum adds the rows' outer products in row order; BLAS ``z.T @ z`` picks its own order.
    corr = np.einsum("ij,ik->jk", z, z) / len(labeled)
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
    lengths = [len(d.text) for d in documents]
    bins = Counter(length // LENGTH_BIN_WIDTH * LENGTH_BIN_WIDTH for length in lengths)
    summary = {
        "documents": len(documents),
        "sentiment_counts": sentiment_counts,
        "sentiment_unlabeled": unlabeled_sentiment,
        "length": {
            "min": min(lengths, default=0),
            "max": max(lengths, default=0),
            "mean": sum(lengths) / len(lengths) if lengths else 0.0,
            "bin_width": LENGTH_BIN_WIDTH,
            "histogram": [[start, count] for start, count in sorted(bins.items())],
        },
    }
    labeled = [d for d in documents if d.noise is not None]
    if labeled:
        summary["noise_classes"] = class_stats(labeled)
    if len(labeled) >= 2:
        summary["label_correlation"] = {
            "classes": list(NOISE_CLASSES),
            "matrix": [[round(float(v), 6) for v in row] for row in label_correlation(labeled)],
        }
    return summary
