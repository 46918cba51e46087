"""Annotation-quality statistics: Fleiss' kappa and trustworthiness screening."""

from __future__ import annotations

from dataclasses import dataclass

from ._lazy import np
from .errors import LengthMismatch, MalformedMatrix
from .textcore import NOISE_CLASSES, NoiseLabelSet


INT64_MAX = (1 << 63) - 1


@dataclass
class RatingMatrix:
    """items x categories count matrix with a fixed number of raters per item."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 2 or counts.size == 0:
            raise MalformedMatrix("rating matrix must be 2-dimensional and non-empty")
        if not np.issubdtype(counts.dtype, np.integer):
            raise MalformedMatrix(f"rating counts must be integers, got dtype {counts.dtype}")
        if counts.shape[0] < 2:
            raise MalformedMatrix("need at least 2 items")
        totals = []
        for item, row in enumerate(counts.tolist()):
            totals.append(sum(row))  # a Python int: an int64 sum would wrap
            if min(row) < 0:
                reason = "rating counts must be non-negative"
            elif totals[-1] > INT64_MAX:
                reason = "an item's rating total must fit in a 64-bit integer"
            elif totals[-1] != totals[0]:
                reason = "every item must have the same number of ratings"
            elif totals[0] < 2:
                reason = "need at least 2 raters per item"
            else:
                continue
            error = MalformedMatrix(reason)
            error.item = item
            raise error
        self.counts = counts

    @property
    def raters_per_item(self) -> int:
        return int(self.counts[0].sum())

    @property
    def n_items(self) -> int:
        return self.counts.shape[0]


def fleiss_kappa(matrix: RatingMatrix) -> float:
    """Chance-corrected agreement for a fixed rater count per item.

    Perfect scores under total expected agreement (one category holds every
    rating) return exactly 1.
    """
    # In float64, squares and column totals of int64 counts cannot wrap.
    counts = matrix.counts.astype(np.float64)
    n = float(matrix.raters_per_item)
    per_item = ((counts * counts).sum(axis=1) - n) / (n * (n - 1))
    observed = float(per_item.mean())
    proportions = counts.sum(axis=0) / counts.sum()
    expected = float(np.dot(proportions, proportions))
    if expected == 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)


def kappa_noise_labels(annotations: list[list[NoiseLabelSet]]):
    """Per-category kappa over multi-annotator noise labels, plus a pooled score.

    ``annotations[a][i]`` is annotator a's label set for item i. Each noise
    category is scored as its own two-category (set/unset) rating matrix; the
    pooled score stacks all ten matrices.
    """
    if not annotations or not annotations[0]:
        raise MalformedMatrix("need at least one annotator and one item")
    n_items = len(annotations[0])
    if any(len(per_annotator) != n_items for per_annotator in annotations):
        raise LengthMismatch("annotators labeled different numbers of items")
    n_raters = len(annotations)
    per_category = {}
    stacked = []
    for j, name in enumerate(NOISE_CLASSES):
        rows = []
        for i in range(n_items):
            set_count = sum(1 for per_annotator in annotations if per_annotator[i].has(j))
            rows.append([set_count, n_raters - set_count])
        block = np.asarray(rows, dtype=np.int64)
        stacked.append(block)
        per_category[name] = fleiss_kappa(RatingMatrix(block))
    pooled = fleiss_kappa(RatingMatrix(np.vstack(stacked)))
    return per_category, pooled


def trustworthiness(
    annotator: list[NoiseLabelSet],
    control_gold: list[NoiseLabelSet],
    threshold: float = 90.0,
    jaccard: bool = False,
) -> tuple[float, bool]:
    """Score an annotator against hidden control samples.

    By default an item earns credit when its label set equals gold exactly;
    with ``jaccard`` it earns its per-item label overlap instead. Passing is
    inclusive at the threshold.
    """
    if len(annotator) != len(control_gold):
        raise LengthMismatch(
            f"{len(annotator)} annotator labels vs {len(control_gold)} gold labels"
        )
    if not annotator:
        raise LengthMismatch("no control samples")
    if jaccard:
        credit = 0.0
        for a, g in zip(annotator, control_gold):
            union = a.mask | g.mask
            if union == 0:
                credit += 1.0
            else:
                credit += bin(a.mask & g.mask).count("1") / bin(union).count("1")
    else:
        credit = sum(1.0 for a, g in zip(annotator, control_gold) if a == g)
    score = 100.0 * credit / len(annotator)
    return score, score >= threshold
