import random

import numpy as np
import pytest

from noisekit.agreement import RatingMatrix, fleiss_kappa, kappa_noise_labels, trustworthiness
from noisekit.errors import LengthMismatch, MalformedMatrix
from noisekit.textcore import NoiseLabelSet


class TestRatingMatrix:
    def test_valid(self):
        m = RatingMatrix(np.array([[3, 1], [2, 2]]))
        assert m.raters_per_item == 4
        assert m.n_items == 2

    def test_unequal_row_sums_rejected(self):
        with pytest.raises(MalformedMatrix):
            RatingMatrix(np.array([[3, 1], [2, 1]]))

    def test_single_rater_rejected(self):
        with pytest.raises(MalformedMatrix):
            RatingMatrix(np.array([[1, 0], [0, 1]]))

    def test_negative_counts_rejected(self):
        with pytest.raises(MalformedMatrix):
            RatingMatrix(np.array([[5, -1], [2, 2]]))

    def test_row_total_beyond_int64_rejected_without_wrapping(self):
        # Each row's int64 sum would wrap to -2**63; the exact total is 2**63.
        with pytest.raises(MalformedMatrix, match="64-bit") as excinfo:
            RatingMatrix(np.array([[2**62, 2**62]] * 2))
        assert excinfo.value.item == 0

    def test_one_item_rejected(self):
        with pytest.raises(MalformedMatrix, match="need at least 2 items") as excinfo:
            RatingMatrix(np.array([[2, 2]]))
        assert excinfo.value.item is None

    @pytest.mark.parametrize(
        "counts",
        [np.array([[1.5, 0.5], [1.0, 1.0]]), np.array([[True, True], [True, True]])],
        ids=["float", "bool"],
    )
    def test_non_integer_counts_rejected(self, counts):
        with pytest.raises(MalformedMatrix, match="rating counts must be integers"):
            RatingMatrix(counts)

    @pytest.mark.parametrize(
        "rows, item",
        [([[2, 2], [3, 1], [4, -1]], 2), ([[2, 2], [3, 1], [2, 1]], 2), ([[1, 0], [0, 1]], 0)],
        ids=["negative", "unequal-totals", "one-rater"],
    )
    def test_error_names_the_first_offending_item(self, rows, item):
        with pytest.raises(MalformedMatrix) as excinfo:
            RatingMatrix(np.array(rows))
        assert excinfo.value.item == item


class TestFleissKappa:
    def test_unanimous_agreement(self):
        m = RatingMatrix(np.array([[4, 0], [0, 4], [4, 0]]))
        assert fleiss_kappa(m) == pytest.approx(1.0)

    def test_total_expected_agreement_returns_one(self):
        m = RatingMatrix(np.array([[4, 0], [4, 0]]))
        assert fleiss_kappa(m) == 1.0

    def test_even_split_hand_case(self):
        # 2 categories, 4 raters, every item split 2/2:
        # P_bar = 1/3, P_e = 1/2, kappa = -1/3.
        m = RatingMatrix(np.array([[2, 2]] * 8))
        assert fleiss_kappa(m) == pytest.approx(-1 / 3, abs=1e-9)

    def test_kappa_at_most_one_fuzz(self):
        rng = np.random.default_rng(103)
        for _ in range(300):
            items = rng.integers(2, 10)
            categories = rng.integers(2, 5)
            raters = int(rng.integers(2, 7))
            counts = np.zeros((items, categories), dtype=np.int64)
            for i in range(items):
                for _ in range(raters):
                    counts[i, rng.integers(0, categories)] += 1
            assert fleiss_kappa(RatingMatrix(counts)) <= 1.0 + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(107)
        counts = np.array([[3, 1, 0], [1, 1, 2], [0, 4, 0], [2, 2, 0]])
        base = fleiss_kappa(RatingMatrix(counts))
        for _ in range(10):
            item_perm = rng.permutation(counts.shape[0])
            cat_perm = rng.permutation(counts.shape[1])
            shuffled = counts[item_perm][:, cat_perm]
            assert fleiss_kappa(RatingMatrix(shuffled)) == pytest.approx(base, abs=1e-12)

    def test_needs_two_items(self):
        with pytest.raises(MalformedMatrix):
            fleiss_kappa(RatingMatrix(np.array([[2, 2]])))


class TestTrustworthiness:
    def bits(self, *values):
        return [NoiseLabelSet.from_bits(v) for v in values]

    def test_all_matching(self):
        gold = self.bits("1000000000", "0100000000")
        assert trustworthiness(gold, list(gold)) == (100.0, True)

    def test_boundary_inclusive(self):
        gold = self.bits(*["1000000000"] * 10)
        annotator = list(gold)
        annotator[0] = NoiseLabelSet.from_bits("0100000000")
        score, passed = trustworthiness(annotator, gold)
        assert score == 90.0 and passed

    def test_below_threshold(self):
        gold = self.bits(*["1000000000"] * 10)
        annotator = list(gold)
        annotator[0] = annotator[1] = NoiseLabelSet.from_bits("0100000000")
        score, passed = trustworthiness(annotator, gold)
        assert score == 80.0 and not passed

    def test_monotone_in_matches(self):
        gold = self.bits(*["1000000000"] * 10)
        wrong = NoiseLabelSet.from_bits("0000000001")
        previous = -1.0
        for matches in range(11):
            annotator = [gold[i] if i < matches else wrong for i in range(10)]
            score, _ = trustworthiness(annotator, gold)
            assert score > previous
            previous = score

    def test_exact_match_is_set_equality(self):
        gold = self.bits("1100000000")
        near = self.bits("1000000000")  # subset, not equal
        score, _ = trustworthiness(near, gold)
        assert score == 0.0

    def test_jaccard_mode_gives_partial_credit(self):
        gold = self.bits("1100000000")
        near = self.bits("1000000000")
        score, _ = trustworthiness(near, gold, jaccard=True)
        assert score == pytest.approx(50.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            trustworthiness(self.bits("1000000000"), [])


class TestKappaNoiseLabels:
    def test_perfect_agreement(self):
        labels = [NoiseLabelSet.from_bits("1000000000"), NoiseLabelSet.from_bits("0000100000")]
        per_category, pooled = kappa_noise_labels([labels, list(labels), list(labels)])
        assert pooled == pytest.approx(1.0)
        assert all(v == pytest.approx(1.0) for v in per_category.values())

    def test_mismatched_item_counts(self):
        one = [NoiseLabelSet(1)]
        with pytest.raises(LengthMismatch):
            kappa_noise_labels([one, one * 2])
