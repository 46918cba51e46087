import random
import warnings

import numpy as np
import pytest

from noisekit.errors import InsufficientData
from noisekit.stats import (
    class_stats,
    corpus_summary,
    correlation_tsv,
    dedupe,
    histogram_tsv,
    label_correlation,
)
from noisekit.textcore import NOISE_CLASSES, normalize

from conftest import make_docs


class TestDedupe:
    def test_no_duplicates(self):
        docs = make_docs(["a", "b", "c"])
        kept, removed = dedupe(docs)
        assert removed == 0 and len(kept) == 3

    def test_keeps_first_occurrence(self):
        docs = make_docs(["x", "x", "y"])
        kept, removed = dedupe(docs)
        assert removed == 1
        assert [d.id for d in kept] == ["d0", "d2"]

    def test_normalized_mode_catches_whitespace_variants(self):
        texts = ["a b", "a  b"]
        kept_norm, removed_norm = dedupe(make_docs([normalize(t) for t in texts]))
        assert removed_norm == 1
        kept_raw, removed_raw = dedupe(make_docs(texts))
        assert removed_raw == 0 and len(kept_raw) == 2

    def test_idempotent(self):
        rng = random.Random(109)
        texts = [rng.choice(["a", "b", "c d", "e"]) for _ in range(40)]
        once, removed = dedupe(make_docs(texts))
        twice, removed_again = dedupe(once)
        assert removed_again == 0
        assert [d.id for d in twice] == [d.id for d in once]


class TestClassStats:
    def test_single_instance_single_flag(self):
        docs = make_docs(["three word text"], noises=["1000000000"])
        stats = class_stats(docs)
        assert stats["local_word"] == {"count": 1, "mean_words": 3.0, "defined": True}

    def test_empty_class_reported_as_zero_with_flag(self):
        docs = make_docs(["one two"], noises=["1000000000"])
        stats = class_stats(docs)
        assert stats["others"] == {"count": 0, "mean_words": 0.0, "defined": False}

    def test_punctuation_not_counted_as_words(self):
        docs = make_docs(["a b , c !"], noises=["0000100000"])
        assert class_stats(docs)["mixed_language"]["mean_words"] == 3.0

    def test_missing_labels(self):
        with pytest.raises(InsufficientData, match="^no document carries noise labels$"):
            class_stats([])


class TestLengthHistogram:
    def test_single_text(self):
        length = corpus_summary(make_docs(["abcde"]))["length"]
        assert length == {"min": 5, "max": 5, "mean": 5.0, "bin_width": 10, "histogram": [[0, 1]]}

    def test_bins_sum_to_corpus_size_fuzz(self):
        rng = random.Random(113)
        for _ in range(50):
            texts = ["x" * rng.randint(1, 120) for _ in range(rng.randint(1, 60))]
            histogram = corpus_summary(make_docs(texts))["length"]["histogram"]
            assert sum(count for _, count in histogram) == len(texts)
            assert all(start % 10 == 0 for start, _ in histogram)

    def test_empty_corpus(self):
        length = corpus_summary([])["length"]
        assert length["histogram"] == [] and length["mean"] == 0.0

    def test_tsv_emit(self):
        summary = corpus_summary(make_docs(["abc", "abcdefghijkl"]))
        assert histogram_tsv(summary) == "0\t1\n10\t1\n"


class TestLabelCorrelation:
    def test_perfect_anticorrelation(self):
        # local_word on first two docs, word_misuse on last two.
        noises = ["1000000001", "1000000001", "0100000001", "0100000001"]
        docs = make_docs(["a", "b", "c", "d"], noises=noises)
        matrix = label_correlation(docs)
        assert matrix[0, 1] == pytest.approx(-1.0)

    def test_diagonal_is_one(self):
        noises = ["1000000000", "0100000000", "1100000000"]
        docs = make_docs(["a", "b", "c"], noises=noises)
        matrix = label_correlation(docs)
        assert np.allclose(np.diag(matrix), 1.0)

    def test_constant_column_zeroes_without_warning(self):
        noises = ["1000000001", "0100000001"]
        docs = make_docs(["a", "b"], noises=noises)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = label_correlation(docs)
        j = NOISE_CLASSES.index("others")
        assert matrix[j, 0] == 0.0 and matrix[0, j] == 0.0
        assert matrix[j, j] == 1.0

    def test_symmetric_and_bounded_fuzz(self):
        rng = random.Random(127)
        for _ in range(30):
            noises = []
            for _ in range(rng.randint(2, 30)):
                bits = "".join(rng.choice("01") for _ in range(10))
                if "1" not in bits:
                    bits = "1" + bits[1:]
                noises.append(bits)
            docs = make_docs(["t"] * len(noises), noises=noises)
            matrix = label_correlation(docs)
            assert np.allclose(matrix, matrix.T)
            assert np.all(matrix <= 1.0 + 1e-12) and np.all(matrix >= -1.0 - 1e-12)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            label_correlation(make_docs(["a"], noises=["1000000000"]))

    def test_tsv_emit_shape(self):
        noises = ["1000000001", "0100000001", "1100000001"]
        docs = make_docs(["a", "b", "c"], noises=noises)
        lines = correlation_tsv(corpus_summary(docs)).strip().split("\n")
        assert len(lines) == 100
        assert lines[0].split("\t")[:2] == ["local_word", "local_word"]
        assert lines[1] == "local_word\tword_misuse\t-0.500000"

    def test_tsv_matches_the_unrounded_matrix(self):
        rng = random.Random(131)
        noises = ["".join(rng.choice("01") for _ in range(9)) + "1" for _ in range(23)]
        docs = make_docs(["t"] * len(noises), noises=noises)
        matrix = label_correlation(docs)
        expected = [f"{v:.6f}" for v in matrix.ravel()]
        lines = correlation_tsv(corpus_summary(docs)).strip().split("\n")
        assert [line.split("\t")[2] for line in lines] == expected

    def test_tsv_needs_two_labeled_documents(self):
        summary = corpus_summary(make_docs(["a", "b"], noises=["1000000000", None]))
        with pytest.raises(InsufficientData, match="at least 2 labeled"):
            correlation_tsv(summary)


class TestCorpusSummary:
    def test_counts_and_lengths(self):
        docs = make_docs(
            ["abc", "defgh", "ij"],
            sentiments=["neutral", "positive", "positive"],
            noises=["1000000000", "0100000000", "1100000000"],
        )
        summary = corpus_summary(docs)
        assert summary["documents"] == 3
        assert summary["sentiment_counts"] == {"neutral": 1, "positive": 2, "negative": 0}
        assert summary["length"]["max"] == 5
        assert summary["noise_classes"]["local_word"]["count"] == 2
        assert "label_correlation" in summary
