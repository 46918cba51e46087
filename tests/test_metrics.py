import math
import random
from functools import lru_cache

import numpy as np
import pytest

from noisekit.errors import DataError, DimensionMismatch, InsufficientData, Malformed
from noisekit.metrics import (
    _lcs_length,
    bleu,
    composite_similarity,
    evaluate_reduction,
    human_eval_score,
    mean_vector,
    ngram_table,
    prf_report,
    rouge_l,
    sentence_similarity,
    word_coverage,
)
from noisekit.textcore import NOISE_CLASSES, NoiseLabelSet, tokenize

from conftest import (
    bleu_reference,
    embedding_table,
    evaluate_reduction_reference,
    lcs_length_dp,
    random_word,
    sentence_similarity_reference,
)


def bleu_of(cand: list[str], ref: list[str]) -> float:
    return bleu(ngram_table(cand), ngram_table(ref))


def similarity_of(cand: list[str], ref: list[str], table) -> float:
    return sentence_similarity(mean_vector(cand, table), mean_vector(ref, table))


class TestBleu:
    def test_identity(self):
        tokens = ["the", "cat", "sat"]
        assert bleu_of(tokens, tokens) == pytest.approx(1.0)

    def test_clipped_unigram_precision(self):
        candidate = ["the"] * 7
        reference = ["the", "cat", "is", "on", "the", "mat"]
        # Clipped unigram precision 2/7; no bigram or longer matches, so each of
        # orders 2-4 is floored at epsilon. The brevity penalty is 1.
        expected = math.exp((math.log(2 / 7) + 3 * math.log(1e-9)) / 4)
        assert bleu_of(candidate, reference) == pytest.approx(expected)

    def test_brevity_penalty(self):
        assert bleu_of(["a", "b"], ["a", "b", "c", "d"]) == pytest.approx(math.exp(-1.0), abs=1e-4)

    def test_order_capped_by_candidate_length(self):
        # Candidate of length 2 only uses orders 1 and 2; both perfect here.
        assert bleu_of(["a", "b"], ["a", "b"]) == pytest.approx(1.0)

    def test_empty_candidate_scores_zero(self):
        assert bleu_of([], ["a"]) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(InsufficientData, match="^BLEU needs a non-empty reference$"):
            bleu_of(["a"], [])

    def test_tokenized_sentence(self):
        tokens = tokenize("the cat").tokens
        assert bleu_of(tokens, list(tokens)) == pytest.approx(1.0)

    def test_bounds_and_relabeling_fuzz(self):
        rng = random.Random(73)
        for _ in range(400):
            cand = [rng.choice("abcd") for _ in range(rng.randint(0, 8))]
            ref = [rng.choice("abcd") for _ in range(rng.randint(1, 8))]
            score = bleu_of(cand, ref)
            assert 0.0 <= score <= 1.0
            relabel = {"a": "w", "b": "x", "c": "y", "d": "z"}
            relabeled = bleu_of([relabel[t] for t in cand], [relabel[t] for t in ref])
            assert relabeled == pytest.approx(score)


@lru_cache(maxsize=None)
def lcs_recursive(a: tuple, b: tuple) -> int:
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return 1 + lcs_recursive(a[:-1], b[:-1])
    return max(lcs_recursive(a[:-1], b), lcs_recursive(a, b[:-1]))


class TestRougeL:
    def test_identity(self):
        assert rouge_l(["a", "b", "c"], ["a", "b", "c"]) == pytest.approx(1.0)

    def test_disjoint(self):
        assert rouge_l(["a", "b"], ["c", "d"]) == 0.0

    def test_hand_case(self):
        assert rouge_l(["a", "b", "c"], ["a", "c", "b"]) == pytest.approx(2 / 3)

    def test_empty_sides(self):
        assert rouge_l([], ["a"]) == 0.0
        assert rouge_l(["a"], []) == 0.0

    def test_against_recursive_oracle_fuzz(self):
        rng = random.Random(79)
        for _ in range(200):
            cand = tuple(rng.choice("abc") for _ in range(rng.randint(0, 7)))
            ref = tuple(rng.choice("abc") for _ in range(rng.randint(0, 7)))
            lcs = lcs_recursive(cand, ref)
            p = lcs / len(cand) if cand else 0.0
            r = lcs / len(ref) if ref else 0.0
            expected = 2 * p * r / (p + r) if p + r else 0.0
            assert rouge_l(list(cand), list(ref)) == pytest.approx(expected)

    def test_lcs_matches_dp_oracle_fuzz(self):
        # Lengths past 64 and 128 carry the bit vector across machine words.
        rng = random.Random(89)
        for _ in range(400):
            alphabet = "abcdefgh"[: rng.randint(1, 8)]
            a = [rng.choice(alphabet) for _ in range(rng.randint(0, 150))]
            b = [rng.choice(alphabet) for _ in range(rng.randint(0, 150))]
            assert _lcs_length(a, b) == lcs_length_dp(a, b)

    def test_relabeling_invariance(self):
        rng = random.Random(83)
        for _ in range(100):
            cand = [rng.choice("abc") for _ in range(rng.randint(1, 6))]
            ref = [rng.choice("abc") for _ in range(rng.randint(1, 6))]
            mapping = {"a": "xx", "b": "yy", "c": "zz"}
            assert rouge_l(cand, ref) == pytest.approx(
                rouge_l([mapping[t] for t in cand], [mapping[t] for t in ref])
            )


class TestWordCoverage:
    def test_all_known(self, latin_dict):
        assert word_coverage(["the", "cat"], latin_dict) == 100.0

    def test_half_known(self, latin_dict):
        assert word_coverage(["the", "cat", "zz", "qq"], latin_dict) == 50.0

    def test_punctuation_excluded(self, latin_dict):
        assert word_coverage(["the", ",", "!"], latin_dict) == 100.0

    def test_empty_input(self, latin_dict):
        with pytest.raises(InsufficientData, match="^word coverage needs at least one word token$"):
            word_coverage([",", "!"], latin_dict)

    def test_adding_known_token_never_decreases(self, latin_dict):
        rng = random.Random(89)
        for _ in range(200):
            tokens = [random_word(rng) for _ in range(rng.randint(1, 6))]
            before = word_coverage(tokens, latin_dict)
            after = word_coverage(tokens + ["the"], latin_dict)
            assert after >= before - 1e-12


def small_table():
    return embedding_table(
        {"cat": np.array([1.0, 0.0]), "dog": np.array([0.0, 1.0]), "pet": np.array([1.0, 1.0])}
    )


class TestSentenceSimilarity:
    def test_identical_sentences(self):
        table = small_table()
        assert similarity_of(["cat", "dog"], ["cat", "dog"], table) == pytest.approx(1.0)

    def test_fully_oov_sides(self):
        table = small_table()
        assert similarity_of(["xx"], ["yy"], table) == 0.0
        assert similarity_of(["cat"], ["yy"], table) == 0.0

    def test_hand_computed_cosine(self):
        table = small_table()
        # mean(cat, dog) = (0.5, 0.5); cosine with pet (1, 1) = 1.
        assert similarity_of(["cat", "dog"], ["pet"], table) == pytest.approx(1.0)
        # cat vs dog are orthogonal.
        assert similarity_of(["cat"], ["dog"], table) == pytest.approx(0.0)

    def test_oov_words_skipped(self):
        table = small_table()
        assert similarity_of(["cat", "zz"], ["cat"], table) == pytest.approx(1.0)


class TestCompositeSimilarity:
    def test_perfect_case(self):
        assert composite_similarity(1.0, 0.0) == pytest.approx(1.0)

    def test_formula_evaluation(self):
        # beta = 4: 5 / (4 / 0.8 + 1 / 0.5) = 5 / 7.
        assert composite_similarity(0.8, 0.5) == pytest.approx(5 / 7)

    def test_monotonicity_fuzz(self):
        rng = random.Random(97)
        for _ in range(400):
            semantic = rng.uniform(0.05, 1.0)
            surface = rng.uniform(0.0, 0.95)
            base = composite_similarity(semantic, surface)
            assert composite_similarity(min(semantic + 0.02, 1.0), surface) >= base - 1e-12
            assert composite_similarity(semantic, min(surface + 0.02, 0.999)) <= base + 1e-12

    def test_bounded_by_semantic_when_overlap_dominates(self):
        # The harmonic combination sits below the semantic term whenever
        # surface overlap >= 1 - semantic.
        rng = random.Random(101)
        for _ in range(300):
            semantic = rng.uniform(0.05, 1.0)
            surface = rng.uniform(1.0 - semantic, 1.0)
            assert composite_similarity(semantic, surface) <= semantic + 1e-12

    def test_full_overlap_drives_score_to_zero(self):
        assert composite_similarity(1.0, 1.0) < 1e-6


class TestHumanEval:
    def test_zero(self):
        assert human_eval_score(0, 1000) == 0.0

    def test_published_score(self):
        assert human_eval_score(379, 1000) == pytest.approx(37.90)

    def test_perfect(self):
        assert human_eval_score(25, 25) == 100.0

    def test_invalid_counts(self):
        for accurate, total in ((5, 0), (-1, 10), (11, 10)):
            with pytest.raises(Malformed):
                human_eval_score(accurate, total)


def report_from_counts(tp, fp, fn):
    """prf_report over one-bit mask rows that realize the given per-class tallies."""
    gold, predicted = [], []
    for j, (t, f, n) in enumerate(zip(tp, fp, fn)):
        bit = 1 << j
        gold += [bit] * t + [0] * f + [bit] * n
        predicted += [bit] * t + [bit] * f + [0] * n
    return prf_report(gold, predicted, tuple("abcdefghij"[: len(tp)]))


class TestPrf:
    def test_micro_pooled(self):
        micro = report_from_counts(tp=[5, 3], fp=[1, 1], fn=[1, 1])["micro"]
        assert micro == {"precision": 0.8, "recall": 0.8, "f1": 0.8}

    def test_perfect_predictions(self):
        report = report_from_counts(tp=[4, 2], fp=[0, 0], fn=[0, 0])
        for avg in ("micro", "macro", "weighted"):
            assert report[avg] == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_no_positive_predictions(self):
        report = report_from_counts(tp=[0], fp=[0], fn=[5])
        assert report["micro"] == {"precision": 0.0, "recall": 0.0, "f1": 0.0}

    def test_micro_equals_macro_for_identical_classes(self):
        report = report_from_counts(tp=[3, 3, 3], fp=[1, 1, 1], fn=[2, 2, 2])
        assert report["micro"] == pytest.approx(report["macro"])

    def test_weighted_uses_support(self):
        weighted = report_from_counts(tp=[9, 0], fp=[0, 1], fn=[0, 1])["weighted"]
        # Class a: support 9, perfect. Class b: support 1, zero scores.
        assert weighted["precision"] == pytest.approx(0.9)
        assert weighted["recall"] == pytest.approx(0.9)

    def test_multilabel_masks(self):
        gold = [NoiseLabelSet.from_bits("1100000000"), NoiseLabelSet.from_bits("0100000000")]
        pred = [NoiseLabelSet.from_bits("1000000000"), NoiseLabelSet.from_bits("0100000001")]
        report = prf_report([g.mask for g in gold], [p.mask for p in pred], NOISE_CLASSES)
        per_class = report["per_class"]
        # local_word: one tp. word_misuse: one tp, one fn. others: one fp.
        assert per_class["local_word"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
        assert per_class["word_misuse"]["precision"] == 1.0
        assert per_class["word_misuse"]["recall"] == 0.5
        assert per_class["others"] == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        assert report["micro"]["precision"] == pytest.approx(2 / 3, abs=1e-6)
        assert report["micro"]["recall"] == pytest.approx(2 / 3, abs=1e-6)

    def test_one_bit_masks_give_micro_equal_to_accuracy(self):
        rng = random.Random(173)
        for _ in range(200):
            k = rng.randint(1, 6)
            n = rng.randint(1, 40)
            gold = [1 << rng.randrange(k) for _ in range(n)]
            predicted = [g if rng.random() < 0.5 else 1 << rng.randrange(k) for g in gold]
            accuracy = sum(g == p for g, p in zip(gold, predicted)) / n
            micro = prf_report(gold, predicted, tuple("abcdef"[:k]))["micro"]
            assert micro["precision"] == micro["recall"] == round(accuracy, 6)
            assert micro["f1"] == pytest.approx(accuracy, abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch, match="^1 gold rows vs 0 predictions$"):
            prf_report([1], [], NOISE_CLASSES)


class TestEvaluateReduction:
    def test_identical_outputs_score_one(self):
        truth = ["the cat sat", "a dog ran"]
        reports = evaluate_reduction({"identity": list(truth)}, truth)
        assert reports[0]["bleu"] == pytest.approx(1.0)
        assert reports[0]["rouge_l"] == pytest.approx(1.0)

    def test_composite_penalized_when_output_equals_input(self):
        table = small_table()
        inputs = ["cat dog", "pet cat"]
        truth = ["cat dog", "pet cat"]
        reports = evaluate_reduction({"noisy": list(inputs)}, truth, inputs=inputs, embeddings=table)
        report = reports[0]
        assert report["embedding_similarity"] == pytest.approx(1.0)
        assert report["composite"] < report["embedding_similarity"]

    def test_two_sentence_average(self):
        truth = ["a b", "c d"]
        outputs = {"m": ["a b", "c x"]}
        reports = evaluate_reduction(outputs, truth)
        per_sentence = [bleu_of(["a", "b"], ["a", "b"]), bleu_of(["c", "x"], ["c", "d"])]
        assert reports[0]["bleu"] == pytest.approx(sum(per_sentence) / 2)
        rouge_per_sentence = [rouge_l(["a", "b"], ["a", "b"]), rouge_l(["c", "x"], ["c", "d"])]
        assert reports[0]["rouge_l"] == pytest.approx(sum(rouge_per_sentence) / 2)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch, match="^method m: 1 outputs vs 2 references$"):
            evaluate_reduction({"m": ["a"]}, ["a", "b"])
        with pytest.raises(DimensionMismatch, match="^1 inputs vs 2 references$"):
            evaluate_reduction({"m": ["a", "b"]}, ["a", "b"], inputs=["a"])

    def test_human_tallies_and_coverage(self, latin_dict):
        truth = ["the cat"]
        report = evaluate_reduction(
            {"m": ["the zz"]}, truth, coverage_vocab=latin_dict, human_tallies={"m": (379, 1000)}
        )[0]
        assert report["word_coverage"] == pytest.approx(50.0)
        assert report["human_eval"] == pytest.approx(37.90)

    def test_reports_sorted_by_method(self):
        truth = ["a"]
        reports = evaluate_reduction({"z": ["a"], "a": ["a"], "m": ["a"]}, truth)
        assert [r["method"] for r in reports] == ["a", "m", "z"]


def outcome(func, *args, **kwargs):
    """What a call returns, or the class and message of the DataError it raises."""
    try:
        return func(*args, **kwargs)
    except DataError as exc:
        return type(exc), str(exc)


class TestOnePassMatchesReference:
    """The n-gram tables, mean vectors and one-pass `evaluate_reduction` keep every bit of
    the per-pair scoring in conftest, compared with ``==``."""

    def test_bleu_fuzz(self):
        # A 3-letter alphabet repeats n-grams; references run from 0 to 8 tokens.
        rng = random.Random(181)
        for _ in range(2000):
            cand = [rng.choice("abc") for _ in range(rng.randint(0, 8))]
            ref = [rng.choice("abc") for _ in range(rng.randint(0, 8))]
            assert outcome(bleu_of, cand, ref) == outcome(bleu_reference, cand, ref), (cand, ref)

    def test_sentence_similarity_fuzz(self):
        rng = random.Random(191)
        words = [random_word(rng, max_len=3) for _ in range(8)] + [",", "!"]
        for _ in range(1000):
            vectors = random_vectors(rng, words)
            table = embedding_table(vectors)
            # Some tokens are not in the table, so a side can have no embedded word.
            cand = [rng.choice(words + ["oov"]) for _ in range(rng.randint(0, 6))]
            ref = [rng.choice(words + ["oov"]) for _ in range(rng.randint(1, 6))]
            assert similarity_of(cand, ref, table) == sentence_similarity_reference(cand, ref, vectors)

    def test_reports_fuzz(self, latin_dict):
        rng = random.Random(193)
        words = [random_word(rng, max_len=3) for _ in range(6)] + [",", "!"]

        def sentences(n, min_len):
            return [" ".join(rng.choices(words, k=rng.randint(min_len, 7))) for _ in range(n)]

        for _ in range(150):
            n = rng.randint(1, 6)
            truth, inputs = sentences(n, 1), sentences(n, 1)
            # Empty outputs, outputs equal to the input and to the truth, and free ones.
            outputs = {"empty": [""] * n, "input": list(inputs), "truth": list(truth),
                       "m1": sentences(n, 0), "m2": sentences(n, 0)}
            vectors = random_vectors(rng, words) if rng.random() < 0.8 else None
            options = {
                "inputs": inputs if rng.random() < 0.8 else None,
                "coverage_vocab": latin_dict if rng.random() < 0.3 else None,
                "human_tallies": {"m1": (3, 4)} if rng.random() < 0.5 else None,
            }
            embeddings = embedding_table(vectors) if vectors is not None else None
            reports = evaluate_reduction(outputs, truth, embeddings=embeddings, **options)
            assert reports == evaluate_reduction_reference(outputs, truth, vectors=vectors, **options)

    @pytest.mark.parametrize("case", ["short-method", "long-method", "short-inputs", "empty-reference"])
    def test_same_first_error(self, case):
        truth, inputs = ["a b", "c d e", "f"], ["a x", "c d", "g"]
        outputs = {"a": ["a b", "c", "f"], "b": ["b", "d e", "f f"], "c": ["a", "c d e", "x"]}
        if case == "short-method":
            outputs["b"] = outputs["b"][:2]
        elif case == "long-method":
            outputs["c"] = outputs["c"] + ["y"]
        elif case == "short-inputs":
            inputs = inputs[:1]
        else:
            truth[1] = ""
        vectors = {"a": np.array([1.0, 0.5]), "c": np.array([0.0, 2.0])}
        new = outcome(evaluate_reduction, outputs, truth, inputs=inputs, embeddings=embedding_table(vectors))
        old = outcome(evaluate_reduction_reference, outputs, truth, inputs=inputs, vectors=vectors)
        assert new == old and isinstance(new, tuple)


# The range of each score `eval-reduction` reports. Each holds by construction:
# BLEU's brevity factor and clipped precisions lie in [0, 1], an LCS is no longer
# than either side, the composite's denominator is at least beta + 1, and
# human_eval_score rejects impossible tallies.
SCORE_RANGES = {
    "bleu": (0.0, 1.0),
    "rouge_l": (0.0, 1.0),
    "word_coverage": (0.0, 100.0),
    "embedding_similarity": (-1.0, 1.0),
    "composite": (0.0, 1.0),
    "human_eval": (0.0, 100.0),
}


def random_vectors(rng, words):
    """Vectors for a random subset of `words`: one width, some all zero."""
    dim = rng.randint(1, 4)
    return {
        w: np.zeros(dim) if rng.random() < 0.1 else np.array([rng.uniform(-1, 1) for _ in range(dim)])
        for w in words
        if rng.random() < 0.8
    }


class TestScoreRanges:
    def test_sentence_scores_fuzz(self):
        rng = random.Random(163)
        words = [random_word(rng, max_len=3) for _ in range(10)] + [",", "!"]
        for _ in range(500):
            cand = [rng.choice(words) for _ in range(rng.randint(0, 8))]
            ref = [rng.choice(words) for _ in range(rng.randint(1, 8))]
            semantic = similarity_of(cand, ref, embedding_table(random_vectors(rng, words)))
            surface = bleu_of(cand, ref)
            assert 0.0 <= surface <= 1.0
            assert 0.0 <= rouge_l(cand, ref) <= 1.0
            assert -1.0 - 1e-9 <= semantic <= 1.0 + 1e-9
            assert 0.0 < composite_similarity(semantic, surface) <= 1.0

    def test_report_fields_fuzz(self):
        rng = random.Random(167)
        words = [random_word(rng, max_len=3) for _ in range(10)] + [",", "!"]

        def sentences(n, min_len):
            return [" ".join(rng.choices(words, k=rng.randint(min_len, 6))) for _ in range(n)]

        for _ in range(100):
            n = rng.randint(1, 5)
            methods = ("m1", "m2")
            tallies = {}
            for m in methods:
                total = rng.randint(1, 50)
                tallies[m] = (rng.randint(0, total), total)
            reports = evaluate_reduction(
                {m: sentences(n, 0) for m in methods}, sentences(n, 1),
                inputs=sentences(n, 1), embeddings=embedding_table(random_vectors(rng, words)),
                human_tallies=tallies,
            )
            for report in reports:
                assert report.keys() == {"method", *SCORE_RANGES}
                for name, (low, high) in SCORE_RANGES.items():
                    value = report[name]
                    assert value is None or low - 1e-9 <= value <= high + 1e-9, (name, value)
