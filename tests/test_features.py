import math
import random
import tracemalloc

import numpy as np
import pytest

from noisekit.errors import InsufficientData, Malformed
from noisekit.features import (
    AnalyzerConfig,
    AnalyzerMode,
    fit_tfidf,
    from_json,
    to_json,
    transform,
)
from noisekit.features import _TRANSFORM_CHUNK as CHUNK

from conftest import transform_reference

WORD = AnalyzerConfig(mode=AnalyzerMode.WORD, n_min=1, n_max=1)


def entries(matrix, i=0):
    idx, val = matrix.row(i)
    return list(zip(idx.tolist(), val.tolist()))


def norm(matrix, i=0):
    _, val = matrix.row(i)
    return float(np.sqrt(np.dot(val, val)))


class TestFitTfidf:
    def test_single_document_idf_is_one(self):
        model = fit_tfidf(["hello"], WORD)
        assert model.idf[model.vocabulary["hello"]] == pytest.approx(1.0)

    def test_term_in_every_document_idf_is_one(self):
        model = fit_tfidf(["a x", "a y", "a z"], WORD)
        assert model.idf[model.vocabulary["a"]] == pytest.approx(1.0)

    def test_idf_formula(self):
        # N=4, df("rare")=1 -> ln(5/2) + 1
        model = fit_tfidf(["rare a", "a", "a", "a"], WORD)
        assert model.idf[model.vocabulary["rare"]] == pytest.approx(math.log(5 / 2) + 1, abs=1e-4)

    def test_idf_bits_match_per_term_formula(self):
        rng = random.Random(9)
        corpus = [
            " ".join(rng.choice("abcdefghij") for _ in range(rng.randint(1, 6))) for _ in range(40)
        ]
        model = fit_tfidf(corpus, AnalyzerConfig(mode=AnalyzerMode.CHAR, n_min=1, n_max=3))
        reference = np.array(
            [math.log((1 + 40) / (1 + int(df))) + 1.0 for df in model.df], dtype=np.float64
        )
        assert len(set(model.df.tolist())) < model.dim  # the per-value table is shared
        assert model.idf.tobytes() == reference.tobytes()

    def test_empty_corpus(self):
        with pytest.raises(InsufficientData, match="^cannot fit a TF-IDF model on an empty corpus$"):
            fit_tfidf([], WORD)

    def test_permutation_invariant(self):
        corpus = ["a b c", "b c d", "d e", "a a a"]
        one = fit_tfidf(corpus, WORD)
        rng = random.Random(5)
        for _ in range(5):
            shuffled = corpus[:]
            rng.shuffle(shuffled)
            other = fit_tfidf(shuffled, WORD)
            assert other.vocabulary == one.vocabulary
            assert np.array_equal(other.idf, one.idf)

    def test_idf_monotone_in_df(self):
        model = fit_tfidf(["a b", "a b", "a c", "a d"], WORD)
        df_order = ["a", "b", "c"]  # df 4, 2, 1
        idfs = [model.idf[model.vocabulary[t]] for t in df_order]
        assert idfs[0] < idfs[1] < idfs[2]

    def test_min_df_filters(self):
        model = fit_tfidf(["a b", "a c"], WORD, min_df=2)
        assert set(model.vocabulary) == {"a"}

    def test_min_df_below_one_rejected(self):
        with pytest.raises(Malformed, match="min_df must be >= 1, got 0"):
            fit_tfidf(["a b", "a c"], WORD, min_df=0)

    def test_char_plus_word_keeps_spaces_apart(self):
        config = AnalyzerConfig(mode=AnalyzerMode.CHAR_PLUS_WORD, n_min=1, n_max=1)
        model = fit_tfidf(["a b", "b b"], config)
        # char grams: 'a', 'b', ' '; word grams: 'a', 'b' -> five distinct features
        assert model.dim == 5

    def test_indices_dense_and_lexicographic(self):
        model = fit_tfidf(["b a", "c"], WORD)
        assert sorted(model.vocabulary.values()) == list(range(model.dim))
        ordered = sorted(model.vocabulary, key=model.vocabulary.get)
        assert ordered == sorted(ordered)


class TestAnalyzerConfig:
    @pytest.mark.parametrize("n_min", [1.5, 1.0, True])
    def test_non_integer_n_min_rejected(self, n_min):
        with pytest.raises(Malformed, match="n_min and n_max must be integers"):
            AnalyzerConfig(n_min=n_min, n_max=2)

    @pytest.mark.parametrize("n_max", [2.5, 2.0, True])
    def test_non_integer_n_max_rejected(self, n_max):
        with pytest.raises(Malformed, match="n_min and n_max must be integers"):
            AnalyzerConfig(n_min=1, n_max=n_max)

    @pytest.mark.parametrize("mode", ["char", "word", None])
    def test_mode_must_be_an_analyzer_mode(self, mode):
        # A string would fall through `analyzer_terms` to char+word and fail in `to_json`.
        with pytest.raises(Malformed, match="mode must be an AnalyzerMode"):
            AnalyzerConfig(mode=mode)


class TestTransform:
    def test_single_known_term(self):
        model = fit_tfidf(["hello", "other"], WORD)
        vec = transform(model, ["hello"])
        assert entries(vec) == [(model.vocabulary["hello"], pytest.approx(1.0))]

    def test_all_unseen_terms_give_zero_vector(self):
        model = fit_tfidf(["hello"], WORD)
        vec = transform(model, ["unknown words only"])
        assert vec.nnz == 0
        assert norm(vec) == 0.0

    def test_two_equal_weight_terms(self):
        model = fit_tfidf(["a b", "a b"], WORD)
        vec = transform(model, ["a b"])
        assert vec.nnz == 2
        for _, weight in entries(vec):
            assert weight == pytest.approx(1 / math.sqrt(2))

    def test_norm_is_zero_or_one_fuzz(self):
        rng = random.Random(6)
        corpus = ["a b c d", "b c", "e f g", "a e"]
        model = fit_tfidf(corpus, AnalyzerConfig(mode=AnalyzerMode.CHAR, n_min=1, n_max=3))
        texts = [
            " ".join(rng.choice("abcdefgxyz") for _ in range(rng.randint(0, 8))) for _ in range(300)
        ]
        matrix = transform(model, texts)
        for i in range(len(texts)):
            length = norm(matrix, i)
            assert length == pytest.approx(0.0, abs=1e-9) or length == pytest.approx(1.0, abs=1e-9)

    def test_indices_strictly_increasing(self):
        model = fit_tfidf(["a b c a b"], WORD)
        vec = transform(model, ["c b a a"])
        assert list(vec.indices) == sorted(set(vec.indices.tolist()))


# Letters a fitted vocabulary sees: Latin, Bengali with a virama conjunct, a
# combining acute accent and two astral characters.
SEEN = ["a", "b", "c", "ক", "্", "ষ", "া", "e\u0301", "\U0001d538", "\U0001f600"]
# Letters no fitted text holds, so a text of only these has no known term.
UNSEEN = ["Q", "X", "\U00010348", "Z\u0308"]


def random_word(rng: random.Random, letters) -> str:
    return "".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))


def random_text(rng: random.Random, words) -> str:
    return " ".join(rng.choice(words) for _ in range(rng.randint(0, 12)))


def assert_same_bytes(got, want):
    assert got.dim == want.dim
    for name in ("indptr", "indices", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class TestTransformMatchesReference:
    """`transform` returns the bytes of the dict-counting `transform_reference`."""

    @pytest.mark.parametrize("min_df", [1, 3])
    @pytest.mark.parametrize("n_min, n_max", [(1, 1), (1, 4), (2, 8), (8, 8)])
    @pytest.mark.parametrize("mode", list(AnalyzerMode))
    def test_same_bytes(self, mode, n_min, n_max, min_df):
        rng = random.Random(f"{mode.value}-{n_min}-{n_max}-{min_df}")
        lexicon = [random_word(rng, SEEN) for _ in range(15)]
        base = [random_text(rng, lexicon) for _ in range(80)]
        # Thrice-repeated texts keep long grams at min_df=3; terms only the others hold drop.
        corpus = base[:30] * 3 + base[30:]
        model = fit_tfidf(corpus, AnalyzerConfig(mode=mode, n_min=n_min, n_max=n_max), min_df=min_df)
        words = lexicon + [random_word(rng, SEEN) for _ in range(5)] + [random_word(rng, UNSEEN) for _ in range(5)]
        texts = [
            rng.choice(base) if rng.random() < 0.5 else random_text(rng, words) for _ in range(12 * CHUNK + 5)
        ]
        # Empty rows on both sides of the first chunk boundary, and one whole chunk of them.
        empty = [0, CHUNK - 1, *range(2 * CHUNK, 3 * CHUNK), len(texts) - 1]
        for i in empty:
            texts[i] = rng.choice(["", random_word(rng, UNSEEN)])
        want = transform_reference(model, texts)
        assert [want.row(i)[0].size for i in empty] == [0] * len(empty)
        assert want.nnz > 0
        assert_same_bytes(transform(model, texts), want)

    def test_fitted_texts_and_an_empty_list(self):
        rng = random.Random(11)
        lexicon = [random_word(rng, SEEN) for _ in range(40)]
        corpus = [random_text(rng, lexicon) for _ in range(2 * CHUNK + 1)]
        model = fit_tfidf(corpus, AnalyzerConfig(mode=AnalyzerMode.CHAR, n_min=1, n_max=4))
        assert_same_bytes(transform(model, corpus), transform_reference(model, corpus))
        assert_same_bytes(transform(model, []), transform_reference(model, []))


def test_transform_peak_memory_stays_near_its_output():
    """One `transform` holds little beyond the matrix it returns: texts are counted chunk by chunk."""
    rng = random.Random(2000)
    letters = [chr(c) for c in range(0x0995, 0x09B9)] + ["া", "ি", "ে", "ো"]
    lexicon = ["".join(rng.choice(letters) for _ in range(rng.randint(2, 7))) for _ in range(3000)]
    texts = [" ".join(rng.choice(lexicon) for _ in range(rng.randint(6, 20))) for _ in range(2000)]
    model = fit_tfidf(texts, AnalyzerConfig(mode=AnalyzerMode.CHAR, n_min=1, n_max=4))
    transform(model, texts[:CHUNK])  # numpy's first-use imports are not the matrix's cost
    tracemalloc.start()
    try:
        matrix = transform(model, texts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = matrix.indptr.nbytes + matrix.indices.nbytes + matrix.values.nbytes
    assert peak <= 1.5 * size


class TestSerialization:
    def test_round_trip(self):
        config = AnalyzerConfig(mode=AnalyzerMode.CHAR_PLUS_WORD, n_min=1, n_max=2)
        model = fit_tfidf(["ab cd", "cd ef", "gh"], config)
        clone = from_json(to_json(model))
        assert clone.vocabulary == model.vocabulary
        assert np.array_equal(clone.idf, model.idf)
        assert clone.config == model.config
        assert clone.corpus_size == model.corpus_size
        # Transform parity on fresh text.
        assert entries(transform(clone, ["ab xy"])) == entries(transform(model, ["ab xy"]))

    def test_serialization_deterministic(self):
        model = fit_tfidf(["a b", "b c"], WORD)
        assert to_json(model) == to_json(fit_tfidf(["a b", "b c"], WORD))
