"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL/SKIP line. Run with `pytest tests/test_acceptance.py -v -s`.

The two dataset-bound criteria need a local copy of the public corpus,
prepared as corpus TSVs (see README, "Reproducing the dataset numbers");
they skip with a clear reason when the files are absent.
"""

import json
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from noisekit.agreement import RatingMatrix, fleiss_kappa
from noisekit.classify import compute_class_weights, train_ovr_hinge, TrainConfig, predict_multilabel
from noisekit.cli import main
from noisekit.dataio import load_corpus, save_corpus
from noisekit.errors import InsufficientData
from noisekit.features import AnalyzerConfig, AnalyzerMode, fit_tfidf, transform
from noisekit.metrics import (
    bleu,
    evaluate_reduction,
    human_eval_score,
    ngram_table,
    prf_report,
    rouge_l,
)
from noisekit.reduce import Dictionary, FixtureClient, back_translate, levenshtein, mask_random, spell_correct
from noisekit.stats import corpus_summary, dedupe
from noisekit.textcore import NOISE_CLASSES

from conftest import BASE_VOCAB, csr, embedding_table, latin_test_phonetic_table, make_docs, softmax_loss_grad
from test_cli import synth_noise_corpus

DATASET_DIR = Path(os.environ.get("NOISEKIT_DATASET_DIR", Path(__file__).parent / "data" / "nc_sentnob"))

TABLE3_COUNTS = {
    "local_word": 2084,
    "word_misuse": 661,
    "context_word_missing": 550,
    "wrong_serial": 69,
    "mixed_language": 6267,
    "punctuation_error": 5988,
    "spacing_error": 2456,
    "spelling_error": 5817,
    "coined_word": 549,
    "others": 1263,
}


@contextmanager
def criterion(number, description):
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"SKIP criterion {number}: {description} -- {exc}")
        raise
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    else:
        print(f"PASS criterion {number}: {description}")


def best_runtime(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def need_dataset(*names):
    missing = [n for n in names if not (DATASET_DIR / n).is_file()]
    if missing:
        pytest.skip(f"dataset files missing under {DATASET_DIR}: {', '.join(missing)}")


def test_criterion_1_class_weight_reproduction():
    with criterion(1, "published class weights reproduced within 1e-4, < 1 ms"):
        counts = [2767, 4948, 4318]
        compute_class_weights(counts)  # warm-up
        weights = compute_class_weights(counts)
        expected = (1.4496, 0.8106, 0.9289)
        for got, want in zip(weights, expected):
            assert abs(got - want) <= 1e-4
        assert best_runtime(lambda: compute_class_weights(counts)) < 1e-3


def test_criterion_2_human_evaluation_formula():
    with criterion(2, "human evaluation 379/1000 scores exactly 37.90, < 1 ms"):
        assert human_eval_score(379, 1000) == pytest.approx(37.90, abs=1e-12)
        assert best_runtime(lambda: human_eval_score(379, 1000)) < 1e-3


def test_criterion_3_dataset_statistics():
    with criterion(3, "public-corpus statistics (552 duplicates, class counts, lengths, correlation)"):
        need_dataset("sentnob_raw.tsv", "train.tsv", "validation.tsv", "test.tsv")
        start = time.perf_counter()
        raw = load_corpus(DATASET_DIR / "sentnob_raw.tsv", normalize_text=False)
        _, removed = dedupe(raw.documents)
        assert removed == 552

        documents = []
        for name in ("train.tsv", "validation.tsv", "test.tsv"):
            documents.extend(load_corpus(DATASET_DIR / name).documents)
        summary = corpus_summary(documents)
        per_class = summary["noise_classes"]
        for name, expected in TABLE3_COUNTS.items():
            assert per_class[name]["count"] == expected, name
        lengths = summary["length"]
        assert abs(lengths["mean"] - 66.0) <= 1.0
        assert lengths["max"] == 314
        assert lengths["min"] == 11
        matrix = summary["label_correlation"]["matrix"]
        i = NOISE_CLASSES.index("mixed_language")
        j = NOISE_CLASSES.index("spelling_error")
        assert abs(matrix[i][j] - (-0.12)) <= 0.02
        assert time.perf_counter() - start < 30.0


def _train_and_score(documents, test_documents, mode):
    config = AnalyzerConfig(mode=mode, n_min=1, n_max=4)
    texts = [d.text for d in documents]
    tfidf = fit_tfidf(texts, config)
    model = train_ovr_hinge(
        transform(tfidf, texts),
        [d.noise for d in documents],
        TrainConfig(c=1.0, epochs=20, learning_rate=0.5, seed=0),
    )
    predicted = predict_multilabel(model, transform(tfidf, [d.text for d in test_documents]))
    gold = [d.noise.mask for d in test_documents]
    report = prf_report(gold, [p.mask for p in predicted], NOISE_CLASSES)
    return report["micro"]["f1"]


def test_criterion_4_noise_identification_f1():
    with criterion(4, "noise identification micro-F1: char >= 0.49, word >= 0.40, char > word"):
        need_dataset("train.tsv", "test.tsv")
        start = time.perf_counter()
        train = [d for d in load_corpus(DATASET_DIR / "train.tsv").documents if d.noise is not None]
        test = [d for d in load_corpus(DATASET_DIR / "test.tsv").documents if d.noise is not None]
        char_f1 = _train_and_score(train, test, AnalyzerMode.CHAR)
        word_f1 = _train_and_score(train, test, AnalyzerMode.WORD)
        print(f"  char micro-F1 = {char_f1:.4f}, word micro-F1 = {word_f1:.4f}")
        assert char_f1 >= 0.49
        assert word_f1 >= 0.40
        assert char_f1 > word_f1
        assert time.perf_counter() - start < 600.0


def test_criterion_5_identity_fixture_reduction():
    with criterion(5, "identity reduction: BLEU = ROUGE-L = 1.0 and composite penalty active"):
        rng = random.Random(151)
        words = sorted(BASE_VOCAB)
        sentences = [
            " ".join(rng.choice(words) for _ in range(rng.randint(3, 8))) for _ in range(50)
        ]
        entries = {}
        for text in sentences:
            entries[("translate", "bn", "en", text)] = text
            entries[("translate", "en", "bn", text)] = text
        client = FixtureClient(entries)
        outputs = back_translate(sentences, client)
        assert outputs == sentences

        vectors = {w: np.array([1.0 + i, i % 3, (i * 7) % 5, 1.0]) for i, w in enumerate(words)}
        report = evaluate_reduction(
            {"identity": outputs}, sentences, inputs=sentences, embeddings=embedding_table(vectors)
        )[0]
        assert report["bleu"] == 1.0
        assert report["rouge_l"] == 1.0
        assert report["composite"] < report["embedding_similarity"]


def test_criterion_6_property_suites(tmp_path):
    with criterion(6, "property suites (edit distance, metrics, spelling, masking, gradients, kappa, round-trip)"):
        # Levenshtein metric axioms on 10,000 fuzzed triples.
        rng = random.Random(157)
        alphabet = "abdeকা"
        for _ in range(10_000):
            a, b, c = (
                "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7))) for _ in range(3)
            )
            dab = levenshtein(a, b)
            assert dab == levenshtein(b, a)
            assert (dab == 0) == (a == b)
            assert dab <= levenshtein(a, c) + levenshtein(c, b)

        # BLEU / ROUGE bounds and identity cases.
        for _ in range(500):
            cand = [rng.choice("abcd") for _ in range(rng.randint(0, 6))]
            ref = [rng.choice("abcd") for _ in range(rng.randint(1, 6))]
            assert 0.0 <= bleu(ngram_table(cand), ngram_table(ref)) <= 1.0
            assert 0.0 <= rouge_l(cand, ref) <= 1.0
            if ref:
                assert bleu(ngram_table(ref), ngram_table(ref)) == 1.0
                assert rouge_l(ref, ref) == 1.0
        with pytest.raises(InsufficientData, match="^BLEU needs a non-empty reference$"):
            bleu(ngram_table(["a"]), ngram_table([]))

        # Spell-correct identity and idempotence on 1,000 dictionary sentences.
        dictionary = Dictionary(dict(BASE_VOCAB), table=latin_test_phonetic_table())
        words = sorted(dictionary.freq)
        for _ in range(1_000):
            sentence = " ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
            once = spell_correct(sentence, dictionary)
            assert once.corrected == sentence and once.edits == []
            twice = spell_correct(once.corrected, dictionary)
            assert twice.corrected == once.corrected

        # Random masking rate at n = 10,000, p = 0.2 (99.9% binomial interval).
        text = " ".join(f"w{i}" for i in range(10_000))
        masked = mask_random(text, p=0.2, seed=20)
        rate = masked.count("<MASK>") / 10_000
        assert 0.18 <= rate <= 0.22

        # Weighted cross-entropy gradient vs central differences, 20 points.
        grad_rng = np.random.default_rng(163)
        features = csr([[(j, grad_rng.normal()) for j in range(4)] for _ in range(8)])
        labels = [int(grad_rng.integers(0, 3)) for _ in range(8)]
        class_weights = np.array([1.4496, 0.8106, 0.9289])
        h = 1e-6
        for _ in range(20):
            w = grad_rng.normal(size=(3, 4))
            b = grad_rng.normal(size=3)
            _, grad_w, grad_b = softmax_loss_grad(w, b, features, labels, class_weights, 1.5)
            numeric = []
            analytic = list(grad_w.ravel()) + list(grad_b)
            for i in range(3):
                for j in range(4):
                    wp, wm = w.copy(), w.copy()
                    wp[i, j] += h
                    wm[i, j] -= h
                    lp = softmax_loss_grad(wp, b, features, labels, class_weights, 1.5)[0]
                    lm = softmax_loss_grad(wm, b, features, labels, class_weights, 1.5)[0]
                    numeric.append((lp - lm) / (2 * h))
            for i in range(3):
                bp, bm = b.copy(), b.copy()
                bp[i] += h
                bm[i] -= h
                lp = softmax_loss_grad(w, bp, features, labels, class_weights, 1.5)[0]
                lm = softmax_loss_grad(w, bm, features, labels, class_weights, 1.5)[0]
                numeric.append((lp - lm) / (2 * h))
            analytic = np.asarray(analytic)
            numeric = np.asarray(numeric)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-5

        # Fleiss kappa hand case: 2/2 split, 4 raters, 2 categories.
        matrix = RatingMatrix(np.array([[2, 2]] * 10))
        assert abs(fleiss_kappa(matrix) - (-1 / 3)) <= 1e-9

        # Corpus TSV round-trip byte identity on 1,000 fuzzed corpora.
        from test_dataio import random_corpus

        corpus_rng = random.Random(167)
        path = tmp_path / "roundtrip.tsv"
        for _ in range(1_000):
            docs = random_corpus(corpus_rng)
            save_corpus(docs, path)
            first = path.read_bytes()
            loaded = load_corpus(path, normalize_text=False)
            assert loaded.documents == docs
            save_corpus(loaded.documents, path)
            assert path.read_bytes() == first


def _run_cli(argv):
    assert main(argv) == 0


def test_criterion_7_seeded_runs_are_byte_identical(tmp_path, capsys):
    with criterion(7, "train-noise / train-sentiment / reduce mask-random are byte-deterministic"):
        docs = synth_noise_corpus(40, seed=9)
        train = tmp_path / "train.tsv"
        save_corpus(docs, train)
        dictionary = tmp_path / "dict.tsv"
        dictionary.write_text(
            "".join(f"{w}\t{i + 1}\n" for i, w in enumerate(sorted(BASE_VOCAB))), encoding="utf-8"
        )

        pairs = []
        for run in ("x", "y"):
            noise_model = tmp_path / f"noise-{run}.json"
            senti_model = tmp_path / f"senti-{run}.json"
            reduced = tmp_path / f"reduced-{run}.tsv"
            _run_cli(["train-noise", str(train), "--epochs", "6", "--seed", "11", "--out", str(noise_model)])
            _run_cli([
                "train-sentiment", str(train), "--auto-weights", "--epochs", "6",
                "--seed", "11", "--out", str(senti_model),
            ])
            _run_cli([
                "reduce", str(train), "--method", "mask-random", "--seed", "11",
                "--p", "0.4", "--dict", str(dictionary), "--out", str(reduced),
            ])
            pairs.append((noise_model.read_bytes(), senti_model.read_bytes(), reduced.read_bytes()))
        capsys.readouterr()  # swallow CLI JSON output
        assert pairs[0] == pairs[1]
