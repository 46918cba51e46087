import dataclasses
import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import noisekit.errors
from noisekit.cli import build_parser, main
from noisekit.dataio import CORPUS_HEADER, load_corpus, save_corpus
from noisekit.reduce import NgramMaskFiller
from noisekit.textcore import Document, NoiseLabelSet, SentimentLabel

from conftest import BROKEN_BUNDLES, INT_DIGIT_LIMIT, edit_bundle, make_docs, subprocess_env

WORD_POOL = ["khub", "bhalo", "laglo", "onek", "sundor", "video", "dada", "dekhe"]
# Tokens that mark two synthetic noise classes and one "everything else" class.
MARKERS = {
    4: ["english", "nice", "wow"],  # mixed_language
    7: ["bannan", "bhull", "vhul"],  # spelling_error
}


def synth_noise_corpus(n, seed):
    rng = random.Random(seed)
    docs = []
    for i in range(n):
        words = [rng.choice(WORD_POOL) for _ in range(rng.randint(3, 7))]
        mask = 0
        for class_idx, markers in MARKERS.items():
            if rng.random() < 0.45:
                mask |= 1 << class_idx
                words.insert(rng.randrange(len(words) + 1), rng.choice(markers))
        if mask == 0:
            mask = 1 << 9  # others
        sentiment = rng.choice(list(SentimentLabel))
        docs.append(
            Document(
                id=f"s{seed}-{i}",
                text=" ".join(words),
                sentiment=sentiment,
                noise=NoiseLabelSet(mask),
            )
        )
    return docs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_data_error(capsys, *argv):
    """Run a command that must fail on its input: exit 2, one ERROR line, no traceback."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.rstrip("\n").split("\n")
    assert len(lines) == 1 and lines[0].startswith("ERROR "), err
    assert "Traceback" not in err
    return lines[0]


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture()
def small_corpus(tmp_path):
    docs = make_docs(
        ["khub bhalo laglo", "english very nice", "bannan bhull hoyeche"],
        sentiments=["positive", "neutral", "negative"],
        noises=["0000000001", "0000100000", "0000000100"],
    )
    path = tmp_path / "small.tsv"
    save_corpus(docs, path)
    return path


class TestStatsAndDedupe:
    def test_stats_counts_sum(self, capsys, small_corpus):
        summary = run_json(capsys, "stats", str(small_corpus))
        assert summary["documents"] == 3
        assert sum(summary["sentiment_counts"].values()) == 3

    def test_stats_tsv_side_outputs(self, capsys, tmp_path, small_corpus):
        hist = tmp_path / "hist.tsv"
        corr = tmp_path / "corr.tsv"
        run_json(capsys, "stats", str(small_corpus), "--hist-tsv", str(hist), "--corr-tsv", str(corr))
        assert hist.read_text(encoding="utf-8").count("\n") >= 1
        assert len(corr.read_text(encoding="utf-8").strip().split("\n")) == 100

    def test_stats_corr_tsv_of_constant_columns_warns_nothing(self, capsys, tmp_path, small_corpus):
        # small_corpus flags three classes, so the other seven columns are constant.
        corr = tmp_path / "corr.tsv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_json(capsys, "stats", str(small_corpus), "--corr-tsv", str(corr))
        assert caught == []
        assert "local_word\tword_misuse\t0.000000\n" in corr.read_text(encoding="utf-8")

    def test_stats_corr_tsv_needs_two_labeled_rows(self, capsys, tmp_path):
        src = tmp_path / "in.tsv"
        save_corpus(make_docs(["a b", "c"], noises=["1000000000", None]), src)
        error = run_data_error(capsys, "stats", str(src), "--corr-tsv", str(tmp_path / "corr.tsv"))
        assert error == "ERROR InsufficientData: label correlation needs at least 2 labeled documents"

    @pytest.mark.parametrize("flag", ["--hist-tsv", "--corr-tsv"])
    def test_stats_tsv_into_missing_directory(self, capsys, tmp_path, small_corpus, flag):
        target = tmp_path / "absent" / "out.tsv"
        error = run_data_error(capsys, "stats", str(small_corpus), flag, str(target))
        assert error.startswith("ERROR IoFailure:") and str(target) in error

    def test_dedupe(self, capsys, tmp_path):
        docs = make_docs(["a b", "a  b", "c"])
        src = tmp_path / "in.tsv"
        dst = tmp_path / "out.tsv"
        save_corpus(docs, src)
        result = run_json(capsys, "dedupe", str(src), str(dst))
        assert result == {"input": 3, "kept": 2, "removed": 1}
        assert len(load_corpus(dst).documents) == 2

    def test_dedupe_raw_mode(self, capsys, tmp_path):
        docs = make_docs(["a b", "a  b", "c"])
        src = tmp_path / "in.tsv"
        dst = tmp_path / "out.tsv"
        save_corpus(docs, src)
        result = run_json(capsys, "--no-normalize", "dedupe", str(src), str(dst))
        assert result["removed"] == 0

    @pytest.mark.parametrize("flag", ["--normalize", "--no-normalize"])
    def test_global_flag_after_subcommand_is_usage_error(self, capsys, tmp_path, flag):
        src, out = tmp_path / "in.tsv", tmp_path / "o.tsv"
        save_corpus(make_docs(["a b", "a  b"]), src)
        with pytest.raises(SystemExit) as excinfo:
            main(["dedupe", str(src), str(out), flag])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("ERROR")]
        assert errors == [f"ERROR Usage: unrecognized arguments: {flag}"]
        assert captured.out == "" and not out.exists()


class TestNoisePipeline:
    def test_train_predict_and_train_set_optimism(self, capsys, tmp_path):
        train_docs = synth_noise_corpus(80, seed=1)
        heldout_docs = synth_noise_corpus(30, seed=2)
        train = tmp_path / "train.tsv"
        heldout = tmp_path / "heldout.tsv"
        model = tmp_path / "model.json"
        save_corpus(train_docs, train)
        save_corpus(heldout_docs, heldout)

        run_json(
            capsys, "train-noise", str(train),
            "--analyzer", "char", "--nmin", "1", "--nmax", "3",
            "--epochs", "40", "--seed", "5", "--out", str(model),
        )
        on_train = run_json(capsys, "predict-noise", str(model), str(train))
        on_heldout = run_json(capsys, "predict-noise", str(model), str(heldout))
        f1_train = on_train["metrics"]["micro"]["f1"]
        f1_heldout = on_heldout["metrics"]["micro"]["f1"]
        assert f1_train >= f1_heldout
        assert f1_train > 0.6  # markers make the task learnable

    @pytest.mark.parametrize("task", ["noise", "sentiment"])
    def test_predictions_file_passes_loader(self, capsys, tmp_path, small_corpus, task):
        model = tmp_path / "model.json"
        out = tmp_path / "predicted.tsv"
        run_json(capsys, f"train-{task}", str(small_corpus), "--epochs", "5", "--out", str(model))
        result = run_json(capsys, f"predict-{task}", str(model), str(small_corpus), "--out", str(out))
        if task == "noise":
            expected = [NoiseLabelSet.from_bits(p["noise"]) for p in result["predictions"]]
        else:
            expected = [SentimentLabel.from_name(p["sentiment"]) for p in result["predictions"]]
        # The file holds the printed predictions in the predicted column and the input elsewhere.
        expected_docs = [
            dataclasses.replace(d, **{task: label})
            for d, label in zip(load_corpus(small_corpus).documents, expected)
        ]
        assert load_corpus(out).documents == expected_docs

    @pytest.mark.parametrize("task, labels", [
        ("noise", {"sentiments": ["positive", "neutral"]}),
        ("sentiment", {"noises": ["0000000001", "0000100000"]}),
    ])
    def test_no_rows_labeled_for_the_task_names_the_file(self, capsys, tmp_path, task, labels):
        train = tmp_path / "train.tsv"
        model = tmp_path / "model.json"
        save_corpus(make_docs(["khub bhalo laglo", "english very nice"], **labels), train)
        error = run_data_error(capsys, f"train-{task}", str(train), "--out", str(model))
        assert error == f"ERROR Malformed: {train}: no {task}-labeled rows to train on"
        assert not model.exists()

    def test_bundle_with_short_vocabulary_rejected(self, capsys, tmp_path, small_corpus):
        model = tmp_path / "noise.json"
        run_json(capsys, "train-noise", str(small_corpus), "--epochs", "5", "--out", str(model))

        def shorten(bundle):
            del bundle["tfidf"]["terms"][-10:]
            del bundle["tfidf"]["df"][-10:]

        edit_bundle(model, shorten)
        error = run_data_error(capsys, "predict-noise", str(model), str(small_corpus))
        assert error.startswith("ERROR DimensionMismatch:")

    @pytest.mark.parametrize(
        "flag,value", [("--lr", "nan"), ("--lr", "inf"), ("--c", "inf"), ("--c", "nan")]
    )
    def test_non_finite_hyperparameter_rejected(self, capsys, tmp_path, small_corpus, flag, value):
        model = tmp_path / "noise.json"
        error = run_data_error(
            capsys, "train-noise", str(small_corpus), flag, value, "--out", str(model)
        )
        assert error.startswith("ERROR Malformed:") and "finite" in error
        assert not model.exists()

    @pytest.mark.parametrize("key", ["weights", "biases"])
    def test_bundle_with_non_finite_parameters_rejected(self, capsys, tmp_path, small_corpus, key):
        model = tmp_path / "noise.json"
        run_json(capsys, "train-noise", str(small_corpus), "--epochs", "5", "--out", str(model))

        def poison(bundle):
            if key == "biases":
                bundle["linear"]["biases"][0] = float("nan")
            else:
                columns = np.frombuffer(bundle["linear"]["columns"], dtype="<f8").copy()
                columns[0] = np.inf
                bundle["linear"]["columns"] = columns.tobytes()

        edit_bundle(model, poison)
        error = run_data_error(capsys, "predict-noise", str(model), str(small_corpus))
        assert error.startswith("ERROR Malformed:") and str(model) in error

    @pytest.mark.parametrize("task", ["noise", "sentiment"])
    def test_bundle_with_wrongly_typed_field_rejected(self, capsys, tmp_path, small_corpus, task):
        model = tmp_path / f"{task}.json"
        run_json(capsys, f"train-{task}", str(small_corpus), "--epochs", "2", "--out", str(model))

        def retype(bundle):
            if task == "noise":  # integer terms, still strictly increasing
                bundle["tfidf"]["terms"] = list(range(len(bundle["tfidf"]["terms"])))
            else:  # a string of three characters, one per class
                bundle["linear"]["biases"] = "abc"

        edit_bundle(model, retype)
        error = run_data_error(capsys, f"predict-{task}", str(model), str(small_corpus))
        assert error.startswith(f"ERROR Malformed: {model}: ")

    @pytest.mark.parametrize("task, other", [("noise", "sentiment"), ("sentiment", "noise")])
    def test_bundle_of_the_other_kind_names_the_file(self, capsys, tmp_path, small_corpus, task, other):
        model = tmp_path / f"{other}.json"
        run_json(capsys, f"train-{other}", str(small_corpus), "--epochs", "2", "--out", str(model))
        error = run_data_error(capsys, f"predict-{task}", str(model), str(small_corpus))
        assert error.startswith(f"ERROR Malformed: {model}: expected model kind ")

    def test_reversed_class_names_rejected(self, capsys, tmp_path, small_corpus):
        model = tmp_path / "noise.json"
        run_json(capsys, "train-noise", str(small_corpus), "--epochs", "2", "--out", str(model))
        edit_bundle(model, lambda bundle: bundle["linear"]["class_names"].reverse())
        error = run_data_error(capsys, "predict-noise", str(model), str(small_corpus))
        assert error.startswith(f"ERROR Malformed: {model}: class_names must be the ovr_hinge classes")

    @pytest.mark.parametrize("task", ["noise", "sentiment"])
    def test_negative_seed_rejected(self, capsys, tmp_path, small_corpus, task):
        model = tmp_path / f"{task}.json"
        error = run_data_error(
            capsys, f"train-{task}", str(small_corpus), "--seed", "-1", "--out", str(model)
        )
        assert error == "ERROR Malformed: seed must be >= 0, got -1"
        assert not model.exists()

    def test_diverged_training_writes_no_bundle(self, capsys, tmp_path, small_corpus):
        model = tmp_path / "noise.json"
        error = run_data_error(
            capsys, "train-noise", str(small_corpus), "--lr", "1e308", "--c", "1e308",
            "--out", str(model),
        )
        assert error.startswith("ERROR DataError: training diverged")
        assert "--lr" in error and "--c" in error
        assert not model.exists()

    def test_min_df_above_every_document_frequency_rejected(self, capsys, tmp_path, small_corpus):
        model = tmp_path / "noise.json"
        error = run_data_error(
            capsys, "train-noise", str(small_corpus), "--min-df", "1000", "--out", str(model)
        )
        assert error.startswith("ERROR InsufficientData:") and "min_df=1000" in error
        assert not model.exists()

    def test_v3_bundle_must_be_retrained(self, capsys, tmp_path, small_corpus):
        model = tmp_path / "noise.json"
        run_json(capsys, "train-noise", str(small_corpus), "--epochs", "2", "--out", str(model))
        edit_bundle(model, lambda bundle: bundle.update(version="noisekit-bundle-v3"))
        error = run_data_error(capsys, "predict-noise", str(model), str(small_corpus))
        assert error == f"ERROR Malformed: {model}: unsupported bundle version 'noisekit-bundle-v3'"

    def test_train_noise_deterministic(self, capsys, tmp_path, small_corpus):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_json(capsys, "train-noise", str(small_corpus), "--seed", "3", "--out", str(a))
        run_json(capsys, "train-noise", str(small_corpus), "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestGoldenPredictions:
    """Pinned sha256 of the predict stdout; a change that moves a pin changes predictions."""

    NOISE_SHA256 = "ac51855ba20ae17f017db6fe6a2682e795e2c09cc05c33a8bbb52ccc7572b1f0"
    SENTIMENT_SHA256 = "9b076b90e0c0c49e62f3e1550872eabbe3d47303041d7fc8ea53b16a5537caca"
    # The noisekit-bundle-v6 file of the noise training run; moves when the format drifts.
    NOISE_BUNDLE_SHA256 = "d082132f624f98511f18794d42da1d822b4d6cea596b62dac4662a8b917a6521"
    # Full-precision bundles; with c != 1 they move if the SGD arithmetic is re-associated.
    SENTIMENT_BUNDLE_SHA256 = "8f942efbe628ba323c343480e9f7d7f235e7a0593008d5b24a306ee0b4d2eaea"
    NOISE_BUNDLE_C_SHA256 = "0629ebf8bbd210bcd3ad03b187c607c8ce6c75d0fd16f3adc422f171464bc314"
    SENTIMENT_BUNDLE_C_SHA256 = "ae8cb8470c08d1d9ee0f311f1a829d15823d316ccc13f8473d12e47861c4f966"
    SENTIMENT_FLAGS = (
        "--analyzer", "char+word", "--nmax", "2", "--auto-weights", "--epochs", "8", "--seed", "4",
    )
    C_FLAGS = ("--c", "0.5", "--lr", "0.07", "--epochs", "8", "--seed", "4")

    @pytest.fixture()
    def corpora(self, tmp_path):
        train = tmp_path / "train.tsv"
        test = tmp_path / "test.tsv"
        save_corpus(synth_noise_corpus(60, seed=11), train)
        save_corpus(synth_noise_corpus(20, seed=12), test)
        return train, test

    def predict_sha256(self, capsys, tmp_path, corpora, task, *train_flags):
        train, test = corpora
        model = tmp_path / f"{task}.json"
        run_json(capsys, f"train-{task}", str(train), *train_flags, "--out", str(model))
        code, out, err = run_cli(capsys, f"predict-{task}", str(model), str(test))
        assert code == 0, err
        return hashlib.sha256(out.encode("utf-8")).hexdigest()

    def bundle_sha256(self, capsys, tmp_path, corpora, task, *train_flags):
        model = tmp_path / f"{task}.json"
        run_json(capsys, f"train-{task}", str(corpora[0]), *train_flags, "--out", str(model))
        return hashlib.sha256(model.read_bytes()).hexdigest()

    def test_noise_bundle_bytes(self, capsys, tmp_path, corpora):
        digest = self.bundle_sha256(capsys, tmp_path, corpora, "noise", "--epochs", "8", "--seed", "4")
        assert digest == self.NOISE_BUNDLE_SHA256

    def test_sentiment_bundle_bytes(self, capsys, tmp_path, corpora):
        digest = self.bundle_sha256(capsys, tmp_path, corpora, "sentiment", *self.SENTIMENT_FLAGS)
        assert digest == self.SENTIMENT_BUNDLE_SHA256

    def test_noise_bundle_bytes_c_half(self, capsys, tmp_path, corpora):
        digest = self.bundle_sha256(capsys, tmp_path, corpora, "noise", *self.C_FLAGS)
        assert digest == self.NOISE_BUNDLE_C_SHA256

    def test_sentiment_bundle_bytes_c_half(self, capsys, tmp_path, corpora):
        digest = self.bundle_sha256(
            capsys, tmp_path, corpora, "sentiment", "--auto-weights", *self.C_FLAGS
        )
        assert digest == self.SENTIMENT_BUNDLE_C_SHA256

    def test_predict_noise_stdout(self, capsys, tmp_path, corpora):
        digest = self.predict_sha256(
            capsys, tmp_path, corpora, "noise", "--epochs", "8", "--seed", "4"
        )
        assert digest == self.NOISE_SHA256

    def test_predict_sentiment_stdout(self, capsys, tmp_path, corpora):
        digest = self.predict_sha256(capsys, tmp_path, corpora, "sentiment", *self.SENTIMENT_FLAGS)
        assert digest == self.SENTIMENT_SHA256


class TestGoldenStats:
    """Pinned sha256 of the `stats` stdout and of both of its TSV side outputs."""

    STDOUT_SHA256 = "2b6435aa924e3d8ab8c721fee3894deafb1cfe9802f8c5e9d635d03e4d403a3b"
    HIST_SHA256 = "48d716cfe0d1d22d5cedd371b3aaf6b00e70768e2ca0c5ef5568acfbc800844c"
    CORR_SHA256 = "d64f533677bea4d92f06af26643b2c4673a567eb2377c7ec9e3a64b7746a33c7"

    def test_stats_outputs(self, capsys, tmp_path):
        # Unlabeled rows count in the sentiment and length blocks but not in the noise blocks.
        unlabeled = make_docs(
            ["khub bhalo", "onek sundor video dekhe", "dada"],
            sentiments=[None, "negative", None],
            noises=[None, None, "0000000101"],
        )
        corpus = tmp_path / "corpus.tsv"
        save_corpus(synth_noise_corpus(60, seed=11) + unlabeled, corpus)
        hist, corr = tmp_path / "hist.tsv", tmp_path / "corr.tsv"
        code, out, err = run_cli(
            capsys, "stats", str(corpus), "--hist-tsv", str(hist), "--corr-tsv", str(corr)
        )
        assert code == 0, err
        digests = [
            hashlib.sha256(data).hexdigest()
            for data in (out.encode("utf-8"), hist.read_bytes(), corr.read_bytes())
        ]
        assert digests == [self.STDOUT_SHA256, self.HIST_SHA256, self.CORR_SHA256]


class TestSentimentPipeline:
    def test_train_predict_with_auto_weights(self, capsys, tmp_path):
        docs = synth_noise_corpus(60, seed=3)
        train = tmp_path / "train.tsv"
        model = tmp_path / "model.json"
        save_corpus(docs, train)
        result = run_json(
            capsys, "train-sentiment", str(train), "--auto-weights",
            "--epochs", "10", "--seed", "1", "--out", str(model),
        )
        assert result["class_weights"] is not None
        prediction = run_json(capsys, "predict-sentiment", str(model), str(train))
        assert "metrics" in prediction
        assert len(prediction["predictions"]) == 60
        probs = prediction["predictions"][0]["probabilities"]
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-3)

    def test_auto_weights_names_the_file_and_the_missing_classes(self, capsys, tmp_path):
        train, model = tmp_path / "t.tsv", tmp_path / "s.json"
        save_corpus(make_docs(["khub bhalo", "onek sundor"], sentiments=["positive"] * 2), train)
        error = run_data_error(capsys, "train-sentiment", str(train), "--auto-weights", "--out", str(model))
        assert error == (
            f"ERROR InsufficientData: {train}: --auto-weights needs every sentiment class; "
            "no row is labeled neutral, negative"
        )
        assert not model.exists()

    def test_train_sentiment_deterministic(self, capsys, tmp_path, small_corpus):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            run_json(
                capsys, "train-sentiment", str(small_corpus), "--auto-weights",
                "--epochs", "5", "--seed", "2", "--out", str(path),
            )
        assert a.read_bytes() == b.read_bytes()


class TestReduceCommand:
    def make_dict_file(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("khub\t10\nbhalo\t8\nlaglo\t6\nbanan\t4\nbhul\t4\n", encoding="utf-8")
        return path

    def test_spell_reduce(self, capsys, tmp_path, small_corpus):
        out = tmp_path / "reduced.tsv"
        run_json(
            capsys, "reduce", str(small_corpus), "--method", "spell",
            "--dict", str(self.make_dict_file(tmp_path)), "--out", str(out),
        )
        assert len(load_corpus(out).documents) == 3

    def test_mask_random_deterministic(self, capsys, tmp_path, small_corpus):
        dict_file = self.make_dict_file(tmp_path)
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        for out in (a, b):
            run_json(
                capsys, "reduce", str(small_corpus), "--method", "mask-random",
                "--dict", str(dict_file), "--seed", "7", "--p", "0.5", "--out", str(out),
            )
        assert a.read_bytes() == b.read_bytes()
        # Each document is seeded from (seed, id), not from its row position.
        assert hashlib.sha256(a.read_bytes()).hexdigest() == (
            "72d30f68e30afd1c9a01e7a8ac8b12fc9d2d13a91d5bfea331b2ef07cea379d4"
        )

    def test_mask_random_rows_independent_of_row_order(self, capsys, tmp_path):
        rng = random.Random(3)
        docs = make_docs([" ".join(rng.choices(WORD_POOL, k=6)) for _ in range(12)])
        shuffled = docs[:]
        random.Random(4).shuffle(shuffled)
        rows = []
        for name, corpus in (("in", docs), ("shuffled", shuffled)):
            src, out = tmp_path / f"{name}.tsv", tmp_path / f"{name}-masked.tsv"
            save_corpus(corpus, src)
            run_json(
                capsys, "reduce", str(src), "--method", "mask-random", "--p", "0.5", "--seed", "7",
                "--dict", str(self.make_dict_file(tmp_path)), "--out", str(out),
            )
            rows.append(out.read_text(encoding="utf-8").splitlines()[1:])
        by_id = {row.split("\t", 1)[0]: row for row in rows[0]}
        assert rows[1] == [by_id[d.id] for d in shuffled]
        assert [row.split("\t")[1] for row in rows[0]] != [d.text for d in docs]

    def test_mask_oov_output_pinned(self, capsys, tmp_path, small_corpus):
        out = tmp_path / "oov.tsv"
        run_json(
            capsys, "reduce", str(small_corpus), "--method", "mask-oov",
            "--dict", str(self.make_dict_file(tmp_path)), "--out", str(out),
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d5154ed5957b61e761a19c2bce1a6f5af265926c361092f0edc9871107631d98"
        )

    def test_mask_filler_built_once_per_run(self, capsys, tmp_path, small_corpus, monkeypatch):
        calls = []
        build = NgramMaskFiller.from_dictionary.__func__

        def counting(cls, dictionary):
            calls.append(dictionary)
            return build(cls, dictionary)

        monkeypatch.setattr(NgramMaskFiller, "from_dictionary", classmethod(counting))
        run_json(
            capsys, "reduce", str(small_corpus), "--method", "mask-random", "--p", "1",
            "--dict", str(self.make_dict_file(tmp_path)), "--out", str(tmp_path / "o.tsv"),
        )
        assert len(calls) == 1

    def test_mask_random_p_zero_needs_no_dictionary(self, capsys, tmp_path, small_corpus):
        out = tmp_path / "o.tsv"
        run_json(
            capsys, "reduce", str(small_corpus), "--method", "mask-random", "--p", "0",
            "--out", str(out),
        )
        texts = [d.text for d in load_corpus(out).documents]
        assert texts == [d.text for d in load_corpus(small_corpus).documents]

    def test_mask_random_p_zero_keeps_mask_literal(self, capsys, tmp_path):
        src, out = tmp_path / "in.tsv", tmp_path / "o.tsv"
        save_corpus(make_docs(["ami <MASK> bhalo"]), src)
        run_json(
            capsys, "reduce", str(src), "--method", "mask-random", "--p", "0",
            "--dict", str(self.make_dict_file(tmp_path)), "--out", str(out),
        )
        assert [d.text for d in load_corpus(out).documents] == ["ami <MASK> bhalo"]

    @pytest.mark.parametrize("flags, error", [
        (["--method", "spell"], "ERROR MissingResource: method spell needs a dictionary"),
        (["--method", "mask-random", "--p", "1.5"],
         "ERROR Malformed: mask probability must be in [0, 1], got 1.5"),
        (["--method", "mask-oov"], "ERROR MissingResource: method mask-oov needs a dictionary"),
        (["--method", "backtranslate"], "ERROR MissingResource: method backtranslate needs a client"),
    ], ids=["spell-without-dict", "mask-random-p-1.5", "mask-oov-without-dict", "backtranslate-without-client"])
    def test_inputs_checked_before_any_document(self, capsys, tmp_path, flags, error):
        # A header-only corpus has no document to reduce, so only the up-front check can fail.
        src, out = tmp_path / "empty.tsv", tmp_path / "o.tsv"
        src.write_text(CORPUS_HEADER + "\n", encoding="utf-8")
        assert run_data_error(capsys, "reduce", str(src), *flags, "--out", str(out)) == error
        assert not out.exists()

    @pytest.mark.parametrize("method", ["backtranslate", "spell"])
    def test_unstartable_client_fails_before_any_document(self, capsys, tmp_path, method):
        # `spell` never sends a request, and a header-only corpus has no document to send.
        src, out = tmp_path / "empty.tsv", tmp_path / "o.tsv"
        src.write_text(CORPUS_HEADER + "\n", encoding="utf-8")
        code, stdout, err = run_cli(
            capsys, "reduce", str(src), "--method", method, "--dict", str(self.make_dict_file(tmp_path)),
            "--client", "/nonexistent/prog", "--out", str(out),
        )
        assert (code, stdout) == (3, "")
        errors = err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("ERROR ClientUnavailable: cannot start client ")
        assert not out.exists()

    def test_backtranslate_with_fixture(self, capsys, tmp_path, small_corpus):
        corpus = load_corpus(small_corpus)
        lines = []
        for doc in corpus.documents:
            lines.append({"task": "translate", "src": "bn", "tgt": "en", "text_in": doc.text, "text_out": doc.text.upper()})
            lines.append({"task": "translate", "src": "en", "tgt": "bn", "text_in": doc.text.upper(), "text_out": doc.text})
        fixture = tmp_path / "fx.jsonl"
        fixture.write_text("\n".join(json.dumps(l) for l in lines) + "\n", encoding="utf-8")
        out = tmp_path / "bt.tsv"
        run_json(
            capsys, "reduce", str(small_corpus), "--method", "backtranslate",
            "--fixture", str(fixture), "--out", str(out),
        )
        reduced = load_corpus(out)
        assert [d.text for d in reduced.documents] == [d.text for d in corpus.documents]

    def test_output_that_normalizes_to_empty_keeps_the_original(self, capsys, tmp_path, small_corpus):
        # U+241F is stripped by normalization, so this reply would load as empty text.
        corpus = load_corpus(small_corpus)
        lines = []
        for doc in corpus.documents:
            lines.append({"task": "translate", "src": "bn", "tgt": "en", "text_in": doc.text, "text_out": "x"})
        lines.append({"task": "translate", "src": "en", "tgt": "bn", "text_in": "x", "text_out": "\u241f"})
        fixture = tmp_path / "fx.jsonl"
        fixture.write_text("\n".join(json.dumps(l) for l in lines) + "\n", encoding="utf-8")
        out = tmp_path / "bt.tsv"
        with pytest.warns(UserWarning, match="keeping the original"):
            run_json(
                capsys, "reduce", str(small_corpus), "--method", "backtranslate",
                "--fixture", str(fixture), "--out", str(out),
            )
        assert [d.text for d in load_corpus(out).documents] == [d.text for d in corpus.documents]
        report = run_json(capsys, "eval-reduction", str(out), "--truth", str(small_corpus))
        assert report["reports"][0]["rouge_l"] == 1.0

    def test_each_warning_is_one_line(self, tmp_path, small_corpus):
        # A subprocess, so that the warnings print as they would in a shell.
        corpus = load_corpus(small_corpus)
        lines = [{"task": "translate", "src": "en", "tgt": "bn", "text_in": "x", "text_out": "\u241f"}]
        for doc in corpus.documents:
            lines.append({"task": "translate", "src": "bn", "tgt": "en", "text_in": doc.text, "text_out": "x"})
        lines.append(lines[-1])
        fixture = tmp_path / "fx.jsonl"
        fixture.write_text("\n".join(json.dumps(l) for l in lines) + "\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "noisekit.cli", "reduce", str(small_corpus), "--method",
             "backtranslate", "--fixture", str(fixture), "--out", str(tmp_path / "bt.tsv")],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        key = ("translate", "bn", "en", corpus.documents[-1].text)
        assert proc.stderr == (
            f"WARNING: {fixture}, line 5: duplicate fixture key {key!r}; last entry wins\n"
            + "".join(f"WARNING: {d.id}: reduction produced empty text; keeping the original\n"
                      for d in corpus.documents)
        )

    def test_fixture_miss_exits_3(self, capsys, tmp_path, small_corpus):
        fixture = tmp_path / "fx.jsonl"
        fixture.write_text("", encoding="utf-8")
        out = tmp_path / "bt.tsv"
        code, _, err = run_cli(
            capsys, "reduce", str(small_corpus), "--method", "backtranslate",
            "--fixture", str(fixture), "--out", str(out),
        )
        assert code == 3
        assert err.startswith("ERROR FixtureMiss:")

    @pytest.mark.parametrize("field", ["task", "src", "tgt", "text_in", "text_out"])
    def test_lone_surrogate_in_fixture_field_is_malformed(self, capsys, tmp_path, small_corpus, field):
        # JSON can escape a lone surrogate ("\ud800"), which no UTF-8 output file can hold.
        entry = {"task": "translate", "src": "bn", "tgt": "en", "text_in": "a", "text_out": "b"}
        entry[field] = "\ud800"
        fixture, out = tmp_path / "fx.jsonl", tmp_path / "bt.tsv"
        fixture.write_text(json.dumps(entry) + "\n", encoding="utf-8")
        error = run_data_error(
            capsys, "reduce", str(small_corpus), "--method", "backtranslate",
            "--fixture", str(fixture), "--out", str(out),
        )
        assert error == f"ERROR Malformed: {fixture}, line 1: fixture field {field!r} holds a lone surrogate"
        assert not out.exists()

    def test_surrogate_pair_in_fixture_loads(self, capsys, tmp_path, small_corpus):
        # json.dumps escapes U+1F600 as the pair "\ud83d\ude00", which decodes to one code point.
        corpus = load_corpus(small_corpus)
        lines = []
        for doc in corpus.documents:
            lines.append({"task": "translate", "src": "bn", "tgt": "en", "text_in": doc.text, "text_out": doc.text})
            lines.append({"task": "translate", "src": "en", "tgt": "bn", "text_in": doc.text, "text_out": doc.text + " \U0001f600"})
        fixture, out = tmp_path / "fx.jsonl", tmp_path / "bt.tsv"
        fixture.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        assert "\\ud83d\\ude00" in fixture.read_text(encoding="utf-8")
        run_json(
            capsys, "reduce", str(small_corpus), "--method", "backtranslate",
            "--fixture", str(fixture), "--out", str(out),
        )
        assert [d.text for d in load_corpus(out).documents] == [d.text + " \U0001f600" for d in corpus.documents]

    @pytest.mark.parametrize("reply", [
        "5", "{'id': json.loads(line)['id'], 'text': None}",
        pytest.param("{'id': json.loads(line)['id'], 'text': '\\ud800'}", id="lone-surrogate"),
    ])
    def test_bad_client_reply_exits_3(self, capsys, tmp_path, small_corpus, reply):
        script = tmp_path / "client.py"
        script.write_text(
            f"import sys, json\nfor line in sys.stdin:\n    print(json.dumps({reply}), flush=True)\n",
            encoding="utf-8",
        )
        out = tmp_path / "bt.tsv"
        code, _, err = run_cli(
            capsys, "reduce", str(small_corpus), "--method", "backtranslate",
            "--client", shlex.join([sys.executable, str(script)]), "--out", str(out),
        )
        assert code == 3, err
        assert err.startswith("ERROR ClientUnavailable:")
        assert not out.exists()

    def test_non_utf8_client_reply_exits_3(self, capsys, tmp_path, small_corpus):
        script = tmp_path / "client.py"
        script.write_text(
            "import sys\nfor line in sys.stdin:\n"
            "    sys.stdout.buffer.write(b'\\xff\\n')\n    sys.stdout.flush()\n",
            encoding="utf-8",
        )
        out = tmp_path / "bt.tsv"
        code, _, err = run_cli(
            capsys, "reduce", str(small_corpus), "--method", "backtranslate",
            "--client", shlex.join([sys.executable, str(script)]), "--out", str(out),
        )
        assert code == 3, err
        assert err.startswith("ERROR ClientUnavailable: client reply is not UTF-8")
        assert not out.exists()

    @pytest.mark.parametrize("reply, stderr", [
        pytest.param("{'id': request['id'], 'text': request['text']}", "", id="echo"),
        pytest.param("5", "ERROR ClientUnavailable: client reply is not a JSON object: 5\n", id="bad-reply"),
    ])
    def test_client_pipes_closed_under_dev_mode(self, tmp_path, small_corpus, reply, stderr):
        # Development mode prints a ResourceWarning for a pipe left open, as a WARNING line.
        script = tmp_path / "client.py"
        script.write_text(
            "import sys, json\nfor line in sys.stdin:\n    request = json.loads(line)\n"
            f"    print(json.dumps({reply}), flush=True)\n",
            encoding="utf-8",
        )
        out = tmp_path / "bt.tsv"
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "noisekit.cli", "reduce", str(small_corpus),
             "--method", "backtranslate", "--client", shlex.join([sys.executable, str(script)]),
             "--out", str(out)],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.stderr == stderr
        assert proc.returncode == (3 if stderr else 0)
        assert out.exists() == (not stderr)

    @pytest.mark.parametrize("client", [
        pytest.param("import sys\nsys.stdin.read()\n", id="silent"),
        pytest.param("import sys\nsys.stdout.write('{\"id\": 0, \"te')\nsys.stdout.flush()\nsys.stdin.read()\n",
                     id="mid-line"),
    ])
    def test_unanswering_client_times_out_under_dev_mode(self, tmp_path, small_corpus, client):
        # The deadline is lowered in the child; each stalled client exits once its stdin closes.
        script = tmp_path / "client.py"
        script.write_text(client, encoding="utf-8")
        out = tmp_path / "bt.tsv"
        run = (
            "import sys\nfrom noisekit import cli, reduce\n"
            "reduce.CLIENT_TIMEOUT_S = 0.5\nsys.exit(cli.main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", run, "reduce", str(small_corpus),
             "--method", "backtranslate", "--client", shlex.join([sys.executable, str(script)]),
             "--out", str(out)],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert proc.stderr == "ERROR ClientUnavailable: client sent no reply within 0.5 s (sent id 0)\n"
        assert proc.returncode == 3
        assert not out.exists()

    def test_every_copy_is_reaped(self, capsys, tmp_path):
        # Five documents start four copies; each records its pid, then answers every request badly.
        src, out, pids = tmp_path / "in.tsv", tmp_path / "o.tsv", tmp_path / "pids.txt"
        save_corpus(make_docs([f"text {i}" for i in range(5)]), src)
        script = tmp_path / "client.py"
        script.write_text(
            f"import os, sys\nwith open({str(pids)!r}, 'a') as fh:\n    fh.write(f'{{os.getpid()}}\\n')\n"
            "for line in sys.stdin:\n    print(5, flush=True)\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(
            capsys, "reduce", str(src), "--method", "backtranslate",
            "--client", shlex.join([sys.executable, str(script)]), "--out", str(out),
        )
        assert (code, err) == (3, "ERROR ClientUnavailable: client reply is not a JSON object: 5\n")
        started = [int(pid) for pid in pids.read_text(encoding="utf-8").split()]
        assert len(started) == 4
        for pid in started:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.parametrize("method", ["spell", "mask-oov"])
    def test_methods_without_requests_start_one_copy(self, capsys, tmp_path, method):
        src, out, pids = tmp_path / "in.tsv", tmp_path / "o.tsv", tmp_path / "pids.txt"
        save_corpus(make_docs([f"text {i}" for i in range(5)]), src)
        script = tmp_path / "client.py"
        script.write_text(
            f"import os, sys\nwith open({str(pids)!r}, 'a') as fh:\n    fh.write(f'{{os.getpid()}}\\n')\n"
            "sys.stdin.read()\n",
            encoding="utf-8",
        )
        run_json(
            capsys, "reduce", str(src), "--method", method, "--dict", str(self.make_dict_file(tmp_path)),
            "--client", shlex.join([sys.executable, str(script)]), "--out", str(out),
        )
        assert len(pids.read_text(encoding="utf-8").split()) == 1

    def test_lowest_index_failure_is_reported(self, capsys, tmp_path):
        # Row 2's bad reply comes last in time, but it is the lowest-index failure in every run.
        src, out = tmp_path / "in.tsv", tmp_path / "o.tsv"
        save_corpus(make_docs(["ok zero", "ok one", "slow A two", "B three", "ok four", "B five",
                               "B six", "ok seven"]), src)
        script = tmp_path / "client.py"
        script.write_text(
            "import json, sys, time\nfor line in sys.stdin:\n    request = json.loads(line)\n"
            "    text = request['text']\n"
            "    if 'slow' in text:\n        time.sleep(0.3)\n"
            "    if 'A' in text:\n        print(5, flush=True)\n"
            "    elif 'B' in text:\n        print(6, flush=True)\n"
            "    else:\n        print(json.dumps({'id': request['id'], 'text': text}), flush=True)\n",
            encoding="utf-8",
        )
        for _ in range(5):
            code, stdout, err = run_cli(
                capsys, "reduce", str(src), "--method", "backtranslate",
                "--client", shlex.join([sys.executable, str(script)]), "--out", str(out),
            )
            assert (code, stdout) == (3, "")
            assert err == "ERROR ClientUnavailable: client reply is not a JSON object: 5\n"
            assert not out.exists()

    def test_client_and_fixture_are_mutually_exclusive(self, capsys, tmp_path, small_corpus):
        out = tmp_path / "bt.tsv"
        with pytest.raises(SystemExit) as excinfo:
            main(["reduce", str(small_corpus), "--method", "backtranslate", "--client", "translator",
                  "--fixture", str(tmp_path / "fx.jsonl"), "--out", str(out)])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("ERROR")]
        assert errors == ["ERROR Usage: argument --fixture: not allowed with argument --client"]
        assert captured.out == "" and not out.exists()

    def test_missing_dictionary_exits_2(self, capsys, tmp_path, small_corpus):
        out = tmp_path / "x.tsv"
        code, _, err = run_cli(
            capsys, "reduce", str(small_corpus), "--method", "spell", "--out", str(out)
        )
        assert code == 2
        assert err.startswith("ERROR MissingResource:")


class TestEvalReduction:
    def test_end_to_end(self, capsys, tmp_path):
        truth_docs = make_docs(["the cat sat", "a dog ran"])
        noisy_docs = make_docs(["teh cat sat", "a dog rnn"])
        identity_docs = make_docs(["teh cat sat", "a dog rnn"])
        paths = {}
        for name, docs in (("truth", truth_docs), ("noisy", noisy_docs), ("identity", identity_docs)):
            paths[name] = tmp_path / f"{name}.tsv"
            save_corpus(docs, paths[name])
        emb = tmp_path / "emb.txt"
        words = ["the", "cat", "sat", "a", "dog", "ran", "teh", "rnn"]
        emb.write_text(
            f"{len(words)} 2\n" + "".join(f"{w} 1.0 {i}.0\n" for i, w in enumerate(words)),
            encoding="utf-8",
        )
        tallies = tmp_path / "human.json"
        tallies.write_text('{"identity": [379, 1000]}', encoding="utf-8")
        result = run_json(
            capsys, "eval-reduction", str(paths["identity"]),
            "--truth", str(paths["truth"]), "--inputs", str(paths["noisy"]),
            "--embeddings", str(emb), "--human-tallies", str(tallies),
        )
        report = result["reports"][0]
        assert report["method"] == "identity"
        assert report["human_eval"] == pytest.approx(37.9)
        assert report["composite"] < report["embedding_similarity"]
        assert 0.0 <= report["bleu"] <= 1.0

    @pytest.fixture()
    def eval_files(self, tmp_path):
        truth = tmp_path / "truth.tsv"
        output = tmp_path / "spell.tsv"
        save_corpus(make_docs(["the cat sat"]), truth)
        save_corpus(make_docs(["teh cat sat"]), output)
        return truth, output

    def test_missing_human_tallies(self, capsys, tmp_path, eval_files):
        truth, output = eval_files
        missing = tmp_path / "absent.json"
        error = run_data_error(
            capsys, "eval-reduction", str(output), "--truth", str(truth),
            "--human-tallies", str(missing),
        )
        assert error.startswith("ERROR IoFailure:") and str(missing) in error

    def test_human_tallies_not_json(self, capsys, tmp_path, eval_files):
        truth, output = eval_files
        tallies = tmp_path / "human.json"
        tallies.write_text("spell: 3 of 4\n", encoding="utf-8")
        error = run_data_error(
            capsys, "eval-reduction", str(output), "--truth", str(truth),
            "--human-tallies", str(tallies),
        )
        assert error.startswith("ERROR Malformed:") and str(tallies) in error

    def test_human_tallies_wrong_shape(self, capsys, tmp_path, eval_files):
        truth, output = eval_files
        tallies = tmp_path / "human.json"
        tallies.write_text('{"spell": [3, 4, 5]}', encoding="utf-8")
        error = run_data_error(
            capsys, "eval-reduction", str(output), "--truth", str(truth),
            "--human-tallies", str(tallies),
        )
        assert error.startswith("ERROR Malformed:") and str(tallies) in error

    @pytest.mark.parametrize("counts", ["[5, 3]", "[-1, 3]", "[0, 0]"])
    def test_human_tallies_invalid_counts(self, capsys, tmp_path, eval_files, counts):
        truth, output = eval_files
        tallies = tmp_path / "human.json"
        tallies.write_text(f'{{"spell": {counts}}}', encoding="utf-8")
        error = run_data_error(
            capsys, "eval-reduction", str(output), "--truth", str(truth),
            "--human-tallies", str(tallies),
        )
        assert error.startswith(f"ERROR Malformed: {tallies}: 'spell': need 0 <= accurate")

    def eval_argv(self, tmp_path, output_docs):
        truth = tmp_path / "truth.tsv"
        noisy = tmp_path / "noisy.tsv"
        output = tmp_path / "out.tsv"
        save_corpus(make_docs(["the cat sat", "a dog ran", "it was red"]), truth)
        save_corpus(make_docs(["teh cat sat", "a dog rnn", "it wsa red"]), noisy)
        save_corpus(output_docs, output)
        return ["eval-reduction", str(output), "--truth", str(truth), "--inputs", str(noisy)]

    def test_rows_matched_by_id(self, capsys, tmp_path):
        docs = make_docs(["the cat sat", "a dog rn", "it was red"])
        in_order = run_json(capsys, *self.eval_argv(tmp_path, docs))
        assert run_json(capsys, *self.eval_argv(tmp_path, docs[::-1])) == in_order

    @pytest.mark.parametrize("ids", [["d0", "d1"], ["d0", "d1", "d2", "d3"], ["d0", "d1", "x"]])
    def test_output_ids_must_match_truth(self, capsys, tmp_path, ids):
        docs = [Document(id=i, text="the cat sat") for i in ids]
        error = run_data_error(capsys, *self.eval_argv(tmp_path, docs))
        assert error.startswith("ERROR Malformed:") and str(tmp_path / "out.tsv") in error

    @pytest.mark.parametrize("component", ["inf", "-inf"])
    def test_infinite_embedding_rejected(self, capsys, tmp_path, eval_files, component):
        truth, output = eval_files
        emb = tmp_path / "emb.txt"
        emb.write_text(f"2 2\nthe 1.0 0.0\ncat 0.5 {component}\n", encoding="utf-8")
        error = run_data_error(
            capsys, "eval-reduction", str(output), "--truth", str(truth), "--embeddings", str(emb)
        )
        assert error.startswith("ERROR Malformed:") and f"{emb}, line 3" in error

    def test_header_only_truth_rejected(self, tmp_path):
        # A subprocess, so that numpy warnings printed before the error would show on stderr.
        truth = tmp_path / "truth.tsv"
        output = tmp_path / "spell.tsv"
        save_corpus([], truth)
        save_corpus([], output)
        proc = subprocess.run(
            [sys.executable, "-m", "noisekit.cli", "eval-reduction", str(output), "--truth", str(truth)],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"ERROR Malformed: {truth}: no data rows\n"

    def test_whitespace_only_text_rejected_in_raw_mode(self, capsys, tmp_path, eval_files):
        # Raw loading keeps the text as written, so "   " must not reach BLEU as a reference.
        _, output = eval_files
        truth = tmp_path / "blank.tsv"
        truth.write_text(CORPUS_HEADER + "\nd0\t   \t-\t-\n", encoding="utf-8")
        error = run_data_error(capsys, "--no-normalize", "eval-reduction", str(output), "--truth", str(truth))
        assert error == f"ERROR Malformed: {truth}, line 2, column 2: empty text"

    def test_outputs_with_same_stem_rejected(self, capsys, tmp_path, eval_files):
        truth, output = eval_files
        other = tmp_path / "other" / "spell.tsv"
        other.parent.mkdir()
        save_corpus(make_docs(["the cat sat"]), other)
        error = run_data_error(capsys, "eval-reduction", str(output), str(other), "--truth", str(truth))
        assert error.startswith("ERROR Malformed:")
        assert str(output) in error and str(other) in error


    def test_non_utf8_method_name_rejected(self, tmp_path, eval_files):
        # A subprocess, so the name reaches argv as the raw byte 0xFF, as a shell passes it.
        truth, output = eval_files
        name = os.path.join(os.fsencode(tmp_path), b"\xff.tsv")
        with open(name, "wb") as fh:
            fh.write(output.read_bytes())
        proc = subprocess.run(
            [sys.executable, "-m", "noisekit.cli", "eval-reduction", name, "--truth", str(truth)],
            capture_output=True, env=subprocess_env(),
        )
        assert proc.returncode == 2 and proc.stdout == b""
        # stderr writes the surrogate that stands for 0xFF as the escape "\udcff".
        assert proc.stderr.decode("ascii") == (
            f"ERROR Malformed: {tmp_path}/\\udcff.tsv: method name '\\udcff', the file's stem, is not UTF-8\n"
        )

class TestAgreementCommands:
    def test_kappa(self, capsys, tmp_path):
        matrix = tmp_path / "m.tsv"
        matrix.write_text("a\tb\n" + "2\t2\n" * 6, encoding="utf-8")
        result = run_json(capsys, "agreement", "kappa", str(matrix))
        assert result["kappa"] == pytest.approx(-1 / 3)

    @pytest.mark.parametrize(
        "row",
        ["99999999999999999999999\t1", "9223372036854775807\t9223372036854775806"],
        ids=["count", "item-total"],
    )
    def test_kappa_counts_beyond_int64_rejected(self, capsys, tmp_path, row):
        matrix = tmp_path / "m.tsv"
        matrix.write_text(f"a\tb\n1\t1\n{row}\n", encoding="utf-8")
        error = run_data_error(capsys, "agreement", "kappa", str(matrix))
        assert error.startswith(f"ERROR MalformedMatrix: {matrix}, line 3: ")
        assert "64-bit" in error

    @pytest.mark.parametrize(
        "rows, line, reason",
        [
            ("2\t2\n3\t-1\n", 3, "rating counts must be non-negative"),
            ("1\t1\n2\t1\n1\t1\n", 3, "every item must have the same number of ratings"),
            ("1\t0\n0\t1\n", 2, "need at least 2 raters per item"),
        ],
        ids=["negative", "unequal-totals", "one-rater"],
    )
    def test_kappa_rejection_names_the_line(self, capsys, tmp_path, rows, line, reason):
        matrix = tmp_path / "m.tsv"
        matrix.write_text(f"a\tb\n\n{rows}", encoding="utf-8")
        error = run_data_error(capsys, "agreement", "kappa", str(matrix))
        assert error == f"ERROR MalformedMatrix: {matrix}, line {line + 1}: {reason}"

    def test_kappa_of_one_item_names_the_file(self, capsys, tmp_path):
        matrix = tmp_path / "m.tsv"
        matrix.write_text("a\tb\n2\t2\n", encoding="utf-8")
        error = run_data_error(capsys, "agreement", "kappa", str(matrix))
        assert error == f"ERROR MalformedMatrix: {matrix}: need at least 2 items"

    def test_kappa_of_large_counts_does_not_wrap(self, capsys, tmp_path):
        # The squares of these counts exceed int64; the exact kappa is 0.0039448.
        matrix = tmp_path / "m.tsv"
        matrix.write_text(
            "a\tb\n3000000000\t3500000000\n3500000000\t3000000000\n3250000000\t3250000000\n",
            encoding="utf-8",
        )
        result = run_json(capsys, "agreement", "kappa", str(matrix))
        assert result["kappa"] == pytest.approx(0.0039448, abs=1e-7)
        assert result["raters_per_item"] == 6500000000

    def test_trust(self, capsys, tmp_path):
        gold_docs = make_docs(["t" + str(i) for i in range(10)], noises=["1000000000"] * 10)
        ann_docs = [
            Document(id=d.id, text=d.text, noise=d.noise if i > 0 else NoiseLabelSet.from_bits("0100000000"))
            for i, d in enumerate(gold_docs)
        ]
        gold = tmp_path / "gold.tsv"
        ann = tmp_path / "ann.tsv"
        save_corpus(gold_docs, gold)
        save_corpus(ann_docs, ann)
        result = run_json(capsys, "agreement", "trust", str(ann), str(gold))
        assert result == {"score": 90.0, "pass": True, "threshold": 90.0, "mode": "exact"}
        for threshold, passed in (("0", True), ("100", False)):
            result = run_json(
                capsys, "agreement", "trust", str(ann), str(gold), "--threshold", threshold
            )
            assert result == {
                "score": 90.0, "pass": passed, "threshold": float(threshold), "mode": "exact"
            }

    def trust_files(self, tmp_path, ann_docs):
        gold_docs = make_docs(["t" + str(i) for i in range(4)], noises=["1000000000"] * 4)
        gold, ann = tmp_path / "gold.tsv", tmp_path / "ann.tsv"
        save_corpus(gold_docs, gold)
        save_corpus(ann_docs(gold_docs), ann)
        return str(ann), str(gold)

    def test_trust_rows_matched_by_id(self, capsys, tmp_path):
        ann, gold = self.trust_files(tmp_path, lambda docs: docs[::-1])
        result = run_json(capsys, "agreement", "trust", ann, gold)
        assert result["score"] == 100.0

    def test_trust_jaccard(self, capsys, tmp_path):
        # d0 adds a label to its one gold label and earns 1/2; the other three match exactly.
        ann, gold = self.trust_files(
            tmp_path,
            lambda docs: [Document(id="d0", text="t0", noise=NoiseLabelSet.from_bits("1100000000"))] + docs[1:],
        )
        result = run_json(capsys, "agreement", "trust", ann, gold, "--jaccard")
        assert result == {"score": 87.5, "pass": False, "threshold": 90.0, "mode": "jaccard"}
        assert run_json(capsys, "agreement", "trust", ann, gold)["score"] == 75.0

    def test_trust_ids_must_match(self, capsys, tmp_path):
        ann, gold = self.trust_files(
            tmp_path, lambda docs: docs[:-1] + [Document(id="x", text="t", noise=docs[0].noise)]
        )
        error = run_data_error(capsys, "agreement", "trust", ann, gold)
        assert error == (
            f"ERROR Malformed: {gold}: 2 ids not shared with the annotator file, first 'd3'"
        )

    def test_trust_row_without_noise_labels(self, capsys, tmp_path):
        ann, gold = self.trust_files(
            tmp_path, lambda docs: docs[:2] + [Document(id="d2", text="t2")] + docs[3:]
        )
        error = run_data_error(capsys, "agreement", "trust", ann, gold)
        assert error == f"ERROR Malformed: {ann}: row d2: both files need noise labels"
        # The same rows the other way round: now the gold file lacks the labels.
        error = run_data_error(capsys, "agreement", "trust", gold, ann)
        assert error == f"ERROR Malformed: {ann}: row d2: both files need noise labels"

    def test_trust_of_header_only_files_names_the_annotator_file(self, capsys, tmp_path):
        ann, gold = tmp_path / "ann.tsv", tmp_path / "gold.tsv"
        for path in (ann, gold):
            path.write_text(CORPUS_HEADER + "\n", encoding="utf-8")
        error = run_data_error(capsys, "agreement", "trust", str(ann), str(gold))
        assert error == f"ERROR InsufficientData: {ann}: no control samples"

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "100.5"])
    def test_trust_threshold_outside_percent_range_is_usage_error(self, capsys, small_corpus, threshold):
        corpus = str(small_corpus)
        with pytest.raises(SystemExit) as excinfo:
            main(["agreement", "trust", corpus, corpus, "--threshold", threshold])
        captured = capsys.readouterr()
        assert excinfo.value.code == 1
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("ERROR")]
        expected = f"ERROR Usage: argument --threshold: must be a number in [0, 100], got {threshold!r}"
        assert errors == [expected]


class TestImportCorpus:
    CSV = (
        "Data,Label,local,misuse,missing,serial,mixed,punct,spacing,spelling,coined,others\n"
        "khub bhalo,1,0,0,0,0,0,0,0,1,0,0\n"
        "english here,0,0,0,0,0,1,0,0,0,0,0\n"
        ",2,0,0,0,0,0,0,0,0,0,0\n"
    )
    NOISE_COLS = "local,misuse,missing,serial,mixed,punct,spacing,spelling,coined,others"

    def test_import_with_mapping(self, capsys, tmp_path):
        src = tmp_path / "up.csv"
        src.write_text(self.CSV, encoding="utf-8")
        out = tmp_path / "corpus.tsv"
        result = run_json(
            capsys, "import-corpus", str(src), str(out),
            "--text-col", "Data", "--sentiment-col", "Label",
            "--sentiment-map", "0=neutral,1=positive,2=negative",
            "--noise-cols", self.NOISE_COLS,
        )
        assert result["imported"] == 2
        assert result["skipped_empty"] == 1
        corpus = load_corpus(out)
        assert corpus.documents[0].sentiment is SentimentLabel.POSITIVE
        assert corpus.documents[0].noise.names() == ("spelling_error",)
        assert corpus.documents[1].noise.names() == ("mixed_language",)

    def test_text_that_normalizes_to_empty_is_skipped(self, capsys, tmp_path):
        # U+241F is stripped by normalization, so that row could never load again.
        src, out = tmp_path / "up.csv", tmp_path / "o.tsv"
        src.write_text("Data\nkhub  bhalo\n\u241f\n", encoding="utf-8")
        result = run_json(capsys, "import-corpus", str(src), str(out), "--text-col", "Data")
        assert (result["imported"], result["skipped_empty"]) == (1, 1)
        # A kept row is written raw; loading normalizes it.
        assert [d.text for d in load_corpus(out, normalize_text=False).documents] == ["khub  bhalo"]
        assert run_json(capsys, "stats", str(out))["documents"] == 1

    def test_unmapped_sentiment_rejected(self, capsys, tmp_path):
        src = tmp_path / "up.csv"
        src.write_text("Data,Label\nhello,weird\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "import-corpus", str(src), str(tmp_path / "o.tsv"),
            "--text-col", "Data", "--sentiment-col", "Label",
        )
        assert code == 2
        assert "unmapped sentiment" in err

    @pytest.mark.parametrize("mapping", [
        "2=positive,2=negative", "2=positive, 2 =negative", "=neutral,1=positive", "0=neutral,1=happy", "0",
    ])
    def test_bad_sentiment_map_entry_rejected(self, capsys, tmp_path, mapping):
        src, out = tmp_path / "up.csv", tmp_path / "o.tsv"
        src.write_text("Data,Label\nhello,2\n", encoding="utf-8")
        error = run_data_error(
            capsys, "import-corpus", str(src), str(out),
            "--text-col", "Data", "--sentiment-col", "Label", "--sentiment-map", mapping,
        )
        assert error.startswith("ERROR Malformed: bad --sentiment-map entry ")
        assert not out.exists()

    def test_wrong_noise_col_count(self, capsys, tmp_path):
        src = tmp_path / "up.csv"
        src.write_text("Data,a\nx,1\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "import-corpus", str(src), str(tmp_path / "o.tsv"),
            "--text-col", "Data", "--noise-cols", "a,b",
        )
        assert code == 2

    def test_missing_input(self, capsys, tmp_path):
        src = tmp_path / "absent.csv"
        error = run_data_error(
            capsys, "import-corpus", str(src), str(tmp_path / "o.tsv"), "--text-col", "Data"
        )
        assert error.startswith("ERROR IoFailure:") and str(src) in error

    def test_non_utf8_input(self, capsys, tmp_path):
        src = tmp_path / "up.csv"
        src.write_bytes(b"Data\nkhub \xff bhalo\n")
        error = run_data_error(
            capsys, "import-corpus", str(src), str(tmp_path / "o.tsv"), "--text-col", "Data"
        )
        assert error.startswith("ERROR BadEncoding:") and str(src) in error

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_must_be_one_character(self, capsys, tmp_path, delimiter):
        src = tmp_path / "up.csv"
        src.write_text(self.CSV, encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["import-corpus", str(src), str(tmp_path / "o.tsv"), "--text-col", "Data",
                  "--delimiter", delimiter])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert "ERROR Usage: argument --delimiter" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "rows,reason,line",
        [
            ("khub bhalo", "expected 2 fields, got 1", 3),
            ("khub bhalo,", "empty id", 3),
            # The quoted text spans lines 3-4, so the empty id sits on file line 5.
            ('"khub\nbhalo",r2\nkhub bhalo,', "empty id", 5),
        ],
        ids=["short-row", "empty-id", "empty-id-after-two-line-field"],
    )
    def test_bad_id_cell_rejected(self, capsys, tmp_path, rows, reason, line):
        src = tmp_path / "up.csv"
        src.write_text(f"Data,Id\nonek sundor,r1\n{rows}\n", encoding="utf-8")
        out = tmp_path / "o.tsv"
        error = run_data_error(
            capsys, "import-corpus", str(src), str(out), "--text-col", "Data", "--id-col", "Id"
        )
        assert error == f"ERROR Malformed: {src}, line {line}: {reason}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "content,reason",
        [
            # A short row must not import as a row without labels.
            ("tumi kharap,2\n", "line 5: expected 12 fields, got 2"),
            # A long row must not shift the id into the next cell.
            ("ami, tumi,2,0,0,0,0,0,0,0,1,0,0\n", "line 5: expected 12 fields, got 13"),
        ],
        ids=["short-row", "long-row"],
    )
    def test_row_width_must_match_header(self, capsys, tmp_path, content, reason):
        src = tmp_path / "up.csv"
        src.write_text(self.CSV + content, encoding="utf-8")
        out = tmp_path / "o.tsv"
        error = run_data_error(
            capsys, "import-corpus", str(src), str(out),
            "--text-col", "Data", "--sentiment-col", "Label",
            "--sentiment-map", "0=neutral,1=positive,2=negative",
            "--noise-cols", self.NOISE_COLS,
        )
        assert error == f"ERROR Malformed: {src}, {reason}"
        assert not out.exists()

    def test_row_short_of_an_unread_column_rejected(self, capsys, tmp_path):
        src = tmp_path / "up.csv"
        src.write_text("Data,Extra,More\nonek sundor,x,y\nhello\n", encoding="utf-8")
        out = tmp_path / "o.tsv"
        error = run_data_error(capsys, "import-corpus", str(src), str(out), "--text-col", "Data")
        assert error == f"ERROR Malformed: {src}, line 3: expected 3 fields, got 1"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value,column",
        [
            ("--id-col", "nope", "nope"),
            ("--sentiment-col", "nope", "nope"),
            ("--noise-cols", NOISE_COLS.replace("spelling", "speling"), "speling"),
        ],
    )
    def test_unknown_column_rejected(self, capsys, tmp_path, flag, value, column):
        src = tmp_path / "up.csv"
        src.write_text(self.CSV, encoding="utf-8")
        out = tmp_path / "o.tsv"
        error = run_data_error(
            capsys, "import-corpus", str(src), str(out), "--text-col", "Data", flag, value
        )
        assert error == f"ERROR Malformed: {src}, line 1: no column {column!r} in the header"
        assert not out.exists()


class TestErrorsAndUx:
    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "stats", "/nonexistent/corpus.tsv")
        assert code == 2
        assert err.startswith("ERROR IoFailure:")

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 1

    def test_malformed_corpus_reports_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text(CORPUS_HEADER + "\nonly one field\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "stats", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_console_entry_point(self, small_corpus):
        proc = subprocess.run(
            [sys.executable, "-m", "noisekit.cli", "stats", str(small_corpus)],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["documents"] == 3

    @staticmethod
    def stats_to(stdout, corpus):
        return subprocess.run(
            [sys.executable, "-m", "noisekit.cli", "stats", str(corpus)],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=subprocess_env(),
        )

    def test_closed_stdout_pipe_is_one_error_line(self, small_corpus):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.stats_to(write_end, small_corpus)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == "ERROR IoFailure: cannot write stdout: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_device_is_one_error_line(self, small_corpus):
        with open("/dev/full", "w") as full:
            proc = self.stats_to(full, small_corpus)
        assert proc.returncode == 2
        assert proc.stderr == "ERROR IoFailure: cannot write stdout: No space left on device\n"

    def test_stdout_that_cannot_encode_the_result_is_one_error_line(self, tmp_path):
        (tmp_path / "c.tsv").write_text(
            "id\ttext\tsentiment\tnoise\nr1\tখুব ভালু\t-\t-\n", encoding="utf-8"
        )
        (tmp_path / "d.tsv").write_text("খুব\t3\nভালো\t5\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "noisekit.cli", "reduce", "c.tsv", "--method", "spell",
             "--dict", "d.tsv", "--out", "ফল.tsv"],
            cwd=tmp_path, capture_output=True, text=True,
            env={**subprocess_env(), "PYTHONIOENCODING": "ascii"},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("ERROR IoFailure: cannot write stdout: 'ascii' codec can't encode")
        assert proc.stderr.count("\n") == 1


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples() -> list[str]:
    """Every `noisekit ...` command line in README's bash blocks, continuations joined."""
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```bash\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("noisekit ")]


def test_readme_cli_examples_parse(capsys):
    examples = readme_cli_examples()
    assert examples
    for example in examples:
        try:
            build_parser().parse_args(shlex.split(example, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {example}\n{capsys.readouterr().err}")


def test_readme_library_example_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"^```python\n(.*?)^```", section, flags=re.MULTILINE | re.DOTALL)
    docs = make_docs(
        ["khub bhalo laglo", "english nice video", "bannan bhull ache", "onek sundor dada",
         "wow dekhe bhalo", "vhul bannan khub"],
        sentiments=["positive", "neutral", "negative", "positive", "neutral", "negative"],
        noises=["0000000001", "0000100000", "0000000100", "0000000001", "0000100000", "0000000100"],
    )
    save_corpus(docs, tmp_path / "train.tsv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert len(namespace["label_sets"]) == len(namespace["new_texts"])
    assert namespace["senti"].class_names == ("neutral", "positive", "negative")


def readme_error_codes() -> dict[str, int]:
    """{code: exit status} from the error-code table of README's "Command line" section."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (\d) \|", section, flags=re.MULTILINE)
    codes = dict(rows)
    assert len(codes) == len(rows), "a code is listed twice"
    return {code: int(status) for code, status in codes.items()}


def test_readme_error_table_lists_every_code():
    module = vars(noisekit.errors).values()
    classes = [c for c in module if isinstance(c, type) and issubclass(c, Exception)]
    # DataError is a base class, and is raised as itself when training diverges.
    printable = [c for c in classes if not c.__subclasses__()] + [noisekit.errors.DataError]
    assert readme_error_codes() == {"Usage": 1} | {c.__name__: c.exit_code for c in printable}


def test_reduce_and_textcore_import_without_numpy():
    code = (
        "import sys\n"
        "from noisekit import reduce, textcore\n"
        "textcore.default_punctuation_table()\n"
        "reduce.bengali_phonetic_table()\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'"
        " or m.startswith('importlib.resources')))\n"
    )
    # -S: no site hook may import importlib.resources first. -S also leaves site-packages
    # off sys.path; subprocess_env's PYTHONPATH still leads with the package's directory.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Each case runs one subcommand on a malformed input; placeholders name files of `sweep_files`.
MALFORMED_INPUT_CASES = {
    "stats-missing": ["stats", "{missing}"],
    "stats-non-utf8": ["stats", "{binary}"],
    "stats-wrong-header": ["stats", "{wrong_header}"],
    "dedupe-non-utf8": ["dedupe", "{binary}", "{out}"],
    "dedupe-wrong-header": ["dedupe", "{wrong_header}", "{out}"],
    "import-missing": ["import-corpus", "{missing}", "{out}", "--text-col", "text"],
    "import-non-utf8": ["import-corpus", "{binary}", "{out}", "--text-col", "text"],
    "import-empty-delimiter": ["import-corpus", "{csv}", "{out}", "--text-col", "text", "--delimiter", ""],
    "import-long-delimiter": ["import-corpus", "{csv}", "{out}", "--text-col", "text", "--delimiter", ";;"],
    "import-unknown-text-col": ["import-corpus", "{csv}", "{out}", "--text-col", "nope"],
    "import-unknown-id-col": ["import-corpus", "{csv}", "{out}", "--text-col", "text", "--id-col", "nope"],
    "import-unknown-sentiment-col": ["import-corpus", "{csv}", "{out}", "--text-col", "text", "--sentiment-col", "nope"],
    "train-noise-missing": ["train-noise", "{missing}", "--out", "{model}"],
    "train-noise-header-only": ["train-noise", "{header_only}", "--out", "{model}"],
    "train-noise-nan-lr": ["train-noise", "{corpus}", "--lr", "nan", "--out", "{model}"],
    "train-noise-inf-c": ["train-noise", "{corpus}", "--c", "inf", "--out", "{model}"],
    "train-noise-bad-analyzer": ["train-noise", "{corpus}", "--nmin", "0", "--out", "{model}"],
    "train-sentiment-header-only": ["train-sentiment", "{header_only}", "--out", "{model}"],
    "train-sentiment-wrong-header": ["train-sentiment", "{wrong_header}", "--out", "{model}"],
    "train-sentiment-nan-lr": ["train-sentiment", "{corpus}", "--lr", "nan", "--out", "{model}"],
    "predict-noise-missing-bundle": ["predict-noise", "{missing}", "{corpus}"],
    "predict-noise-non-json-bundle": ["predict-noise", "{corpus}", "{corpus}"],
    "predict-noise-nan-bundle": ["predict-noise", "{nan_bundle}", "{corpus}"],
    "predict-noise-non-utf8-corpus": ["predict-noise", "{bundle}", "{binary}"],
    "predict-sentiment-wrong-kind": ["predict-sentiment", "{bundle}", "{corpus}"],
    "predict-sentiment-wrong-header": ["predict-sentiment", "{bundle}", "{wrong_header}"],
    "reduce-missing-corpus": ["reduce", "{missing}", "--method", "mask-oov", "--dict", "{dict}", "--out", "{out}"],
    "reduce-non-utf8-dict": ["reduce", "{corpus}", "--method", "mask-oov", "--dict", "{binary}", "--out", "{out}"],
    "reduce-header-only-dict": ["reduce", "{corpus}", "--method", "spell", "--dict", "{header_only}", "--out", "{out}"],
    "reduce-non-json-fixture": ["reduce", "{corpus}", "--method", "backtranslate", "--fixture", "{corpus}", "--out", "{out}"],
    "reduce-empty-fixture": ["reduce", "{corpus}", "--method", "backtranslate", "--fixture", "{empty}", "--out", "{out}"],
    "reduce-scalar-fixture": ["reduce", "{corpus}", "--method", "backtranslate", "--fixture", "{scalar_fixture}", "--out", "{out}"],
    "reduce-int-text-fixture": ["reduce", "{corpus}", "--method", "paraphrase", "--dict", "{dict}", "--fixture", "{int_text_fixture}", "--out", "{out}"],
    "reduce-bad-probability": ["reduce", "{corpus}", "--method", "mask-random", "--p", "nan", "--dict", "{dict}", "--out", "{out}"],
    "reduce-unsplittable-client": ["reduce", "{corpus}", "--method", "backtranslate", "--client", "'abc", "--out", "{out}"],
    "reduce-blank-client": ["reduce", "{corpus}", "--method", "backtranslate", "--client", "   ", "--out", "{out}"],
    "eval-missing-truth": ["eval-reduction", "{corpus}", "--truth", "{missing}"],
    "eval-header-only-output": ["eval-reduction", "{header_only}", "--truth", "{corpus}"],
    "eval-wrong-header-inputs": ["eval-reduction", "{corpus}", "--truth", "{corpus}", "--inputs", "{wrong_header}"],
    "eval-inf-embeddings": ["eval-reduction", "{corpus}", "--truth", "{corpus}", "--embeddings", "{inf_embeddings}"],
    "eval-non-utf8-tallies": ["eval-reduction", "{corpus}", "--truth", "{corpus}", "--human-tallies", "{binary}"],
    "kappa-missing": ["agreement", "kappa", "{missing}"],
    "kappa-header-only": ["agreement", "kappa", "{header_only}"],
    "trust-non-utf8": ["agreement", "trust", "{binary}", "{corpus}"],
    "trust-wrong-header": ["agreement", "trust", "{corpus}", "{wrong_header}"],
}
# Each way a v6 bundle file can break its layout, for predict-noise.
MALFORMED_INPUT_CASES.update(
    {f"predict-noise-{name}-bundle": ["predict-noise", f"{{{name}}}", "{corpus}"] for name in BROKEN_BUNDLES}
)
# Each outside JSON input gets each payload that json.loads fails on beyond syntax errors.
JSON_PAYLOADS = {"deep_json": "[" * 100_000, "long_int": "1" * (INT_DIGIT_LIMIT + 1)}
for _name in JSON_PAYLOADS:
    _case = _name.replace("_", "-")
    MALFORMED_INPUT_CASES.update({
        f"predict-noise-{_case}-bundle": ["predict-noise", f"{{{_name}}}", "{corpus}"],
        f"eval-{_case}-tallies": ["eval-reduction", "{corpus}", "--truth", "{corpus}", "--human-tallies", f"{{{_name}}}"],
        f"reduce-{_case}-fixture": ["reduce", "{corpus}", "--method", "backtranslate", "--fixture", f"{{{_name}}}", "--out", "{out}"],
        f"reduce-{_case}-client": ["reduce", "{corpus}", "--method", "backtranslate", "--client", f"{{{_name}_client}}", "--out", "{out}"],
    })


class TestMalformedInputSweep:
    @pytest.fixture()
    def sweep_files(self, tmp_path, small_corpus):
        files = {name: tmp_path / name for name in (
            "missing", "binary", "header_only", "wrong_header", "empty", "csv", "dict",
            "inf_embeddings", "bundle", "nan_bundle", "model", "out", "scalar_fixture", "int_text_fixture",
        )}
        files["binary"].write_bytes(b"id\ttext\tsentiment\tnoise\nd0\t\xff\xfe\t-\t-\n")
        files["header_only"].write_text(CORPUS_HEADER + "\n", encoding="utf-8")
        files["wrong_header"].write_text("a\tb\n1\t2\n", encoding="utf-8")
        files["empty"].write_text("", encoding="utf-8")
        files["csv"].write_text("text,label\nkhub bhalo,1\n", encoding="utf-8")
        files["dict"].write_text("khub\t10\nbhalo\t8\n", encoding="utf-8")
        files["inf_embeddings"].write_text("2 2\nkhub 1.0 inf\nbhalo 0.0 1.0\n", encoding="utf-8")
        files["scalar_fixture"].write_text("5\n", encoding="utf-8")
        files["int_text_fixture"].write_text("".join(
            json.dumps({"task": "paraphrase", "src": "bn", "tgt": "bn", "text_in": d.text, "text_out": 5}) + "\n"
            for d in load_corpus(small_corpus).documents
        ), encoding="utf-8")
        assert main(["train-noise", str(small_corpus), "--epochs", "2", "--out", str(files["bundle"])]) == 0
        files["nan_bundle"].write_bytes(files["bundle"].read_bytes())
        edit_bundle(files["nan_bundle"], lambda bundle: bundle["linear"]["biases"].__setitem__(0, float("nan")))
        for name, (edit, _, _) in BROKEN_BUNDLES.items():
            files[name] = tmp_path / f"{name}.json"
            files[name].write_bytes(files["bundle"].read_bytes())
            edit_bundle(files[name], edit)
        files["corpus"] = small_corpus
        for name, payload in JSON_PAYLOADS.items():
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(payload + "\n", encoding="utf-8")
            script = tmp_path / f"{name}_client.py"
            script.write_text(
                f"import sys\nfor line in sys.stdin:\n    print({payload!r}, flush=True)\n", encoding="utf-8"
            )
            files[f"{name}_client"] = shlex.join([sys.executable, str(script)])
        return {name: str(path) for name, path in files.items()}

    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUT_CASES))
    def test_one_error_line_and_error_exit(self, capsys, sweep_files, case):
        if "long-int" in case and not INT_DIGIT_LIMIT:
            pytest.skip("this interpreter parses integers of any length")
        capsys.readouterr()
        argv = [arg.format(**sweep_files) for arg in MALFORMED_INPUT_CASES[case]]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code in (1, 2, 3), err
        errors = [line for line in err.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1 and re.match(r"ERROR \w+: ", errors[0]), err
        assert "Traceback" not in err
        name = errors[0].split(":", 1)[0].removeprefix("ERROR ")
        assert readme_error_codes().get(name) == code, f"{name} exits {code}; README says otherwise"

    @pytest.mark.parametrize("name", sorted(BROKEN_BUNDLES))
    def test_broken_bundle_names_the_file(self, capsys, sweep_files, name):
        capsys.readouterr()
        assert main(["predict-noise", sweep_files[name], sweep_files["corpus"]]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith(f"ERROR {BROKEN_BUNDLES[name][1].__name__}: {sweep_files[name]}")
