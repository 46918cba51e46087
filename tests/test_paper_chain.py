"""The paper's three experiments as one command chain on a synthetic corpus.

The chain follows README's "Reproducing the paper's experiments": import and
deduplicate each split, identify noise, reduce the test split with every
baseline method (the translator answers from a fixture), score the reductions,
then predict sentiment on the noisy and on each noise-reduced test split. Each
command reads what the one before it wrote, so the chain checks that every
output is a valid input of the next command. The sha256 pins cover the
sentiment predictions and the reduction report; a change that moves one is an
output change.
"""

import contextlib
import csv
import hashlib
import io
import json
import random

import pytest

from noisekit.cli import main
from noisekit.dataio import load_corpus, load_dictionary, save_corpus
from noisekit.reduce import spell_correct
from noisekit.textcore import NOISE_CLASSES, Document

from test_cli import MARKERS, WORD_POOL, synth_noise_corpus

METHODS = ("spell", "paraphrase", "backtranslate", "mask-oov", "mask-random")
MARKER_WORDS = {w for words in MARKERS.values() for w in words}
TRAIN_FLAGS = ("--epochs", "8", "--seed", "4")
NOISE_COLUMNS = [f"n{j}" for j in range(len(NOISE_CLASSES))]

PREDICT_SENTIMENT_SHA256 = {
    "noisy": "6cde5206c902a11b0b4b4c30978530cc302110fe5213096101f474fcd43f38ee",
    "spell": "325fb3b82413ea4eac725d46a9bd3f9336dfd5c5f1cb2ab74c4334ced8034edb",
    "paraphrase": "f521667d387c5822083c0de145c631a0d2de5914a502c0ab8091af4978870aba",
    "backtranslate": "5623acb08a7702c753fad53e76708f82dfa993b1f6a947908e70f8ba79f9b50c",
    "mask-oov": "e27f048e1f7f6f9b4a3d0d1a55a95869930068d009944a3bf860bab381827c7d",
    "mask-random": "e21c098cd0945748c6d1377f2640d0b90a787edefcb3252e08399b5ac357c278",
}
EVAL_REDUCTION_SHA256 = "89de240f19a444e77f36bb82244a942d7e6fd8a0130a9ccb8b74d8dc42a07df8"


def cli(*argv) -> str:
    """stdout of one successful command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code == 0, err.getvalue()
    return out.getvalue()


def export_csv(docs: list[Document], path) -> None:
    """An upstream-style export: numeric sentiment codes and one 0/1 column per noise class."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Data", "Label", *NOISE_COLUMNS])
        for doc in docs:
            writer.writerow([doc.text, int(doc.sentiment), *doc.noise.to_bits()])


def clean(text: str) -> str:
    """The synthetic 'manual correction': the text without its noise marker words."""
    return " ".join(w for w in text.split() if w not in MARKER_WORDS)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    work = tmp_path_factory.mktemp("chain")
    train_docs = synth_noise_corpus(60, seed=31)
    test_docs = synth_noise_corpus(20, seed=32)
    # One repeated text per split, for dedupe to drop.
    export_csv(train_docs + train_docs[:1], work / "train.csv")
    export_csv(test_docs + test_docs[-1:], work / "test.csv")
    import_flags = (
        "--text-col", "Data", "--sentiment-col", "Label",
        "--sentiment-map", "0=neutral,1=positive,2=negative",
        "--noise-cols", ",".join(NOISE_COLUMNS),
    )
    for split in ("train", "test"):
        cli("import-corpus", work / f"{split}.csv", work / f"{split}-raw.tsv", *import_flags)
        cli("dedupe", work / f"{split}-raw.tsv", work / f"{split}.tsv")

    # Experiment 1: noise identification.
    cli("train-noise", work / "train.tsv", *TRAIN_FLAGS, "--out", work / "noise.json")
    noise = json.loads(cli("predict-noise", work / "noise.json", work / "test.tsv"))

    # Experiment 2: noise reduction, scored against the corrections.
    test = load_corpus(work / "test.tsv").documents
    dict_path = work / "dictionary.tsv"
    dict_path.write_text(
        "".join(f"{w}\t{len(WORD_POOL) - i}\n" for i, w in enumerate(WORD_POOL)), encoding="utf-8"
    )
    dictionary = load_dictionary(dict_path)
    entries = {}
    for doc in test:
        words = clean(doc.text).split()
        entries[("translate", "bn", "en", doc.text)] = doc.text.upper()
        entries[("translate", "en", "bn", doc.text.upper())] = " ".join(words[1:2] + words[:1] + words[2:])
        corrected = spell_correct(doc.text, dictionary).corrected
        entries[("paraphrase", "bn", "bn", corrected)] = " ".join(reversed(corrected.split()))
    (work / "fixture.jsonl").write_text(
        "".join(
            json.dumps({"task": t, "src": s, "tgt": g, "text_in": i, "text_out": o}) + "\n"
            for (t, s, g, i), o in entries.items()
        ),
        encoding="utf-8",
    )
    method_flags = {
        "spell": ("--dict", dict_path),
        "paraphrase": ("--dict", dict_path, "--fixture", work / "fixture.jsonl"),
        "backtranslate": ("--fixture", work / "fixture.jsonl"),
        "mask-oov": ("--dict", dict_path),
        "mask-random": ("--dict", dict_path, "--p", "0.3", "--seed", "5"),
    }
    for method in METHODS:
        cli("reduce", work / "test.tsv", "--method", method, *method_flags[method],
            "--out", work / f"{method}.tsv")
    save_corpus([Document(id=d.id, text=clean(d.text)) for d in test], work / "corrected.tsv")
    rng = random.Random(33)
    words = sorted(set(WORD_POOL) | MARKER_WORDS)
    (work / "vectors.txt").write_text(
        f"{len(words)} 4\n"
        + "".join(w + "".join(f" {rng.uniform(-1, 1):.4f}" for _ in range(4)) + "\n" for w in words),
        encoding="utf-8",
    )
    (work / "human.json").write_text(
        json.dumps({m: [11 + 3 * i, 40] for i, m in enumerate(METHODS)}), encoding="utf-8"
    )
    eval_stdout = cli(
        "eval-reduction", *(work / f"{m}.tsv" for m in METHODS),
        "--truth", work / "corrected.tsv", "--inputs", work / "test.tsv",
        "--embeddings", work / "vectors.txt", "--dict", dict_path,
        "--human-tallies", work / "human.json",
    )

    # Experiment 3: sentiment, trained on noisy texts, on noisy and noise-reduced test texts.
    cli("train-sentiment", work / "train.tsv", "--auto-weights", *TRAIN_FLAGS,
        "--out", work / "senti.json")
    sentiment = {
        name: cli("predict-sentiment", work / "senti.json", work / f"{name}.tsv")
        for name in ("test", *METHODS)
    }
    sentiment["noisy"] = sentiment.pop("test")
    return {"work": work, "noise": noise, "eval": eval_stdout, "sentiment": sentiment}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_work_directory_holds_exactly_what_the_chain_wrote(chain):
    # Every output is written to a temporary file and renamed; a leftover one fails here.
    written = {
        *(f"{split}{suffix}" for split in ("train", "test") for suffix in (".csv", "-raw.tsv", ".tsv")),
        "noise.json", "dictionary.tsv", "fixture.jsonl", *(f"{m}.tsv" for m in METHODS),
        "corrected.tsv", "vectors.txt", "human.json", "senti.json",
    }
    assert sorted(p.name for p in chain["work"].iterdir()) == sorted(written)


def test_import_and_dedupe_keep_one_row_per_text(chain):
    for split, n in (("train", 60), ("test", 20)):
        assert len(load_corpus(chain["work"] / f"{split}-raw.tsv").documents) == n + 1
        assert len(load_corpus(chain["work"] / f"{split}.tsv").documents) == n


def test_noise_identification_scores_every_class(chain):
    assert len(chain["noise"]["predictions"]) == 20
    assert sorted(chain["noise"]["metrics"]["per_class"]) == sorted(NOISE_CLASSES)


@pytest.mark.parametrize("method", METHODS)
def test_reduced_corpus_differs_from_its_input_only_in_text(chain, method):
    noisy = load_corpus(chain["work"] / "test.tsv").documents
    reduced = load_corpus(chain["work"] / f"{method}.tsv").documents
    assert [(d.id, d.sentiment, d.noise) for d in reduced] == [
        (d.id, d.sentiment, d.noise) for d in noisy
    ]
    assert [d.text for d in reduced] != [d.text for d in noisy]


def test_every_report_field_is_set(chain):
    reports = json.loads(chain["eval"])["reports"]
    assert [r["method"] for r in reports] == sorted(METHODS)
    for report in reports:
        assert len(report) == 7
        assert None not in report.values(), report


def test_sentiment_predictions_pinned(chain):
    for name, stdout in chain["sentiment"].items():
        assert isinstance(json.loads(stdout)["metrics"]["per_class"], dict)
    assert {name: sha256(out) for name, out in chain["sentiment"].items()} == PREDICT_SENTIMENT_SHA256


def test_reduction_report_pinned(chain):
    assert sha256(chain["eval"]) == EVAL_REDUCTION_SHA256
