"""The paper's three experiments as one command chain on a synthetic corpus.

The chain follows README's "Reproducing the paper's experiments": import and
deduplicate each split, identify noise, reduce the test split with every
baseline method (the translator answers from a fixture), score the reductions,
then predict sentiment on the noisy and on each noise-reduced test split. Each
command reads what the one before it wrote, so the chain checks that every
output is a valid input of the next command. The sha256 pins cover the
sentiment predictions and the reduction report; a change that moves one is an
output change. The last test reruns both trainers and `eval-reduction` under
other BLAS and SIMD kernels and requires the same bytes.
"""

import contextlib
import csv
import hashlib
import io
import json
import random
import subprocess
import sys

import pytest

from noisekit.cli import main
from noisekit.dataio import load_corpus, load_dictionary, save_corpus
from noisekit.reduce import spell_correct
from noisekit.textcore import NOISE_CLASSES, Document

from conftest import subprocess_env
from test_cli import MARKERS, WORD_POOL, synth_noise_corpus

METHODS = ("spell", "paraphrase", "backtranslate", "mask-oov", "mask-random")
MARKER_WORDS = {w for words in MARKERS.values() for w in words}
TRAIN_FLAGS = ("--epochs", "8", "--seed", "4")
NOISE_COLUMNS = [f"n{j}" for j in range(len(NOISE_CLASSES))]

PREDICT_SENTIMENT_SHA256 = {
    "noisy": "ceceb2d2002a87abde571e9680c06a5d125f631220ed202892de793798a5e350",
    "spell": "8f6246690fcaccdc0860bf7e0d1e4bf84a5bd106b85f708603a6c9ebc4ae3d55",
    "paraphrase": "4f1f1d699c045539334c9e5de3ae43031be82309a445af5390c8ecc2532445b7",
    "backtranslate": "acda1f53787defe28e7945a95785d84c4b71208f7a4f31903c9d8d49d5bcae75",
    "mask-oov": "67e263c8309e584f1977985b8e0292ba1615723029b099b3da04ff260a63537a",
    "mask-random": "0a34dc4620746e83825213be880473012e2a90365d802aeb76c1e1f4e5963648",
}
EVAL_REDUCTION_SHA256 = "89de240f19a444e77f36bb82244a942d7e6fd8a0130a9ccb8b74d8dc42a07df8"
# Settings that change which kernels numpy and its BLAS run. OPENBLAS_CORETYPE acts
# only on an x86 numpy wheel whose OpenBLAS is built DYNAMIC_ARCH (PyPI's are), and
# NPY_DISABLE_CPU_FEATURES only on an x86 CPU that has the features it names. Elsewhere
# a setting runs the default kernels, and its comparison holds without testing anything.
CPU_SETTINGS = {
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "numpy-without-avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
}


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


def output_digests(chain, cwd, setting: dict) -> dict:
    """sha256 of the stdout and written files of both trainers and eval-reduction, run as children."""
    work = chain["work"]
    commands = {
        "train-noise": ("train-noise", work / "train.tsv", *TRAIN_FLAGS, "--out", "noise.json"),
        "train-sentiment": ("train-sentiment", work / "train.tsv", "--auto-weights", *TRAIN_FLAGS,
                            "--out", "senti.json"),
        "eval-reduction": ("eval-reduction", *(work / f"{m}.tsv" for m in METHODS),
                           "--truth", work / "corrected.tsv", "--inputs", work / "test.tsv",
                           "--embeddings", work / "vectors.txt"),
    }
    # The default run drops both variables, in case the tests run under one of them.
    env = {k: v for k, v in subprocess_env().items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    outputs = {}
    for name, argv in commands.items():
        proc = subprocess.run(
            [sys.executable, "-m", "noisekit.cli", *map(str, argv)],
            capture_output=True, cwd=cwd, env={**env, **setting},
        )
        assert proc.returncode == 0, proc.stderr
        outputs[name] = hashlib.sha256(proc.stdout).hexdigest()
    for bundle in ("noise.json", "senti.json"):
        outputs[bundle] = hashlib.sha256((cwd / bundle).read_bytes()).hexdigest()
    return outputs


@pytest.fixture(scope="module")
def default_digests(chain, tmp_path_factory):
    return output_digests(chain, tmp_path_factory.mktemp("default-kernels"), {})


@pytest.mark.parametrize("setting", CPU_SETTINGS)
def test_outputs_do_not_depend_on_cpu_kernels(chain, default_digests, tmp_path, setting):
    assert output_digests(chain, tmp_path, CPU_SETTINGS[setting]) == default_digests
