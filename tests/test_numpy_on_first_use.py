"""numpy runs on first use: which commands execute it, and what importing the CLI loads.

The array modules bind ``np`` from ``noisekit._lazy``, which puts an unexecuted
module object in ``sys.modules["numpy"]`` at import. So "numpy executed" is read
as any ``numpy.`` submodule being loaded, which numpy's own import always does;
``"numpy" in sys.modules`` would be true for the stub alone. Each check runs in
a fresh interpreter, because the test process has numpy loaded already.
"""

import contextlib
import io
import json
import shlex
import subprocess
import sys

import pytest

from noisekit.cli import main
from noisekit.dataio import load_dictionary, save_corpus
from noisekit.reduce import spell_correct

from conftest import make_docs, subprocess_env

NUMPY_EXECUTED = "any(m.startswith('numpy.') for m in sys.modules)"
# The modules a benchmark tracer reads from sys.modules right after `import noisekit.cli`.
CLI_IMPORTS = ("textcore", "dataio", "features", "classify", "reduce", "metrics", "stats")
# A translator that answers every request with its own text.
ECHO_CLIENT = shlex.join([sys.executable, "echo.py"])
TEXTS = ["khub bhalo laglo", "english very nice", "bannan bhull hoyeche"]


def run_python(code, *args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding every input the commands below read."""
    root = tmp_path_factory.mktemp("numpy-on-first-use")
    docs = make_docs(
        TEXTS,
        sentiments=["positive", "neutral", "negative"],
        noises=["0000000001", "0000100000", "0000000100"],
    )
    save_corpus(docs, root / "corpus.tsv")
    (root / "dict.tsv").write_text("khub\t3\nbhalo\t2\nlaglo\t1\nnice\t1\n", encoding="utf-8")
    # Every text is already normalized; paraphrase asks about the spell-corrected text.
    dictionary = load_dictionary(root / "dict.tsv")
    fixture = []
    for text in TEXTS:
        english = text.upper()
        corrected = spell_correct(text, dictionary).corrected
        fixture.append(("translate", "bn", "en", text, english))
        fixture.append(("translate", "en", "bn", english, text))
        fixture.append(("paraphrase", "bn", "bn", corrected, corrected))
    keys = ("task", "src", "tgt", "text_in", "text_out")
    (root / "fixture.jsonl").write_text(
        "".join(json.dumps(dict(zip(keys, entry))) + "\n" for entry in fixture), encoding="utf-8"
    )
    (root / "echo.py").write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    request = json.loads(line)\n"
        "    print(json.dumps({'id': request['id'], 'text': request['text']}), flush=True)\n",
        encoding="utf-8",
    )
    (root / "emb.txt").write_text("2 2\nkhub 1.0 0.0\nbhalo 0.5 0.5\n", encoding="utf-8")
    (root / "tallies.json").write_text('{"corpus": [1, 2]}', encoding="utf-8")
    (root / "ratings.tsv").write_text("a\tb\n2\t0\n1\t1\n0\t2\n", encoding="utf-8")
    (root / "upstream.csv").write_text("Data\nkhub bhalo\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        for kind in ("noise", "sentiment"):
            assert main([f"train-{kind}", str(root / "corpus.tsv"), "--epochs", "2",
                         "--out", str(root / f"{kind}.json")]) == 0
    return root


NO_NUMPY = {
    "dedupe": ["dedupe", "corpus.tsv", "out.tsv"],
    "import-corpus": ["import-corpus", "upstream.csv", "out.tsv", "--text-col", "Data"],
    "spell": ["reduce", "corpus.tsv", "--method", "spell", "--dict", "dict.tsv", "--out", "out.tsv"],
    "mask-oov": ["reduce", "corpus.tsv", "--method", "mask-oov", "--dict", "dict.tsv", "--out", "out.tsv"],
    "mask-random": ["reduce", "corpus.tsv", "--method", "mask-random", "--p", "0.5", "--dict",
                    "dict.tsv", "--out", "out.tsv"],
    "backtranslate-fixture": ["reduce", "corpus.tsv", "--method", "backtranslate", "--fixture",
                              "fixture.jsonl", "--out", "out.tsv"],
    "paraphrase-fixture": ["reduce", "corpus.tsv", "--method", "paraphrase", "--dict", "dict.tsv",
                           "--fixture", "fixture.jsonl", "--out", "out.tsv"],
    "backtranslate-client": ["reduce", "corpus.tsv", "--method", "backtranslate", "--client",
                             ECHO_CLIENT, "--out", "out.tsv"],
    "paraphrase-client": ["reduce", "corpus.tsv", "--method", "paraphrase", "--dict", "dict.tsv",
                          "--client", ECHO_CLIENT, "--out", "out.tsv"],
    "agreement-trust": ["agreement", "trust", "corpus.tsv", "corpus.tsv"],
    "eval-reduction": ["eval-reduction", "corpus.tsv", "--truth", "corpus.tsv"],
    "eval-reduction-embeddings": ["eval-reduction", "corpus.tsv", "--truth", "corpus.tsv",
                                  "--embeddings", "emb.txt"],
    "eval-reduction-every-option": ["eval-reduction", "corpus.tsv", "--truth", "corpus.tsv",
                                    "--inputs", "corpus.tsv", "--embeddings", "emb.txt",
                                    "--dict", "dict.tsv", "--human-tallies", "tallies.json"],
}
# These cases show that deferring numpy still loads it where arrays are used.
WITH_NUMPY = {
    "stats": ["stats", "corpus.tsv"],
    "train-noise": ["train-noise", "corpus.tsv", "--epochs", "2", "--out", "model.json"],
    "train-sentiment": ["train-sentiment", "corpus.tsv", "--epochs", "2", "--out", "model.json"],
    "predict-noise": ["predict-noise", "noise.json", "corpus.tsv"],
    "predict-sentiment": ["predict-sentiment", "sentiment.json", "corpus.tsv"],
    "agreement-kappa": ["agreement", "kappa", "ratings.tsv"],
}
RUN_COMMAND = (
    "import sys\n"
    "from noisekit.cli import main\n"
    "status = main(sys.argv[1:])\n"
    f"print(status, {NUMPY_EXECUTED})\n"
)


@pytest.mark.parametrize(
    "argv, executes_numpy",
    [(argv, False) for argv in NO_NUMPY.values()] + [(argv, True) for argv in WITH_NUMPY.values()],
    ids=list(NO_NUMPY) + list(WITH_NUMPY),
)
def test_which_commands_execute_numpy(work, argv, executes_numpy):
    assert run_python(RUN_COMMAND, *argv, cwd=work) == f"0 {executes_numpy}"


@pytest.mark.parametrize("command", ["train-noise", "train-sentiment"])
def test_training_never_loads_numpy_random(work, command):
    # numpy.random is several MB of memory; the epoch order comes from the random module.
    code = (
        "import sys\n"
        "from noisekit.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "print(status, 'numpy.random' in sys.modules)\n"
    )
    assert run_python(code, *WITH_NUMPY[command], cwd=work) == "0 False"


def test_cli_import_loads_every_module_but_executes_no_numpy():
    code = (
        "import sys\n"
        "import noisekit.cli\n"
        f"missing = [m for m in {CLI_IMPORTS!r} if 'noisekit.' + m not in sys.modules]\n"
        f"print(missing, {NUMPY_EXECUTED})\n"
    )
    assert run_python(code) == "[] False"


# Each makes numpy unimportable in its own way before `import noisekit.cli`.
NUMPY_BLOCKERS = {
    "finder-refuses": (
        "class Refuse:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'numpy':\n"
        "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
        "sys.meta_path.insert(0, Refuse())\n"
    ),
    # An installed noisekit shares site-packages with numpy, so the package is
    # imported before that directory leaves the path; its submodules load from it.
    "not-on-path": (
        "import os\n"
        "import noisekit\n"
        "sys.path[:] = [p for p in sys.path if not os.path.isdir(os.path.join(p or '.', 'numpy'))]\n"
    ),
    "none-in-sys-modules": "sys.modules['numpy'] = None\n",
}


@pytest.mark.parametrize("blocker", NUMPY_BLOCKERS.values(), ids=NUMPY_BLOCKERS)
def test_cli_import_without_numpy_names_numpy(blocker):
    code = (
        "import sys\n"
        + blocker
        + "try:\n"
        "    import noisekit.cli\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n"
        "else:\n"
        "    print('imported')\n"
    )
    assert run_python(code) == "numpy"
