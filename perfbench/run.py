"""noisekit batch benchmark: runs the CLI end to end on seeded synthetic corpora.

    python3 perfbench/run.py --workload identify --seed 1 --seconds 30 --trace 0

Workloads (``--workload all`` runs both in turn):

* ``identify`` - dedupe, stats, train-noise, predict-noise, train-sentiment
  --auto-weights, predict-sentiment (char 1-4-grams).
* ``reduce``   - reduce with spell, mask-oov, mask-random and fixture
  backtranslate, then one eval-reduction over the four outputs; then reduce
  with backtranslate and paraphrase through ``--client`` against
  ``echo_translator.py``, which sleeps a fixed latency per request.

A timed run (``--trace 0``) generates the inputs from ``--seed``, times a
fresh interpreter's set-up and a fixed calibration job, then repeats the
workload's commands, each as its own process, until ``--seconds`` have
passed. Every command's output is
checked, and must be byte-identical in every repetition. A traced run
(``--trace 1``) runs every command of every workload ``TRACE_ROUNDS`` times
plainly and as often under ``traced_cli.py``, checks each trace, and reports
per-layer self times and counts.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines above it are the readable report. The
full results, with every sample, input property and output sha256, go to
``.bench_work/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from echo_translator import LATENCY_MS
from gen_corpus import SIZES, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("identify", "reduce")
# Set-up and the calibration are timed a few times first and again before
# every repetition, so their medians span the whole run rather than one
# moment of the host's load.
SETUP_FIRST = 3
SETUP_PER_PASS = 1
# A run kills whatever still runs this long after it started, well inside the
# 180 s a run may take, and then exits without a result.
RUN_BUDGET_S = 165.0
# A traced run runs every command this many times each way, untraced and
# traced in turn, so the tracing overhead is a difference of medians.
TRACE_ROUNDS = 2
# A traced command's spans and its trace write cover its wall time except the
# interpreter boot before the tracer starts and the interpreter exit after the
# write. Those two together must stay under this, or the command fails. The
# largest sum seen in 78 traced commands on a 2-vCPU host was 0.43 s.
COVERAGE_TOLERANCE_S = 1.0
SETUP_CODE = (
    "import noisekit.cli\n"
    "from noisekit import reduce, textcore\n"
    "textcore.default_punctuation_table()\n"
    "reduce.bengali_phonetic_table()\n"
)
# A fixed job that uses no noisekit code: interpreter start, the numpy import,
# dict and string work, a JSON round trip of floats and a small matrix product,
# as the commands do. The shared host has slow spells of a minute or more that
# slow the commands and this job alike, so batch_ref_s scales the commands'
# time by CALIBRATION_REF_S over this job's median time in the same run. That
# cancels the host's speed, not the program's.
CALIBRATION_CODE = (
    "import json, numpy\n"
    "words = [format(i * 7919 % 100003, 'x') * 3 for i in range(20000)]\n"
    "counts = {}\n"
    "for w in words:\n"
    "    counts[w[:4]] = counts.get(w[:4], 0) + 1\n"
    "json.loads(json.dumps([i / 7 for i in range(50000)]))\n"
    "numpy.random.default_rng(0).random((300, 300)) @ numpy.ones(300)\n"
)
# Roughly the calibration's time on a calm 2-vCPU host, so batch_ref_s reads
# close to wall seconds there. Only its being fixed matters.
CALIBRATION_REF_S = 0.3

END_TO_END = (
    ("setup_s", "s"),
    ("batch_ref_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
)
# The per-command report of each workload, as named in the benchmark's notes.
REPORTED = {
    "identify": ("audit_s", "train_noise_s", "predict_noise_s", "train_sentiment_s",
                 "predict_sentiment_s"),
    "reduce": ("reduce_spell_s", "reduce_mask_oov_s", "reduce_mask_random_s", "reduce_fixture_s",
               "eval_reduction_s", "reduce_client_s"),
}
CLI_COMMANDS = ("dedupe", "stats", "train-noise", "predict-noise", "train-sentiment",
                "predict-sentiment", "reduce", "eval-reduction")
# (metric, unit, better, kind, key): kind "self" is the summed self time of a
# span name, "calls" its span count, "total" its summed duration, "count" a counter.
PER_LAYER = tuple(
    [(f"cli.{c}.self_s", "s", "lower", "self", f"cli.{c}") for c in CLI_COMMANDS]
    + [
        ("setup.import.self_s", "s", "lower", "self", "setup.import"),
        ("textcore.normalize.calls", "count", "lower", "calls", "textcore.normalize"),
        ("textcore.normalize.self_s", "s", "lower", "self", "textcore.normalize"),
        ("textcore.char_ngrams.self_s", "s", "lower", "self", "textcore.char_ngrams"),
        ("textcore.char_ngrams.grams", "count", "lower", "count", "textcore.char_ngrams.grams"),
        ("textcore.tokenize.calls", "count", "lower", "calls", "textcore.tokenize"),
        ("textcore.tokenize.self_s", "s", "lower", "self", "textcore.tokenize"),
        ("dataio.load_corpus.self_s", "s", "lower", "self", "dataio.load_corpus"),
        ("dataio.load_corpus.docs", "count", "lower", "count", "dataio.load_corpus.docs"),
        ("dataio.save_corpus.self_s", "s", "lower", "self", "dataio.save_corpus"),
        ("dataio.save_model_bundle.self_s", "s", "lower", "self", "dataio.save_model_bundle"),
        ("dataio.save_model_bundle.bytes", "bytes", "lower", "count", "dataio.save_model_bundle.bytes"),
        ("dataio.load_model_bundle.self_s", "s", "lower", "self", "dataio.load_model_bundle"),
        ("dataio.load_dictionary.self_s", "s", "lower", "self", "dataio.load_dictionary"),
        ("dataio.load_embeddings.self_s", "s", "lower", "self", "dataio.load_embeddings"),
        ("dataio.load_fixture.self_s", "s", "lower", "self", "dataio.load_fixture"),
        ("features.fit_tfidf.self_s", "s", "lower", "self", "features.fit_tfidf"),
        ("features.fit_tfidf.terms", "count", "lower", "count", "features.fit_tfidf.terms"),
        ("features.transform.calls", "count", "lower", "calls", "features.transform"),
        ("features.transform.self_s", "s", "lower", "self", "features.transform"),
        ("features.transform.nnz", "count", "lower", "count", "features.transform.nnz"),
        ("features.to_json.self_s", "s", "lower", "self", "features.to_json"),
        ("features.from_json.self_s", "s", "lower", "self", "features.from_json"),
        ("classify.train_ovr_hinge.self_s", "s", "lower", "self", "classify.train_ovr_hinge"),
        ("classify.train_ovr_hinge.steps", "count", "lower", "count", "classify.train_ovr_hinge.steps"),
        ("classify.train_softmax_weighted.self_s", "s", "lower", "self", "classify.train_softmax_weighted"),
        ("classify.predict_multilabel.calls", "count", "lower", "calls", "classify.predict_multilabel"),
        ("classify.predict_multilabel.self_s", "s", "lower", "self", "classify.predict_multilabel"),
        ("classify.predict_sentiment.self_s", "s", "lower", "self", "classify.predict_sentiment"),
        ("classify.to_json.self_s", "s", "lower", "self", "classify.to_json"),
        ("classify.from_json.self_s", "s", "lower", "self", "classify.from_json"),
        ("reduce.spell_correct.calls", "count", "lower", "calls", "reduce.spell_correct"),
        ("reduce.spell_correct.self_s", "s", "lower", "self", "reduce.spell_correct"),
        ("reduce.spell_correct.edits", "count", "higher", "count", "reduce.spell_correct.edits"),
        ("reduce.levenshtein.calls", "count", "lower", "count", "reduce.levenshtein.calls"),
        ("reduce.mask_oov.self_s", "s", "lower", "self", "reduce.mask_oov"),
        ("reduce.mask_random.self_s", "s", "lower", "self", "reduce.mask_random"),
        ("reduce.fill_masks.self_s", "s", "lower", "self", "reduce.fill_masks"),
        ("reduce.fill_masks.masks", "count", "lower", "count", "reduce.fill_masks.masks"),
        ("reduce.NgramMaskFiller.from_dictionary.calls", "count", "lower", "calls",
         "reduce.NgramMaskFiller.from_dictionary"),
        ("reduce.NgramMaskFiller.from_dictionary.self_s", "s", "lower", "self",
         "reduce.NgramMaskFiller.from_dictionary"),
        ("reduce.client.requests", "count", "lower", "calls", "reduce.client.request"),
        ("reduce.client.wait_s", "s", "lower", "total", "reduce.client.request"),
        ("reduce.client.failures", "count", "lower", "count", "reduce.client.request.raised"),
        ("metrics.evaluate_reduction.self_s", "s", "lower", "self", "metrics.evaluate_reduction"),
        ("metrics.bleu.calls", "count", "lower", "calls", "metrics.bleu"),
        ("metrics.bleu.self_s", "s", "lower", "self", "metrics.bleu"),
        ("metrics.rouge_l.self_s", "s", "lower", "self", "metrics.rouge_l"),
        ("metrics.sentence_similarity.self_s", "s", "lower", "self", "metrics.sentence_similarity"),
        ("metrics.word_coverage.self_s", "s", "lower", "self", "metrics.word_coverage"),
        ("stats.dedupe.self_s", "s", "lower", "self", "stats.dedupe"),
        ("stats.dedupe.removed", "count", "higher", "count", "stats.dedupe.removed"),
        ("stats.corpus_summary.self_s", "s", "lower", "self", "stats.corpus_summary"),
    ]
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


@dataclass
class Step:
    metric: str
    argv: list
    outputs: tuple = ()
    check: object = None
    # Span names a traced run of the command must record; a missing one means
    # a call went round the tracer's wrappers.
    spans: tuple = ()


@dataclass
class Run:
    """One process: wall time, peak RSS, exit status and captured output."""

    started: float
    ended: float
    rss_mb: float
    status: int
    stdout: bytes
    stderr: bytes

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


@dataclass
class Context:
    """Generated inputs and what their outputs must look like."""

    work: Path
    seed: int
    props: dict
    env: dict
    deadline: float
    ids: dict = field(default_factory=dict)
    texts: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME", "PYTHONHASHSEED")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONIOENCODING="utf-8",
        PYTHONUTF8="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_process(argv, cwd: Path, env: dict, deadline: float) -> Run:
    """Run one child in its own session; kill its whole group if the deadline passes."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline passed")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, start_new_session=True)
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise BenchError(f"timed out: {shlex.join(map(str, argv))}") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    # perf_counter reads the system-wide monotonic clock, so these times
    # compare directly with the span times a traced child records.
    return Run(started=start, ended=end, rss_mb=usage.ru_maxrss * 1024 / 1e6,
               status=proc.returncode, stdout=out_path.read_bytes(), stderr=err_path.read_bytes())


# ---------------------------------------------------------------- checks


def _load(ctx: Context, name: str):
    from noisekit import dataio

    return dataio.load_corpus(ctx.work / name).documents


def _check_reduced(out_name, input_key, expect_texts=None):
    def check(ctx, payload):
        docs = _load(ctx, out_name)
        problems = []
        if [d.id for d in docs] != ctx.ids[input_key]:
            problems.append(f"{out_name}: ids differ from the input ids (or their order)")
        if any("<MASK>" in d.text for d in docs):
            problems.append(f"{out_name}: a <MASK> survived")
        if expect_texts and [d.text for d in docs] != ctx.texts[expect_texts]:
            problems.append(f"{out_name}: texts differ from the {expect_texts} texts")
        if payload.get("documents") != len(ctx.ids[input_key]):
            problems.append(f"{out_name}: reported {payload.get('documents')} documents")
        return problems

    return check


def check_dedupe(ctx, payload):
    problems = []
    if [d.id for d in _load(ctx, "train.tsv")] != ctx.ids["train"]:
        problems.append("train.tsv: ids differ from the non-duplicate raw ids (or their order)")
    if payload.get("removed") != ctx.props["duplicates"]:
        problems.append(f"dedupe removed {payload.get('removed')}, planted {ctx.props['duplicates']}")
    return problems


def check_stats(ctx, payload):
    if payload.get("documents") != ctx.props["train_docs"]:
        return [f"stats counted {payload.get('documents')} documents"]
    return []


def check_train(ctx, payload):
    problems = []
    if payload.get("trained_on") != ctx.props["train_docs"]:
        problems.append(f"trained on {payload.get('trained_on')} documents")
    features = payload.get("features")
    if not isinstance(features, int) or features < 1:
        problems.append(f"bad feature count {features!r}")
    elif ctx.observed.setdefault("features", features) != features:
        problems.append("noise and sentiment featurizers disagree on D")
    return problems


def _check_predict(label):
    def check(ctx, payload):
        problems = []
        ids = [p.get("id") for p in payload.get("predictions", [])]
        if ids != ctx.ids["test"]:
            problems.append("predictions do not follow the test ids")
        micro = payload.get("metrics", {}).get("micro", {}).get("f1")
        if not isinstance(micro, float) or not 0.0 < micro <= 1.0:
            problems.append(f"bad micro F1 {micro!r}")
        else:
            ctx.observed[label] = micro
        return problems

    return check


EVAL_OUTPUTS = ("spell.tsv", "mask-oov.tsv", "mask-random.tsv", "backtranslate.tsv")


def check_eval(ctx, payload):
    reports = payload.get("reports", [])
    problems = []
    methods = [r.get("method") for r in reports]
    if methods != sorted(Path(o).stem for o in EVAL_OUTPUTS):
        problems.append(f"eval-reduction reported methods {methods}")
    for report in reports:
        missing = [k for k, v in report.items() if v is None]
        if missing:
            problems.append(f"{report.get('method')}: no {', '.join(missing)}")
        # The fixture translates back to the truth text, so this score is exact.
        if report.get("method") == "backtranslate" and report.get("bleu") != 1.0:
            problems.append(f"backtranslate BLEU {report.get('bleu')} against its own truth")
    return problems


TRAIN_SPANS = ("dataio.load_corpus", "textcore.normalize", "textcore.char_ngrams", "features.fit_tfidf",
               "features.transform", "dataio.save_model_bundle", "features.to_json", "classify.to_json")
PREDICT_SPANS = ("dataio.load_corpus", "dataio.load_model_bundle", "features.from_json", "classify.from_json",
                 "features.transform")


def steps(workload: str, seed: int) -> list:
    client = shlex.join([sys.executable, str(HERE / "echo_translator.py")])
    if workload == "identify":
        return [
            Step("audit_s", ["dedupe", "raw.tsv", "train.tsv"], ("train.tsv",), check_dedupe,
                 ("dataio.load_corpus", "textcore.normalize", "stats.dedupe", "dataio.save_corpus")),
            Step("audit_s", ["stats", "train.tsv"], (), check_stats,
                 ("dataio.load_corpus", "stats.corpus_summary")),
            Step("train_noise_s", ["train-noise", "train.tsv", "--analyzer", "char", "--nmin", "1",
                                   "--nmax", "4", "--out", "noise.json"], ("noise.json",), check_train,
                 TRAIN_SPANS + ("classify.train_ovr_hinge",)),
            Step("predict_noise_s", ["predict-noise", "noise.json", "test.tsv"], (),
                 _check_predict("noise_micro_f1"), PREDICT_SPANS + ("classify.predict_multilabel",)),
            Step("train_sentiment_s", ["train-sentiment", "train.tsv", "--auto-weights", "--analyzer",
                                       "char", "--nmin", "1", "--nmax", "4", "--out", "senti.json"],
                 ("senti.json",), check_train, TRAIN_SPANS + ("classify.train_softmax_weighted",)),
            Step("predict_sentiment_s", ["predict-sentiment", "senti.json", "test.tsv"], (),
                 _check_predict("sentiment_micro_f1"), PREDICT_SPANS + ("classify.predict_sentiment",)),
        ]
    if workload == "reduce":
        def reduce_step(metric, method, out, *extra, expect=None, spans=()):
            return Step(metric, ["reduce", "noisy.tsv", "--method", method, *extra, "--out", out],
                        (out,), _check_reduced(out, "noisy", expect),
                        ("dataio.load_corpus", "textcore.normalize", "dataio.save_corpus") + spans)

        masking = ("dataio.load_dictionary", "reduce.fill_masks", "reduce.NgramMaskFiller.from_dictionary",
                   "textcore.tokenize")
        client_spans = ("dataio.load_corpus", "reduce.client.request", "dataio.save_corpus")
        return [
            reduce_step("reduce_spell_s", "spell", "spell.tsv", "--dict", "dictionary.tsv",
                        spans=("dataio.load_dictionary", "reduce.spell_correct")),
            reduce_step("reduce_mask_oov_s", "mask-oov", "mask-oov.tsv", "--dict", "dictionary.tsv",
                        spans=masking + ("reduce.mask_oov",)),
            reduce_step("reduce_mask_random_s", "mask-random", "mask-random.tsv", "--p", "0.2",
                        "--seed", str(seed), "--dict", "dictionary.tsv", spans=masking + ("reduce.mask_random",)),
            reduce_step("reduce_fixture_s", "backtranslate", "backtranslate.tsv", "--fixture",
                        "fixture.jsonl", expect="truth", spans=("dataio.load_fixture", "reduce.client.request")),
            Step("eval_reduction_s", ["eval-reduction", *EVAL_OUTPUTS, "--truth", "truth.tsv",
                                      "--inputs", "noisy.tsv", "--embeddings", "embeddings.txt",
                                      "--dict", "dictionary.tsv", "--human-tallies", "human.json"],
                 (), check_eval,
                 ("dataio.load_corpus", "dataio.load_embeddings", "dataio.load_dictionary",
                  "metrics.evaluate_reduction", "metrics.bleu", "metrics.rouge_l", "metrics.sentence_similarity",
                  "metrics.word_coverage", "textcore.tokenize")),
            Step("reduce_client_s", ["reduce", "client.tsv", "--method", "backtranslate", "--client",
                                     client, "--out", "client-backtranslate.tsv"],
                 ("client-backtranslate.tsv",), _check_reduced("client-backtranslate.tsv", "client", "client"),
                 client_spans),
            Step("reduce_client_s", ["reduce", "client.tsv", "--method", "paraphrase", "--dict",
                                     "dictionary.tsv", "--client", client, "--out", "client-paraphrase.tsv"],
                 ("client-paraphrase.tsv",), _check_reduced("client-paraphrase.tsv", "client"), client_spans),
        ]
    raise BenchError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- running


@dataclass
class Outcome:
    """One command run plus everything its checks found."""

    run: Run
    problems: list
    hashes: dict


def execute(ctx: Context, step: Step, traced_path: Path | None = None) -> Outcome:
    prefix = [sys.executable, "-m", "noisekit.cli"]
    if traced_path is not None:
        prefix = [sys.executable, str(HERE / "traced_cli.py"), str(traced_path), "--"]
    run = run_process(prefix + step.argv, ctx.work, ctx.env, ctx.deadline)
    problems = []
    stderr = run.stderr.decode("utf-8", "replace")
    if run.status != 0:
        problems.append(f"exit status {run.status}")
    if any(line.startswith("ERROR") for line in stderr.splitlines()):
        problems.append("ERROR line on stderr: " + stderr.strip().splitlines()[-1])
    payload = None
    if not problems:
        try:
            payload = json.loads(run.stdout)
        except ValueError:
            problems.append("stdout is not one JSON object")
    if payload is not None and step.check is not None:
        problems.extend(step.check(ctx, payload))
    hashes = {"stdout": sha256(run.stdout)}
    for name in step.outputs:
        path = ctx.work / name
        hashes[name] = sha256(path.read_bytes()) if path.exists() else None
    return Outcome(run, problems, hashes)


def prepare(seed: int, work: Path, deadline: float) -> Context:
    from noisekit import dataio

    props = generate(work, seed, **SIZES)
    ctx = Context(work=work, seed=seed, props=props, env=child_env(), deadline=deadline)
    for key, name in (("raw", "raw.tsv"), ("test", "test.tsv"), ("noisy", "noisy.tsv"),
                      ("truth", "truth.tsv"), ("client", "client.tsv")):
        docs = dataio.load_corpus(work / name).documents
        ctx.ids[key] = [d.id for d in docs]
        ctx.texts[key] = [d.text for d in docs]
    # The generator names every planted duplicate "dup<j>"; dedupe must drop exactly those.
    ctx.ids["train"] = [i for i in ctx.ids["raw"] if not i.startswith("dup")]
    return ctx


def sample_host(ctx: Context, host: dict, n: int) -> None:
    """Time n fresh set-ups and n calibration jobs, in turn."""
    for _ in range(n):
        for key, code in (("setup", SETUP_CODE), ("calibration", CALIBRATION_CODE)):
            run = run_process([sys.executable, "-c", code], ctx.work, ctx.env, ctx.deadline)
            if run.status != 0:
                raise BenchError(f"{key} job exited with status {run.status}")
            host[key].append(run.wall_s)


def timed_workload(ctx: Context, workload: str, seconds: float, host: dict) -> dict:
    plan = steps(workload, ctx.seed)
    passes = []
    first_hashes = None
    failed = attempted = 0
    problems = []
    started = time.monotonic()
    while True:
        sample_host(ctx, host, SETUP_PER_PASS)
        pass_start = time.monotonic()
        outcomes = []
        for step in plan:
            outcome = execute(ctx, step)
            attempted += 1
            if first_hashes is not None and outcome.hashes != first_hashes[len(outcomes)]:
                outcome.problems.append("outputs differ from the first repetition")
            if outcome.problems:
                failed += 1
                problems.append({"argv": step.argv, "pass": len(passes), "problems": outcome.problems})
            outcomes.append(outcome)
            if outcome.problems:
                break
        passes.append(outcomes)
        if first_hashes is None:
            first_hashes = [o.hashes for o in outcomes]
        now = time.monotonic()
        # Stop early rather than let a slow pass run into the deadline.
        if failed or now - started >= seconds or now + 2 * (now - pass_start) > ctx.deadline:
            break
    return summarize_timed(ctx, workload, plan, passes, first_hashes, attempted, failed, problems)


def _median(values):
    return statistics.median(values) if values else None


def summarize_timed(ctx, workload, plan, passes, first_hashes, attempted, failed, problems) -> dict:
    """Per command, the median wall time over complete repetitions; batch_s is their sum."""
    complete = [p for p in passes if len(p) == len(plan)]
    samples = [[p[i].run.wall_s for p in complete] for i in range(len(plan))]
    medians = [_median(s) for s in samples]
    report = {}
    for name in REPORTED[workload]:
        parts = [m for step, m in zip(plan, medians) if step.metric == name]
        value = sum(parts) if complete else None
        report[name] = {"value": value, "unit": "s", "n": len(complete)}
    bundle = ctx.work / "noise.json"
    if workload == "identify" and bundle.exists():
        report["bundle_mb"] = {"value": bundle.stat().st_size / 1e6, "unit": "MB", "n": 1}
        report["noise_micro_f1"] = {"value": ctx.observed.get("noise_micro_f1"), "unit": "f1", "n": 1}
    outputs = [ctx.work / name for step in plan for name in step.outputs]
    sha = {}
    for i, hashes in enumerate(first_hashes or []):
        sha.update({k: v for k, v in hashes.items() if k != "stdout"})
        sha[f"{plan[i].argv[0]}#{i}.stdout"] = hashes["stdout"]
    return {
        "workload": workload,
        "passes": len(complete),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "batch_s": sum(medians) if complete else None,
        "peak_rss_mb": _median([max(o.run.rss_mb for o in p) for p in complete]),
        "output_mb": sum(path.stat().st_size for path in outputs if path.exists()) / 1e6,
        "report": report,
        "commands": [{"argv": shlex.join(step.argv), "wall_s": s, "median_s": m}
                     for step, s, m in zip(plan, samples, medians)],
        "sha256": sha,
    }


# ---------------------------------------------------------------- tracing


def self_times(trace: dict) -> dict:
    """Per span name: calls, summed duration and summed self time (duration minus children)."""
    spans = trace["spans"]
    durations = [end - start for _, start, end, _ in spans]
    own = list(durations)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            own[parent] -= durations[i]
    out = {}
    for i, (nid, _, _, _) in enumerate(spans):
        entry = out.setdefault(trace["names"][nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += durations[i]
        entry["self_s"] += own[i]
    return out


def check_trace(trace: dict, step: Step) -> list:
    """The spans form one tree, each closed and inside its parent, and name what the command does."""
    spans, names = trace["spans"], trace["names"]
    if not spans or spans[0][3] != -1 or any(parent < 0 for *_, parent in spans[1:]):
        return ["trace: not exactly one root span"]
    for i, (nid, start, end, parent) in enumerate(spans):
        if end is None or end < start:
            return [f"trace: span {names[nid]} never closed"]
        if parent >= 0 and not (parent < i and spans[parent][1] <= start and end <= spans[parent][2]):
            return [f"trace: span {names[nid]} lies outside its parent"]
    recorded = {names[nid] for nid, *_ in spans}
    missing = [name for name in step.spans if name not in recorded]
    return [f"trace: no span for {', '.join(missing)}"] if missing else []


def read_trace(path: Path, run: Run, step: Step):
    """Parse one traced command's trace; return (trace, coverage row, problems)."""
    if not path.exists():
        return None, None, ["no trace written"]
    try:
        spans_line, written_line = path.read_text(encoding="utf-8").splitlines()
        trace, written = json.loads(spans_line), float(written_line)
    except ValueError:
        return None, None, ["trace file unreadable"]
    finally:
        path.unlink()
    problems = check_trace(trace, step)
    if problems:
        return None, None, problems
    _, root_start, root_end, _ = trace["spans"][0]
    row = {
        "self_sum_s": sum(e["self_s"] for e in self_times(trace).values()),
        "boot_s": root_start - run.started,
        "write_s": written - root_end,
        "exit_s": run.ended - written,
    }
    # Parent and child read the same monotonic clock, so boot and exit are
    # the parts of the wall time the spans and the write leave uncovered.
    if row["boot_s"] < 0 or row["exit_s"] < 0:
        problems.append("trace times fall outside the command's wall time")
    elif row["boot_s"] + row["exit_s"] > COVERAGE_TOLERANCE_S:
        problems.append(f"boot + exit {row['boot_s'] + row['exit_s']:.3f} s, above {COVERAGE_TOLERANCE_S} s")
    return trace, row, problems


def traced_run(ctx: Context) -> dict:
    layers = {w: {} for w in WORKLOADS}
    counts = {w: {} for w in WORKLOADS}
    commands = []
    attempted = failed = 0
    problems = []
    trace_path = ctx.work / ".trace.json"
    for workload in WORKLOADS:
        for step in steps(workload, ctx.seed):
            plain, traced, rows, tallies = [], [], [], []
            for _ in range(TRACE_ROUNDS):
                plain.append(execute(ctx, step))
                trace_path.unlink(missing_ok=True)
                outcome = execute(ctx, step, traced_path=trace_path)
                traced.append(outcome)
                if outcome.hashes != plain[0].hashes:
                    outcome.problems.append("traced outputs differ from untraced outputs")
                trace, row, found = read_trace(trace_path, outcome.run, step)
                outcome.problems.extend(found)
                if trace is None:
                    continue
                rows.append(row)
                per_name = self_times(trace)
                tally = ({name: e["calls"] for name, e in per_name.items()}, trace["counts"])
                if tallies and tally != tallies[0]:
                    outcome.problems.append("span calls or counters differ from the first traced round")
                tallies.append(tally)
                for name, entry in per_name.items():
                    acc = layers[workload].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                    for key in acc:
                        acc[key] += entry[key]
                for name, value in trace["counts"].items():
                    counts[workload][name] = counts[workload].get(name, 0) + value
            for outcome in plain[1:]:
                if outcome.hashes != plain[0].hashes:
                    outcome.problems.append("outputs differ from the first repetition")
            for outcome in plain + traced:
                attempted += 1
                if outcome.problems:
                    failed += 1
                    problems.append({"argv": step.argv, "problems": outcome.problems})
            untraced = _median([o.run.wall_s for o in plain])
            traced_s = _median([o.run.wall_s for o in traced])
            commands.append({
                "workload": workload,
                "command": shlex.join(step.argv),
                "untraced_s": untraced,
                "traced_s": traced_s,
                "overhead_s": traced_s - untraced,
                **{key: _median([r[key] for r in rows]) if rows else None
                   for key in ("self_sum_s", "write_s", "boot_s", "exit_s")},
            })
    # Every round adds its spans and counters; report the mean of one round.
    per_workload = {
        workload: {name: _layer_value(kind, key, layers[workload], counts[workload])
                   for name, _, _, kind, key in PER_LAYER}
        for workload in WORKLOADS
    }
    metrics = {name: {"value": sum(per_workload[w][name] for w in WORKLOADS), "unit": unit}
               for name, unit, *_ in PER_LAYER}
    return {"attempted": attempted, "failed": failed, "problems": problems, "commands": commands,
            "rounds": TRACE_ROUNDS, "overhead_s": sum(c["overhead_s"] for c in commands),
            "per_workload": per_workload, "metrics": metrics}


def _layer_value(kind, key, layer, counts):
    if kind == "count":
        return counts.get(key, 0) // TRACE_ROUNDS
    entry = layer.get(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    if kind == "calls":
        return entry["calls"] // TRACE_ROUNDS
    return {"self": entry["self_s"], "total": entry["total_s"]}[kind] / TRACE_ROUNDS


# ---------------------------------------------------------------- reporting


def machine() -> dict:
    return {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}


def input_properties(ctx: Context) -> dict:
    props = dict(ctx.props)
    dim = ctx.observed.get("features")
    if dim:
        props["features_D"] = dim
        props["noise_weights_bytes"] = 10 * dim * 8
        props["sentiment_weights_bytes"] = 3 * dim * 8
    props["client_requests_per_doc"] = {"backtranslate": 2, "paraphrase": 1}
    props["client_latency_ms"] = LATENCY_MS
    return props


def print_timed(result: dict, host: dict) -> None:
    print(f"== {result['workload']}: {result['passes']} repetitions, "
          f"{result['attempted']} commands, {result['failed']} failed")
    print(f"  {'setup_s':<22}{_median(host['setup']):10.4f} s    (median of {len(host['setup'])})")
    print(f"  {'calibration_s':<22}{_median(host['calibration']):10.4f} s    "
          f"(median of {len(host['calibration'])}; reference {CALIBRATION_REF_S} s)")
    for name, entry in result["report"].items():
        value = entry["value"]
        shown = f"{value:10.4f}" if isinstance(value, float) else f"{value!s:>10}"
        print(f"  {name:<22}{shown} {entry['unit']:<4} (median of {entry['n']})")
    print(f"  {'batch_s':<22}{result['batch_s'] or 0:10.4f} s    (sum of the command medians)")
    print(f"  {'batch_ref_s':<22}{result['batch_ref_s'] or 0:10.4f} s    (batch_s at the reference host speed)")
    print(f"  {'peak_rss_mb':<22}{result['peak_rss_mb'] or 0:10.1f} MB   (highest command, median of {result['passes']})")
    print(f"  {'output_mb':<22}{result['output_mb']:10.3f} MB")
    print(f"  {'failed_frac':<22}{result['failed'] / max(1, result['attempted']):10.4f}")
    for problem in result["problems"]:
        print(f"  FAILED {' '.join(problem['argv'][:1])}: {'; '.join(problem['problems'])}")


def print_traced(result: dict) -> None:
    print(f"== traced run: every command, {result['rounds']} rounds of untraced then traced; "
          "times are medians over the rounds")
    print(f"  {'workload':<9}{'command':<17}{'untraced_s':>11}{'traced_s':>10}{'overhead_s':>11}"
          f"{'self_sum_s':>11}{'write_s':>8}{'boot_s':>8}{'exit_s':>8}")
    for c in result["commands"]:
        cells = "".join(f"{c[k]:{w}.4f}" if c[k] is not None else f"{'-':>{w}}"
                        for k, w in (("untraced_s", 11), ("traced_s", 10), ("overhead_s", 11),
                                     ("self_sum_s", 11), ("write_s", 8), ("boot_s", 8), ("exit_s", 8)))
        print(f"  {c['workload']:<9}{c['command'].split()[0]:<17}{cells}")
    print(f"  tracing overhead, all commands: {result['overhead_s']:.4f} s (difference of medians of "
          f"{result['rounds']} wall times per command; below the host's noise, so not a metric)")
    print(f"  {'metric':<48}" + "".join(f"{w:>12}" for w in WORKLOADS))
    for name, unit, *_ in PER_LAYER:
        cells = "".join(_fmt(result["per_workload"][w][name]) for w in WORKLOADS)
        print(f"  {name + ' [' + unit + ']':<48}{cells}")
    for problem in result["problems"]:
        print(f"  FAILED {' '.join(problem['argv'][:1])}: {'; '.join(problem['problems'])}")


def _fmt(value) -> str:
    return f"{value:12.4f}" if isinstance(value, float) else f"{value:12d}"


def check_benchmark_file() -> None:
    """The metric names printed here must be the ones BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [m["name"] for m in declared["end_to_end"]] != [n for n, _ in END_TO_END]:
        raise BenchError("BENCHMARK.json end_to_end names differ from run.py")
    if [m["name"] for m in declared["per_layer"]] != [m[0] for m in PER_LAYER]:
        raise BenchError("BENCHMARK.json per_layer names differ from run.py")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads differ from run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (SRC / "noisekit" / "cli.py").is_file():
        raise BenchError(f"no noisekit sources under {SRC}")
    check_benchmark_file()
    sys.path.insert(0, str(SRC))
    import noisekit

    if Path(noisekit.__file__).resolve().parent != SRC / "noisekit":
        raise BenchError(f"imported noisekit from {noisekit.__file__}, not from {SRC}")
    signal.signal(signal.SIGALRM, _on_alarm)

    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = WORK / f"{label}_{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ctx = prepare(args.seed, work, started + RUN_BUDGET_S)
        result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine(), "sizes": SIZES}
        if args.trace:
            traced = traced_run(ctx)
            print_traced(traced)
            attempted, failed, metrics = traced["attempted"], traced["failed"], traced["metrics"]
            result["traced"] = traced
        else:
            host = {"setup": [], "calibration": []}
            sample_host(ctx, host, SETUP_FIRST)
            names = WORKLOADS if args.workload == "all" else (args.workload,)
            runs = [timed_workload(ctx, name, args.seconds, host) for name in names]
            scale = CALIBRATION_REF_S / _median(host["calibration"])
            for run in runs:
                run["batch_ref_s"] = run["batch_s"] * scale if run["batch_s"] is not None else None
                print_timed(run, host)
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            metrics = {"setup_s": {"value": _median(host["setup"]), "unit": "s"}}
            if args.workload == "all":
                for run in runs:
                    metrics.update({k: {"value": v["value"], "unit": v["unit"]} for k, v in run["report"].items()})
                metrics["peak_rss_mb"] = {"value": max(r["peak_rss_mb"] or 0 for r in runs), "unit": "MB"}
                metrics["failed_frac"] = {"value": failed / max(1, attempted), "unit": "ratio"}
            else:
                run = runs[0]
                for name in ("batch_ref_s", "peak_rss_mb", "output_mb"):
                    metrics[name] = {"value": run[name], "unit": dict(END_TO_END)[name]}
            result.update(setup_samples_s=host["setup"], calibration_samples_s=host["calibration"], timed=runs)
        result["inputs"] = input_properties(ctx)
        result["metrics"] = metrics
        results_dir = WORK / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        (results_dir / f"BENCH_{label}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True, default=str), encoding="utf-8")
        print(f"inputs: {json.dumps(result['inputs'], sort_keys=True)}")
        print(f"results: {results_dir / f'BENCH_{label}.json'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
