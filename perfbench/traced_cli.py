"""Run one noisekit CLI command with span-recording wrappers around its layers.

    python3 perfbench/traced_cli.py TRACE_JSON -- <noisekit arguments>

Before the command runs, every traced function is replaced, in every
``noisekit`` module that holds it, by a wrapper that records a span: its
name, start, end and parent span. Callers resolve these names through module
globals at call time (``spell_correct`` calls ``levenshtein`` through the
``noisekit.reduce`` globals, ``dataio`` holds its own binding of
``textcore.normalize``), so rebinding every holder catches each call. Class
methods are wrapped on the class. A few very hot, leaf-level functions are
only counted, without a span.

Spans and counters stay in memory and are written to TRACE_JSON once, after
the command returns, followed by a line with the time the write finished.
The command's stdout, stderr, exit status and output files are the same as
without tracing.
"""

import time

T0 = time.perf_counter()

import functools
import json
import os
import sys


class Tracer:
    """In-memory span list: [name_id, start, end, parent_index] per span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str, start: float) -> list:
        record = [self.name_id(name), start, None, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list, end: float) -> None:
        record[2] = end
        self.stack.pop()

    def wrap(self, name: str, func, counters=()):
        """Span-recording wrapper; counters are (name, fn(args, kwargs, result))."""
        nid = self.name_id(name)
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter
        raised = name + ".raised"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [nid, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                counts[raised] = counts.get(raised, 0) + 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            for counter, fn in counters:
                counts[counter] = counts.get(counter, 0) + fn(args, kwargs, result)
            return result

        return wrapper

    def count_calls(self, name: str, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return func(*args, **kwargs)

        return wrapper

    def dump(self, path: str, status: int) -> None:
        """One JSON line of spans and counters, then the time the write finished."""
        payload = {"status": status, "names": self.names, "spans": self.spans, "counts": self.counts}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write(f"\n{time.perf_counter()!r}\n")


def _rebind(original, replacement) -> None:
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "noisekit" and not mod_name.startswith("noisekit."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# (module, attribute, span name, counters). Attribute "Class.method" wraps a method.
TRACED = (
    ("textcore", "normalize", "textcore.normalize", ()),
    ("textcore", "char_ngrams", "textcore.char_ngrams", (("textcore.char_ngrams.grams", lambda a, k, r: len(r)),)),
    ("textcore", "tokenize", "textcore.tokenize", ()),
    ("dataio", "load_corpus", "dataio.load_corpus", (("dataio.load_corpus.docs", lambda a, k, r: len(r.documents)),)),
    ("dataio", "save_corpus", "dataio.save_corpus", ()),
    ("dataio", "save_model_bundle", "dataio.save_model_bundle",
     (("dataio.save_model_bundle.bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),)),
    ("dataio", "load_model_bundle", "dataio.load_model_bundle", ()),
    ("dataio", "load_dictionary", "dataio.load_dictionary", ()),
    ("dataio", "load_embeddings", "dataio.load_embeddings", ()),
    ("dataio", "load_fixture", "dataio.load_fixture", ()),
    ("features", "fit_tfidf", "features.fit_tfidf", (("features.fit_tfidf.terms", lambda a, k, r: r.dim),)),
    ("features", "transform", "features.transform", (("features.transform.nnz", lambda a, k, r: r.nnz),)),
    ("features", "to_json", "features.to_json", ()),
    ("features", "from_json", "features.from_json", ()),
    ("classify", "train_ovr_hinge", "classify.train_ovr_hinge",
     (("classify.train_ovr_hinge.steps", lambda a, k, r: len(a[0]) * _arg(a, k, 2, "config").epochs),)),
    ("classify", "train_softmax_weighted", "classify.train_softmax_weighted", ()),
    ("classify", "predict_multilabel", "classify.predict_multilabel", ()),
    ("classify", "predict_sentiment", "classify.predict_sentiment", ()),
    ("classify", "to_json", "classify.to_json", ()),
    ("classify", "from_json", "classify.from_json", ()),
    ("reduce", "spell_correct", "reduce.spell_correct", (("reduce.spell_correct.edits", lambda a, k, r: len(r.edits)),)),
    ("reduce", "mask_oov", "reduce.mask_oov", ()),
    ("reduce", "mask_random", "reduce.mask_random", ()),
    ("reduce", "fill_masks", "reduce.fill_masks",
     (("reduce.fill_masks.masks", lambda a, k, r: _arg(a, k, 0, "masked").count("<MASK>")),)),
    ("reduce", "NgramMaskFiller.from_dictionary", "reduce.NgramMaskFiller.from_dictionary", ()),
    ("reduce", "FixtureClient.request", "reduce.client.request", ()),
    ("reduce", "SubprocessClient.request", "reduce.client.request", ()),
    ("metrics", "evaluate_reduction", "metrics.evaluate_reduction", ()),
    ("metrics", "bleu", "metrics.bleu", ()),
    ("metrics", "rouge_l", "metrics.rouge_l", ()),
    ("metrics", "sentence_similarity", "metrics.sentence_similarity", ()),
    ("metrics", "word_coverage", "metrics.word_coverage", ()),
    ("stats", "dedupe", "stats.dedupe", (("stats.dedupe.removed", lambda a, k, r: r[1]),)),
    ("stats", "corpus_summary", "stats.corpus_summary", ()),
)
# Called once per dictionary candidate: counted only, so its time stays in spell_correct.
COUNTED = (("reduce", "levenshtein", "reduce.levenshtein.calls"),)


def install(tracer: Tracer) -> None:
    modules = {name: sys.modules["noisekit." + name] for name in
               ("textcore", "dataio", "features", "classify", "reduce", "metrics", "stats")}
    for mod_name, attr, span, counters in TRACED:
        module = modules[mod_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(tracer.wrap(span, raw.__func__, counters)))
            else:
                setattr(cls, method, tracer.wrap(span, raw, counters))
        else:
            original = getattr(module, attr)
            _rebind(original, tracer.wrap(span, original, counters))
    for mod_name, attr, counter in COUNTED:
        original = getattr(modules[mod_name], attr)
        _rebind(original, tracer.count_calls(counter, original))


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 3 or args[1] != "--":
        print("usage: traced_cli.py TRACE_JSON -- <noisekit arguments>", file=sys.stderr)
        return 1
    trace_path, argv = args[0], args[2:]
    tracer = Tracer()
    root = tracer.open("trace.process", T0)
    setup = tracer.open("setup.import", time.perf_counter())
    import noisekit.cli as cli

    tracer.close(setup, time.perf_counter())
    install(tracer)
    command = tracer.open("cli." + argv[0], time.perf_counter())
    status = 1
    try:
        status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        end = time.perf_counter()
        tracer.close(command, end)
        tracer.close(root, end)
        tracer.dump(trace_path, status)
    return status


if __name__ == "__main__":
    sys.exit(main())
