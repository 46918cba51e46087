"""Command-line front door wiring the modules into reproducible batch jobs.

Results go to standard output as one line of JSON; errors print one
machine-parsable ``ERROR <code>: <message>`` line and exit with 1 for usage
problems, 2 for data errors, 3 for client failures. Each warning prints one
``WARNING: <message>`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import io
import json
import math
import os
import shlex
import sys
import warnings
from collections import Counter
from pathlib import Path

from . import agreement, classify, dataio, features, metrics, reduce as reduction, stats, textcore
from .errors import InsufficientData, IoFailure, Malformed, NoisekitError
from .features import AnalyzerConfig, AnalyzerMode
from .reduce import ReduceMethod
from .textcore import NOISE_CLASSES, SENTIMENT_CLASSES, Document, NoiseLabelSet, SentimentLabel


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"ERROR Usage: {message}", file=sys.stderr)
        raise SystemExit(1)


def _csv_delimiter(value: str) -> str:
    if len(value) != 1:
        raise argparse.ArgumentTypeError(f"must be one character, got {value!r}")
    return value


def _command_line(value: str) -> list[str]:
    """A shell-style command line split into its argv; it must name a program."""
    try:
        argv = shlex.split(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot split {value!r}: {exc}") from None
    if not argv:
        raise argparse.ArgumentTypeError(f"must name a program, got {value!r}")
    return argv


def _percent(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not 0.0 <= number <= 100.0:  # false for nan too
        raise argparse.ArgumentTypeError(f"must be a number in [0, 100], got {value!r}")
    return number


def cmd_stats(args) -> dict:
    corpus = dataio.load_corpus(args.corpus, normalize_text=args.normalize)
    summary = stats.corpus_summary(corpus.documents)
    if args.hist_tsv:
        textcore.write_text(args.hist_tsv, stats.histogram_tsv(summary))
    if args.corr_tsv:
        textcore.write_text(args.corr_tsv, stats.correlation_tsv(summary))
    return summary


def cmd_dedupe(args) -> dict:
    corpus = dataio.load_corpus(args.input, normalize_text=args.normalize)
    kept, removed = stats.dedupe(corpus.documents)
    dataio.save_corpus(kept, args.output)
    return {"input": len(corpus.documents), "kept": len(kept), "removed": removed}


def _labeled_rows(args, field: str) -> tuple[list[str], list]:
    """Texts and labels of the training rows labeled in `field` ("noise" or "sentiment")."""
    documents = dataio.load_corpus(args.train, normalize_text=args.normalize).documents
    rows = [(d.text, getattr(d, field)) for d in documents if getattr(d, field) is not None]
    if not rows:
        raise Malformed(f"no {field}-labeled rows to train on", path=args.train)
    texts, labels = zip(*rows)
    return list(texts), list(labels)


# Trainers and predictors are read as `classify.<name>` at call time, never from a table built
# at import, so a wrapper rebound into `classify` (perfbench/traced_cli.py) is the one that runs.
def _train(args, trainer, texts, labels, class_weights=None) -> dict:
    """Fit the featurizer on `texts`, train with `trainer` and save both as one bundle."""
    analyzer = AnalyzerConfig(mode=AnalyzerMode(args.analyzer), n_min=args.nmin, n_max=args.nmax)
    config = classify.TrainConfig(c=args.c, epochs=args.epochs, learning_rate=args.lr,
                                  seed=args.seed, class_weights=class_weights)
    tfidf = features.fit_tfidf(texts, analyzer, args.min_df)
    model = trainer(features.transform(tfidf, texts), labels, config)
    dataio.save_model_bundle(args.out, tfidf, model)
    return {"trained_on": len(texts), "features": tfidf.dim, "model": str(args.out)}


def cmd_train_noise(args) -> dict:
    texts, labels = _labeled_rows(args, "noise")
    summary = _train(args, classify.train_ovr_hinge, texts, labels)
    return {**summary, "classes": list(NOISE_CLASSES)}


def cmd_train_sentiment(args) -> dict:
    texts, labels = _labeled_rows(args, "sentiment")
    weights = None
    if args.auto_weights:
        counts = Counter(labels)
        missing = ", ".join(label.label for label in SentimentLabel if not counts[label])
        if missing:
            reason = f"--auto-weights needs every sentiment class; no row is labeled {missing}"
            raise InsufficientData(reason, path=args.train)
        weights = classify.compute_class_weights([counts[label] for label in SentimentLabel])
    summary = _train(args, classify.train_softmax_weighted, texts, labels, weights)
    return {**summary, "class_weights": weights}


def _transformed_corpus(args, kind: classify.ModelKind):
    """The bundle's classifier, the corpus's documents and their feature matrix."""
    tfidf, model = dataio.load_model_bundle(args.model, kind)
    documents = dataio.load_corpus(args.corpus, normalize_text=args.normalize).documents
    return model, documents, features.transform(tfidf, [d.text for d in documents])


def _prediction_result(args, field: str, model, documents, predicted, predictions) -> dict:
    """`predictions`, with P/R/F1 over the rows labeled in `field`; `--out` gets `predicted`."""
    result = {"predictions": predictions}
    gold = [getattr(d, field) for d in documents]
    scored = [(g.mask, p.mask) for g, p in zip(gold, predicted) if g is not None]
    if scored:
        result["metrics"] = metrics.prf_report(*zip(*scored), model.class_names)
    if args.out:
        out_docs = [dataclasses.replace(d, **{field: p}) for d, p in zip(documents, predicted)]
        dataio.save_corpus(out_docs, args.out)
    return result


def cmd_predict_noise(args) -> dict:
    model, documents, matrix = _transformed_corpus(args, classify.ModelKind.OVR_HINGE)
    predicted = classify.predict_multilabel(model, matrix)
    predictions = [
        {"id": d.id, "noise": p.to_bits(), "labels": list(p.names())}
        for d, p in zip(documents, predicted)
    ]
    return _prediction_result(args, "noise", model, documents, predicted, predictions)


def cmd_predict_sentiment(args) -> dict:
    model, documents, matrix = _transformed_corpus(args, classify.ModelKind.SOFTMAX_WEIGHTED)
    predicted, probs = classify.predict_sentiment(model, matrix)
    predictions = [
        {
            "id": d.id,
            "sentiment": label.label,
            "probabilities": {name: round(float(p), 6) for name, p in zip(model.class_names, row)},
        }
        for d, label, row in zip(documents, predicted, probs)
    ]
    return _prediction_result(args, "sentiment", model, documents, predicted, predictions)


def cmd_import_corpus(args) -> dict:
    """Map an upstream CSV export onto the corpus TSV schema."""
    import csv

    sentiment_map = {}
    if args.sentiment_map:
        for pair in args.sentiment_map.split(","):
            key, sep, value = pair.partition("=")
            if not sep or value.strip() not in SENTIMENT_CLASSES:
                raise Malformed(f"bad --sentiment-map entry {pair!r}")
            sentiment_map[key.strip()] = value.strip()
    noise_cols = args.noise_cols.split(",") if args.noise_cols else None
    if noise_cols is not None and len(noise_cols) != len(NOISE_CLASSES):
        raise Malformed(f"--noise-cols needs {len(NOISE_CLASSES)} names, got {len(noise_cols)}")

    content = io.StringIO(textcore.read_text(args.input), newline="")
    reader = csv.reader(content, delimiter=args.delimiter)
    optional = (args.id_col, args.sentiment_col, *(noise_cols or ()))
    try:
        header = next(reader, [])
        for col in (args.text_col, *(col for col in optional if col is not None)):
            if col not in header:
                raise Malformed(f"no column {col!r} in the header", path=args.input, line=1)
        # reader.line_num is the file line a row ends on; quoted fields may span lines.
        rows = [(reader.line_num, cells) for cells in reader if cells]  # blank lines are skipped
    except csv.Error as exc:
        raise Malformed(str(exc), path=args.input, line=reader.line_num) from None
    documents = []
    seen_ids = set()
    skipped_empty = 0
    unlabeled_noise = 0
    if not rows and noise_cols:
        raise Malformed("no data rows", path=args.input)
    for i, (lineno, cells) in enumerate(rows):
        if len(cells) != len(header):
            reason = f"expected {len(header)} fields, got {len(cells)}"
            raise Malformed(reason, path=args.input, line=lineno)
        row = dict(zip(header, cells))
        text = row[args.text_col]
        if not textcore.normalize(text):  # loading normalizes, and rejects empty text
            skipped_empty += 1
            continue
        doc_id = row[args.id_col] if args.id_col else f"r{i + 1}"
        if not doc_id:
            raise Malformed("empty id", path=args.input, line=lineno)
        if doc_id in seen_ids:
            raise Malformed(f"duplicate id {doc_id!r}", path=args.input, line=lineno)
        seen_ids.add(doc_id)
        sentiment = None
        if args.sentiment_col:
            raw = row[args.sentiment_col].strip()
            if raw:
                mapped = sentiment_map.get(raw, raw.lower())
                if mapped not in SENTIMENT_CLASSES:
                    raise Malformed(
                        f"unmapped sentiment value {raw!r}", path=args.input, line=lineno
                    )
                sentiment = SentimentLabel.from_name(mapped)
        noise = None
        if noise_cols:
            bits = []
            for col in noise_cols:
                value = (row[col] or "0").strip()
                if value not in ("0", "1"):
                    raise Malformed(
                        f"noise column {col!r} must be 0/1, got {value!r}",
                        path=args.input,
                        line=lineno,
                    )
                bits.append(value)
            bitstring = "".join(bits)
            if "1" in bitstring:
                noise = NoiseLabelSet.from_bits(bitstring)
            else:
                unlabeled_noise += 1
        documents.append(Document(id=doc_id, text=text, sentiment=sentiment, noise=noise))
    dataio.save_corpus(documents, args.output)
    return {
        "imported": len(documents),
        "skipped_empty": skipped_empty,
        "rows_without_noise": unlabeled_noise,
        "out": str(args.output),
    }


def _build_client(args):
    if args.client:
        return reduction.SubprocessClient(args.client)
    if args.fixture:
        return dataio.load_fixture(args.fixture)
    return None


def cmd_reduce(args) -> dict:
    import hashlib

    method = ReduceMethod(args.method)
    corpus = dataio.load_corpus(args.corpus, normalize_text=args.normalize)
    dictionary = None
    if args.dict:
        dictionary = dataio.load_dictionary(args.dict)
    client = _build_client(args)
    try:
        reduce_one = reduction.reducer(method, dictionary, client, mask_probability=args.p)
        reduced_docs = []
        for doc in corpus.documents:
            # Seeding from (seed, id) keeps each document's masks independent of row order.
            digest = hashlib.blake2b(f"{args.seed}\t{doc.id}".encode(), digest_size=8).digest()
            seed = int.from_bytes(digest, "big")
            text = reduce_one(doc.text, seed)
            if not textcore.normalize(text):
                # The output must load again, and loading normalizes; empty text is malformed.
                warnings.warn(f"{doc.id}: reduction produced empty text; keeping the original")
                text = doc.text
            reduced_docs.append(dataclasses.replace(doc, text=text))
    finally:
        if client is not None:
            client.close()
    dataio.save_corpus(reduced_docs, args.out)
    return {"method": method.value, "documents": len(reduced_docs), "out": str(args.out)}


def _documents_in_id_order(path, ids: list[str], normalize_text: bool, reference: str):
    """A corpus's documents in the order of `ids`, which must be exactly its id set.

    `reference` names the file that `ids` come from, for the error message.
    """
    by_id = {d.id: d for d in dataio.load_corpus(path, normalize_text=normalize_text).documents}
    unmatched = sorted(by_id.keys() ^ set(ids))
    if unmatched:
        raise Malformed(
            f"{len(unmatched)} ids not shared with {reference}, first {unmatched[0]!r}",
            path=path,
        )
    return [by_id[i] for i in ids]


def cmd_eval_reduction(args) -> dict:
    truth = dataio.load_corpus(args.truth, normalize_text=args.normalize)
    if not truth.documents:
        raise Malformed("no data rows", path=args.truth)
    truth_ids = [d.id for d in truth.documents]
    truth_texts = [d.text for d in truth.documents]

    def texts_in_truth_order(path):
        docs = _documents_in_id_order(path, truth_ids, args.normalize, "the truth file")
        return [d.text for d in docs]

    inputs = texts_in_truth_order(args.inputs) if args.inputs else None
    embeddings = dataio.load_embeddings(args.embeddings) if args.embeddings else None
    coverage_vocab = dataio.load_dictionary(args.dict) if args.dict else None
    tallies = dataio.load_human_tallies(args.human_tallies) if args.human_tallies else None
    # A report is named by its file stem, so two outputs must not share one.
    paths = {}
    for output_path in args.outputs:
        name = Path(output_path).stem
        if name in paths:
            raise Malformed(
                f"outputs {paths[name]} and {output_path} share the method name {name!r}"
            )
        paths[name] = output_path
    outputs = {name: texts_in_truth_order(path) for name, path in paths.items()}
    reports = metrics.evaluate_reduction(
        outputs, truth_texts, inputs=inputs, embeddings=embeddings,
        coverage_vocab=coverage_vocab, human_tallies=tallies,
    )
    return {"reports": reports}


def cmd_kappa(args) -> dict:
    matrix = dataio.load_rating_matrix(args.matrix)
    return {
        "kappa": agreement.fleiss_kappa(matrix),
        "items": matrix.n_items,
        "raters_per_item": matrix.raters_per_item,
    }


def cmd_trust(args) -> dict:
    annotator = dataio.load_corpus(args.annotator, normalize_text=args.normalize).documents
    gold = _documents_in_id_order(
        args.gold, [d.id for d in annotator], args.normalize, "the annotator file"
    )
    if not annotator:
        raise InsufficientData("no control samples", path=args.annotator)
    ann_labels, gold_labels = [], []
    for ann, ref in zip(annotator, gold):
        if ann.noise is None or ref.noise is None:
            path = args.annotator if ann.noise is None else args.gold
            raise Malformed(f"row {ann.id}: both files need noise labels", path=path)
        ann_labels.append(ann.noise)
        gold_labels.append(ref.noise)
    mode = "jaccard" if args.jaccard else "exact"
    score, passed = agreement.trustworthiness(
        ann_labels, gold_labels, threshold=args.threshold, jaccard=args.jaccard
    )
    return {"score": score, "pass": passed, "threshold": args.threshold, "mode": mode}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noisekit", description=__doc__)
    parser.add_argument(
        "--normalize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="canonicalize text while loading corpora (default on)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset statistics as JSON")
    p.add_argument("corpus")
    p.add_argument("--hist-tsv", help="write the length histogram as TSV")
    p.add_argument("--corr-tsv", help="write the label correlation matrix as TSV")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("dedupe", help="drop duplicate texts, keeping first occurrences")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_dedupe)

    p = sub.add_parser("import-corpus", help="convert an upstream CSV to the corpus TSV schema")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--text-col", required=True)
    p.add_argument("--id-col", help="column holding ids (default: generated row numbers)")
    p.add_argument("--sentiment-col")
    p.add_argument(
        "--sentiment-map",
        help='value mapping such as "0=neutral,1=positive,2=negative"',
    )
    p.add_argument(
        "--noise-cols",
        help="comma-separated names of the ten 0/1 noise columns, in canonical order",
    )
    p.add_argument("--delimiter", type=_csv_delimiter, default=",")
    p.set_defaults(func=cmd_import_corpus)

    def add_model_commands(task, train, predict, lr_default, train_help, predict_help):
        """train-<task> and predict-<task>; returns the train-<task> parser."""
        p = sub.add_parser(f"train-{task}", help=train_help)
        p.add_argument("train")
        p.add_argument("--analyzer", choices=[m.value for m in AnalyzerMode], default="char")
        p.add_argument("--nmin", type=int, default=1)
        p.add_argument("--nmax", type=int, default=4)
        p.add_argument("--min-df", type=int, default=1)
        p.add_argument("--c", type=float, default=1.0)
        p.add_argument("--epochs", type=int, default=20)
        p.add_argument("--lr", type=float, default=lr_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        p.set_defaults(func=train)
        q = sub.add_parser(f"predict-{task}", help=predict_help)
        q.add_argument("model")
        q.add_argument("corpus")
        q.add_argument("--out", help=f"also write a corpus TSV with the predicted {task} labels")
        q.set_defaults(func=predict)
        return p

    add_model_commands("noise", cmd_train_noise, cmd_predict_noise, 0.1,
                       "train the one-vs-rest noise identifier", "predict noise label sets")
    p = add_model_commands("sentiment", cmd_train_sentiment, cmd_predict_sentiment, 0.05,
                           "train the weighted softmax sentiment model", "predict sentiment labels")
    p.add_argument(
        "--auto-weights", action="store_true", help="derive class weights from training counts"
    )

    p = sub.add_parser("reduce", help="apply one noise-reduction method")
    p.add_argument("corpus")
    p.add_argument("--method", required=True, choices=[m.value for m in ReduceMethod])
    p.add_argument("--dict", help="dictionary file (word<TAB>frequency)")
    translator = p.add_mutually_exclusive_group()
    translator.add_argument(
        "--client", type=_command_line, help="subprocess translator command line"
    )
    translator.add_argument("--fixture", help="JSONL fixture file answering client requests")
    p.add_argument("--p", type=float, default=0.2, help="random masking probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("eval-reduction", help="score reduced corpora against ground truth")
    p.add_argument("outputs", nargs="+")
    p.add_argument("--truth", required=True)
    p.add_argument("--inputs", help="original noisy corpus (enables the composite score)")
    p.add_argument("--embeddings", help="embedding table for semantic similarity")
    p.add_argument("--dict", help="vocabulary for word coverage (defaults to embeddings)")
    p.add_argument("--human-tallies", help='JSON file {"method": [accurate, total], ...}')
    p.set_defaults(func=cmd_eval_reduction)

    p = sub.add_parser("agreement", help="annotation-quality statistics")
    agreement_sub = p.add_subparsers(required=True)
    pk = agreement_sub.add_parser("kappa", help="Fleiss' kappa of a rating matrix")
    pk.add_argument("matrix")
    pk.set_defaults(func=cmd_kappa)
    pt = agreement_sub.add_parser("trust", help="trustworthiness against control samples")
    pt.add_argument("annotator")
    pt.add_argument("gold")
    pt.add_argument("--threshold", type=_percent, default=90.0)
    pt.add_argument("--jaccard", action="store_true", help="per-label overlap instead of exact match")
    pt.set_defaults(func=cmd_trust)

    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"WARNING: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Only how a shown warning reads changes: a caller that records warnings still gets them.
    format_warning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        payload = args.func(args)
    except NoisekitError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        warnings.formatwarning = format_warning
    try:
        print(json.dumps(payload, ensure_ascii=False, sort_keys=True))
        sys.stdout.flush()
    except OSError as exc:
        if exc.errno == errno.EPIPE:
            # As the Python docs advise: the flush at exit then cannot raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"ERROR {IoFailure.__name__}: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return IoFailure.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
