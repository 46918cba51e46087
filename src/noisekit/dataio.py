"""Parsing and serialization of the on-disk formats.

Corpus files are TSV (`id  text  sentiment  noise`) with a tiny escape rule
for characters that would break the framing: backslash, tab, and the line
breaks that can occur in raw-mode texts. Every loader either returns a
structure satisfying its invariants or raises with a file location.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import warnings
from array import array
from dataclasses import dataclass, field

from . import classify, features, metrics
from ._lazy import np
from .agreement import INT64_MAX, RatingMatrix
from .errors import BadEncoding, DataError, DimensionMismatch, IoFailure, Malformed
from .errors import MalformedMatrix
from .reduce import Dictionary, FixtureClient
from .textcore import SENTIMENT_CLASSES, Document, NoiseLabelSet, SentimentLabel, normalize
from .textcore import decode_json, read_lines, read_text, utf8_storable, write_bytes, write_text

CORPUS_HEADER = "id\ttext\tsentiment\tnoise"
BUNDLE_FORMAT = "noisekit-bundle-v5"

_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPE_SEQUENCE = re.compile(r"\\(.?)", re.DOTALL)


@dataclass
class CorpusFile:
    documents: list[Document] = field(default_factory=list)


def escape_field(text: str) -> str:
    return text.translate(_ESCAPES)


def unescape_field(text: str, path=None, line=None, column=None) -> str:
    def unescape(match):
        if match.group(1) not in _UNESCAPES:  # unknown, or a backslash ending the field
            reason = f"bad escape sequence at offset {match.start()}"
            raise Malformed(reason, path=path, line=line, column=column)
        return _UNESCAPES[match.group(1)]

    return _ESCAPE_SEQUENCE.sub(unescape, text)


def load_corpus(path, normalize_text: bool = True) -> CorpusFile:
    """Parse a corpus TSV; rejects unknown columns and reports error locations."""
    content = read_text(path)
    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise Malformed("missing header line", path=path, line=1)
    if lines[0] != CORPUS_HEADER:
        raise Malformed(
            f"expected header {CORPUS_HEADER!r}, got {lines[0]!r}", path=path, line=1
        )
    documents = []
    seen_ids = set()
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != 4:
            raise Malformed(
                f"expected 4 columns, got {len(fields)}",
                path=path,
                line=lineno,
                column=min(len(fields), 5),
            )
        doc_id = unescape_field(fields[0], path=path, line=lineno, column=1)
        if not doc_id:
            raise Malformed("empty id", path=path, line=lineno, column=1)
        if doc_id in seen_ids:
            raise Malformed(f"duplicate id {doc_id!r}", path=path, line=lineno, column=1)
        seen_ids.add(doc_id)
        text = unescape_field(fields[1], path=path, line=lineno, column=2)
        if normalize_text:
            text = normalize(text)
        if not text.strip():
            raise Malformed("empty text", path=path, line=lineno, column=2)
        sentiment = None
        if fields[2] != "-":
            if fields[2] not in SENTIMENT_CLASSES:
                raise Malformed(
                    f"sentiment must be neutral/positive/negative/-, got {fields[2]!r}",
                    path=path,
                    line=lineno,
                    column=3,
                )
            sentiment = SentimentLabel.from_name(fields[2])
        noise = None
        if fields[3] != "-":
            try:
                noise = NoiseLabelSet.from_bits(fields[3])
            except Malformed as exc:
                raise Malformed(exc.reason, path=path, line=lineno, column=4) from None
            if not noise:
                raise Malformed(
                    "a labeled instance needs at least one noise flag",
                    path=path,
                    line=lineno,
                    column=4,
                )
        documents.append(Document(id=doc_id, text=text, sentiment=sentiment, noise=noise))
    return CorpusFile(documents=documents)


def save_corpus(documents: list[Document], path) -> None:
    """Write rows in order, LF endings; output is bit-deterministic."""
    lines = [CORPUS_HEADER]
    for doc in documents:
        sentiment = doc.sentiment.label if doc.sentiment is not None else "-"
        noise = doc.noise.to_bits() if doc.noise is not None else "-"
        lines.append(
            "\t".join((escape_field(doc.id), escape_field(doc.text), sentiment, noise))
        )
    write_text(path, "\n".join(lines) + "\n")


def load_dictionary(path) -> Dictionary:
    """word<TAB>frequency per line; frequency defaults to 1 and accumulates."""
    content = read_text(path)
    freq: dict[str, int] = {}
    for lineno, raw in enumerate(content.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) > 2:
            raise Malformed("expected word<TAB>frequency", path=path, line=lineno)
        word = parts[0].strip()
        if not word:
            raise Malformed("empty word", path=path, line=lineno, column=1)
        count = 1
        if len(parts) == 2:
            try:
                count = int(parts[1])
            except ValueError:
                raise Malformed(
                    f"frequency must be an integer, got {parts[1]!r}",
                    path=path,
                    line=lineno,
                    column=2,
                ) from None
            if count < 1:
                raise Malformed("frequency must be >= 1", path=path, line=lineno, column=2)
        freq[word] = freq.get(word, 0) + count
    if not freq:
        raise Malformed("dictionary file has no entries", path=path)
    return Dictionary(freq)


def load_embeddings(path) -> metrics.EmbeddingTable:
    """The V x DIM float64 components in one flat array, rows in file order, with DIM and
    the {word: row} index.

    The first line is VOCAB_SIZE DIM, then one word + DIM finite components per line.
    Lines are read one at a time. An invalid UTF-8 byte anywhere in the file is reported
    ahead of a bad line before it, as when the file was decoded whole.
    """
    lines = read_lines(path)
    try:
        return _parse_embeddings(lines, path)
    except DataError:
        for _ in lines:  # raises BadEncoding at the first invalid byte after the bad line
            pass
        raise


def _parse_embeddings(lines, path) -> metrics.EmbeddingTable:
    header_line = next(lines, None)
    if header_line is None:
        raise Malformed("missing header line", path=path, line=1)
    header = header_line.split()
    if len(header) != 2:
        raise Malformed("header must be VOCAB_SIZE DIM", path=path, line=1)
    try:
        vocab_size, dim = int(header[0]), int(header[1])
    except ValueError:
        raise Malformed("header must be two integers", path=path, line=1) from None
    if vocab_size < 0 or dim < 1:
        raise Malformed("need VOCAB_SIZE >= 0 and DIM >= 1", path=path, line=1)
    index: dict[str, int] = {}
    values = array("d")
    for lineno, line in enumerate(lines, start=2):
        if not line:
            raise Malformed("blank line inside embedding table", path=path, line=lineno)
        parts = line.split(" ")
        if len(parts) != dim + 1:
            raise DimensionMismatch(
                f"expected {dim} components, got {len(parts) - 1}", path=path, line=lineno
            )
        word = parts[0]
        if word in index:
            raise Malformed(f"duplicate word {word!r}", path=path, line=lineno, column=1)
        try:
            row = [float(v) for v in parts[1:]]
        except ValueError:
            raise Malformed("non-numeric vector component", path=path, line=lineno) from None
        if not all(map(math.isfinite, row)):
            raise Malformed(f"non-finite component for {word!r}", path=path, line=lineno)
        index[word] = len(index)
        values.extend(row)
    if len(index) != vocab_size:
        raise Malformed(
            f"header declares {vocab_size} words but file has {len(index)}", path=path
        )
    return metrics.EmbeddingTable(values, dim, index)


_FIXTURE_FIELDS = ("task", "src", "tgt", "text_in", "text_out")


def load_fixture(path) -> FixtureClient:
    """JSON-lines fixture; on duplicate keys the last entry wins with a warning."""
    content = read_text(path)
    entries: dict[tuple[str, str, str, str], str] = {}
    for lineno, line in enumerate(content.split("\n"), start=1):
        if not line.strip():
            continue
        record = decode_json(line, Malformed, path, lineno)
        if not isinstance(record, dict):
            raise Malformed("fixture entry must be a JSON object", path=path, line=lineno)
        missing = set(_FIXTURE_FIELDS) - set(record)
        if missing:
            raise Malformed(
                f"fixture entry missing {sorted(missing)}", path=path, line=lineno
            )
        for name in _FIXTURE_FIELDS:
            if not isinstance(record[name], str):
                raise Malformed("fixture fields must be strings", path=path, line=lineno)
            if not utf8_storable(record[name]):
                raise Malformed(f"fixture field {name!r} holds a lone surrogate", path=path, line=lineno)
        key = (record["task"], record["src"], record["tgt"], record["text_in"])
        if key in entries:
            warnings.warn(f"{path}, line {lineno}: duplicate fixture key {key!r}; last entry wins")
        entries[key] = record["text_out"]
    return FixtureClient(entries)


def load_rating_matrix(path) -> RatingMatrix:
    """TSV with a header row of category names and one count row per item."""
    content = read_text(path)
    lines = [(n, line) for n, line in enumerate(content.split("\n"), start=1) if line.strip()]
    if len(lines) < 2:
        raise Malformed("need a header row and at least one item row", path=path, line=1)
    n_categories = len(lines[0][1].split("\t"))
    rows = []
    for lineno, line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != n_categories:
            raise Malformed(
                f"expected {n_categories} counts, got {len(parts)}", path=path, line=lineno
            )
        try:
            counts = [int(v) for v in parts]
        except ValueError:
            raise Malformed("counts must be integers", path=path, line=lineno) from None
        if any(abs(v) > INT64_MAX for v in counts):
            raise MalformedMatrix("counts must fit in 64-bit integers", path=path, line=lineno)
        rows.append(counts)
    try:
        return RatingMatrix(np.asarray(rows, dtype=np.int64))
    except MalformedMatrix as exc:
        line = lines[exc.item + 1][0] if exc.item is not None else None
        raise MalformedMatrix(exc.reason, path=path, line=line) from None


def load_human_tallies(path) -> dict[str, tuple[int, int]]:
    """JSON object mapping each method name to [accurate, total] integer counts."""
    raw = decode_json(read_text(path), Malformed, path)
    if not isinstance(raw, dict):
        raise Malformed('expected a JSON object {"method": [accurate, total], ...}', path=path)
    tallies = {}
    for name, counts in raw.items():
        if not (
            isinstance(counts, list)
            and len(counts) == 2
            and all(type(v) is int for v in counts)
        ):
            raise Malformed(
                f"{name!r}: expected [accurate, total] integers, got {counts!r}", path=path
            )
        try:
            metrics.human_eval_score(*counts)  # the one range rule for a tally
        except Malformed as exc:
            raise Malformed(f"{name!r}: {exc.reason}", path=path) from None
        tallies[name] = tuple(counts)
    return tallies


def _distinct_rows(weights):
    """The (U, K) `<f8` distinct rows of the (D, K) weights, and the (D,) `<u4` row of each term.

    The rows are in the order of their raw bytes and compared by them, so -0.0 and 0.0 stay
    apart. This is np.unique's stable sort without its copies of the table: the rows argsorted
    as byte records, a flag on each sorted row whose <u8 words differ from the row before, and
    each term's rank among the distinct rows, scattered back through the order.
    """
    by_term = np.ascontiguousarray(weights, dtype="<f8")
    keys = by_term.view(np.dtype((np.void, 8 * by_term.shape[1]))).reshape(-1)
    order = keys.argsort(kind="stable")
    sorted_words = by_term.view("<u8")[order]
    first = np.empty(len(order), dtype=bool)
    first[:1] = True
    (sorted_words[1:] != sorted_words[:-1]).any(axis=1, out=first[1:])
    del sorted_words  # one table-sized copy at a time
    ranks = np.cumsum(first, dtype="<u4")
    ranks -= 1
    index = np.empty_like(ranks)
    index[order] = ranks
    return by_term[order[first]], index


def save_model_bundle(path, tfidf_model, linear_model) -> None:
    """Write featurizer + classifier as a v5 bundle: one JSON header line, then the two arrays."""
    # The distinct rows are found first, so the peak of their sort and gathers passes before
    # the term lists exist. Keys are written sorted, so this order changes no byte.
    rows, index = _distinct_rows(linear_model.weights)
    linear = {**classify.to_json(linear_model), "distinct_rows": len(rows)}
    header = {"version": BUNDLE_FORMAT, "linear": linear, "tfidf": features.to_json(tfidf_model)}
    # Streamed chunk by chunk: a one-shot `encode` holds a chunk list for the whole header.
    encoder = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    text = itertools.chain(encoder.iterencode(header), ("\n",))
    write_bytes(path, itertools.chain(map(str.encode, text), (rows, index)))


def load_model_bundle(path, kind: classify.ModelKind):
    """Read a v5 bundle holding a classifier of `kind`; featurizer and classifier must agree."""
    try:
        with open(path, "rb") as fh:
            tfidf_model, linear_model = _read_bundle(fh, path)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if linear_model.kind is not kind:
        raise Malformed(f"expected model kind {kind.value}, got {linear_model.kind.value}", path=path)
    return tfidf_model, linear_model


def _read_bundle(fh, path):
    """The header line, then exactly the U x K weights and D indices it calls for, read in place."""
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise Malformed("expected a JSON header line ending in a newline", path=path, line=1)
    try:
        header = decode_json(line.decode("utf-8"), Malformed, path, line=1)
    except UnicodeDecodeError as exc:
        raise BadEncoding(f"header is not UTF-8 at byte {exc.start}", path=path, line=1) from None
    version = header.get("version") if isinstance(header, dict) else None
    if version != BUNDLE_FORMAT:
        raise Malformed(f"unsupported bundle version {version!r}", path=path)
    try:
        tfidf_model = features.from_json(header["tfidf"])
        linear = header["linear"]
        k = len(classify.ModelKind(linear["kind"]).class_names)
        rows, dim = linear["distinct_rows"], tfidf_model.dim
        if not (type(rows) is int and rows >= 0):
            raise Malformed(f"distinct_rows must be a non-negative integer, got {rows!r}")
        expected = rows * k * 8 + dim * 4
        got = os.fstat(fh.fileno()).st_size - fh.tell()
        if got == expected:  # so the arrays never outgrow the file
            columns, index = np.empty((rows, k), dtype="<f8"), np.empty(dim, dtype="<u4")
            got = fh.readinto(columns) + fh.readinto(index)  # less if the file shrank
        if got != expected:
            raise DimensionMismatch(
                f"featurizer has {dim} terms, classifier {rows} distinct rows of {k} weights, "
                f"so {rows * k * 8} weight bytes and {dim * 4} column index bytes must follow "
                f"the header, not {got}"
            )
        if index.size and int(index.max()) >= rows:
            raise Malformed(f"column index {int(index.max())} is out of range for {rows} columns")
        if not np.isfinite(columns).all():
            raise Malformed("weights must be finite")
        linear_model = classify.from_json(linear, columns[index])
    except DataError as exc:
        raise type(exc)(exc.reason, path=path, line=exc.line, column=exc.column) from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise Malformed(f"bad bundle entry ({type(exc).__name__}: {exc})", path=path) from None
    return tfidf_model, linear_model
