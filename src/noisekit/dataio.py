"""Parsing and serialization of the on-disk formats.

Corpus files are TSV (`id  text  sentiment  noise`) with a tiny escape rule
for characters that would break the framing: backslash, tab, and the line
breaks that can occur in raw-mode texts. Every loader either returns a
structure satisfying its invariants or raises with a file location.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import warnings
from dataclasses import dataclass, field

from . import classify, features
from ._lazy import np
from .agreement import INT64_MAX, RatingMatrix
from .errors import BadEncoding, DataError, DimensionMismatch, InvalidCounts, IoFailure, Malformed
from .errors import MalformedMatrix
from .reduce import Dictionary, FixtureClient
from .textcore import SENTIMENT_CLASSES, Document, NoiseLabelSet, SentimentLabel, normalize
from .textcore import read_text, write_bytes, write_text

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


def load_embeddings(path) -> dict[str, np.ndarray]:
    """{word: vector}; first line VOCAB_SIZE DIM, then one word + DIM finite components per line."""
    content = read_text(path)
    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise Malformed("missing header line", path=path, line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise Malformed("header must be VOCAB_SIZE DIM", path=path, line=1)
    try:
        vocab_size, dim = int(header[0]), int(header[1])
    except ValueError:
        raise Malformed("header must be two integers", path=path, line=1) from None
    if vocab_size < 0 or dim < 1:
        raise Malformed("need VOCAB_SIZE >= 0 and DIM >= 1", path=path, line=1)
    vectors: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            raise Malformed("blank line inside embedding table", path=path, line=lineno)
        parts = line.split(" ")
        if len(parts) != dim + 1:
            raise DimensionMismatch(
                f"expected {dim} components, got {len(parts) - 1}", path=path, line=lineno
            )
        word = parts[0]
        if word in vectors:
            raise Malformed(f"duplicate word {word!r}", path=path, line=lineno, column=1)
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError:
            raise Malformed("non-numeric vector component", path=path, line=lineno) from None
        if not np.isfinite(vec).all():
            raise Malformed(f"non-finite component for {word!r}", path=path, line=lineno)
        vectors[word] = vec
    if len(vectors) != vocab_size:
        raise Malformed(
            f"header declares {vocab_size} words but file has {len(vectors)}", path=path
        )
    return vectors


def _parse_json(text: str, path, line=None):
    """`json.loads(text)`, with every failure raised as `Malformed` naming `path`.

    The error names `line` if given, else the decoder's line when it has one.
    Besides syntax errors, this covers nesting deeper than the recursion limit
    (`RecursionError`) and an integer longer than `sys.get_int_max_str_digits()`
    (`ValueError`).
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise Malformed(f"invalid JSON: {exc.msg}", path=path, line=line or exc.lineno) from None
    except (ValueError, RecursionError) as exc:
        raise Malformed(f"invalid JSON: {exc}", path=path, line=line) from None


_FIXTURE_FIELDS = ("task", "src", "tgt", "text_in", "text_out")


def load_fixture(path) -> FixtureClient:
    """JSON-lines fixture; on duplicate keys the last entry wins with a warning."""
    content = read_text(path)
    entries: dict[tuple[str, str, str, str], str] = {}
    for lineno, line in enumerate(content.split("\n"), start=1):
        if not line.strip():
            continue
        record = _parse_json(line, path, lineno)
        if not isinstance(record, dict):
            raise Malformed("fixture entry must be a JSON object", path=path, line=lineno)
        missing = set(_FIXTURE_FIELDS) - set(record)
        if missing:
            raise Malformed(
                f"fixture entry missing {sorted(missing)}", path=path, line=lineno
            )
        if not all(isinstance(record[f], str) for f in _FIXTURE_FIELDS):
            raise Malformed("fixture fields must be strings", path=path, line=lineno)
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
    raw = _parse_json(read_text(path), path)
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
        accurate, total = counts
        if total <= 0 or not 0 <= accurate <= total:
            raise InvalidCounts(
                f"{name!r}: need 0 <= accurate <= total with total > 0, got {accurate}/{total}",
                path=path,
            )
        tallies[name] = (accurate, total)
    return tallies


def save_model_bundle(path, tfidf_model, linear_model) -> None:
    """Write featurizer + classifier as a v5 bundle: one JSON header line, then the two arrays."""
    # The classifier section is built first, so the peak of its sort and gathers passes before
    # the term lists exist. Keys are written sorted, so this order changes no byte.
    linear = classify.to_json(linear_model)
    arrays = linear.pop("columns"), linear.pop("column_index")
    linear["distinct_rows"] = len(arrays[0])
    header = {"version": BUNDLE_FORMAT, "linear": linear, "tfidf": features.to_json(tfidf_model)}
    # Streamed chunk by chunk: a one-shot `encode` holds a chunk list for the whole header.
    encoder = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    text = itertools.chain(encoder.iterencode(header), ("\n",))
    write_bytes(path, itertools.chain(map(str.encode, text), arrays))


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
        header = _parse_json(line.decode("utf-8"), path, line=1)
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
        linear_model = classify.from_json({**linear, "columns": columns, "column_index": index})
    except DataError as exc:
        raise type(exc)(exc.reason, path=path, line=exc.line, column=exc.column) from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise Malformed(f"bad bundle entry ({type(exc).__name__}: {exc})", path=path) from None
    return tfidf_model, linear_model
