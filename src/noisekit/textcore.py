"""Unicode normalization, tokenization and n-gram extraction.

Everything downstream (featurization, spell correction, metrics, statistics)
works on the output of :func:`normalize` and :func:`tokenize`, so the rules
here are deliberately small and fixed:

* normalization = NFC + punctuation canonicalization + whitespace collapse,
* tokens = whitespace-separated runs, with punctuation/symbol code points
  split off as single-character tokens,
* n-grams = contiguous runs of Unicode scalar values (not grapheme clusters).

Text files are read, JSON decoded and output files written here; this module imports no numpy.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import json
import os
import re
import stat
import unicodedata
from dataclasses import dataclass

from .errors import BadEncoding, IoFailure, Malformed

# Joiner used to build word n-grams. It is stripped from every input during
# normalization, so it can never occur inside a token.
NGRAM_JOIN = "␟"

# Fixed order of the ten noise categories; bit 0 is the leftmost bit of the
# on-disk bitstring column.
NOISE_CLASSES = (
    "local_word",
    "word_misuse",
    "context_word_missing",
    "wrong_serial",
    "mixed_language",
    "punctuation_error",
    "spacing_error",
    "spelling_error",
    "coined_word",
    "others",
)


class SentimentLabel(enum.IntEnum):
    """Three-way sentiment. The numeric order is the tie-break order."""

    NEUTRAL = 0
    POSITIVE = 1
    NEGATIVE = 2

    @classmethod
    def from_name(cls, name: str) -> "SentimentLabel":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise Malformed(f"unknown sentiment label {name!r}") from None

    @property
    def label(self) -> str:
        return self.name.lower()

    @property
    def mask(self) -> int:
        """This label as a one-bit label bitmask, as `NoiseLabelSet.mask` is for noise."""
        return 1 << self


# Sentiment class names in SentimentLabel order, the order of the model's rows.
SENTIMENT_CLASSES = tuple(label.label for label in SentimentLabel)


@dataclass(frozen=True)
class NoiseLabelSet:
    """Subset of the ten noise categories, stored as a bitmask.

    Bit i corresponds to NOISE_CLASSES[i].
    """

    mask: int = 0

    def __post_init__(self):
        if not 0 <= self.mask < (1 << len(NOISE_CLASSES)):
            raise Malformed(f"noise mask out of range: {self.mask}")

    @classmethod
    def from_names(cls, names) -> "NoiseLabelSet":
        mask = 0
        for name in names:
            try:
                mask |= 1 << NOISE_CLASSES.index(name)
            except ValueError:
                raise Malformed(f"unknown noise class {name!r}") from None
        return cls(mask)

    @classmethod
    def from_bits(cls, bits: str) -> "NoiseLabelSet":
        if len(bits) != len(NOISE_CLASSES) or set(bits) - {"0", "1"}:
            raise Malformed(f"noise bitstring must be 10 chars of 0/1, got {bits!r}")
        mask = 0
        for i, b in enumerate(bits):
            if b == "1":
                mask |= 1 << i
        return cls(mask)

    def to_bits(self) -> str:
        return "".join("1" if self.mask >> i & 1 else "0" for i in range(len(NOISE_CLASSES)))

    def names(self) -> tuple[str, ...]:
        return tuple(n for i, n in enumerate(NOISE_CLASSES) if self.mask >> i & 1)

    def has(self, index: int) -> bool:
        return bool(self.mask >> index & 1)

    def __bool__(self) -> bool:
        return self.mask != 0


@dataclass
class Document:
    """One corpus record: text plus optional sentiment and noise labels."""

    id: str
    text: str
    sentiment: SentimentLabel | None = None
    noise: NoiseLabelSet | None = None


def read_text(path) -> str:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadEncoding(f"not valid UTF-8 at byte {exc.start}", path=path) from exc


def read_lines(path):
    """The lines of a UTF-8 file without their "\n", read and decoded one at a time.

    Fails as `read_text` does: `IoFailure` when the file cannot be read, and
    `BadEncoding` naming the file offset of the first invalid byte, which a
    line's own offset gives, since no UTF-8 sequence holds the byte "\n".
    """
    try:
        with open(path, "rb") as fh:
            offset = 0
            for raw in fh:
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    where = offset + exc.start
                    raise BadEncoding(f"not valid UTF-8 at byte {where}", path=path) from exc
                offset += len(raw)
                yield line.removesuffix("\n")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def decode_json(text: str, error, path=None, line=None):
    """`json.loads(text)`, with every failure raised as `error` naming `path` and `line`.

    In a file decoded whole, the error names the decoder's line when no `line` is
    given. Besides syntax errors, this covers nesting deeper than the recursion
    limit (`RecursionError`) and an integer longer than
    `sys.get_int_max_str_digits()` (`ValueError`).
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        line = line or (exc.lineno if path is not None else None)
        raise error(f"invalid JSON: {exc.msg}", path=path, line=line) from None
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid JSON: {exc}", path=path, line=line) from None


_SURROGATE = re.compile("[\ud800-\udfff]")


def utf8_storable(text: str) -> bool:
    """Whether UTF-8 can encode `text`: not if it holds a surrogate, as a JSON escape (`\\ud800`) can."""
    return _SURROGATE.search(text) is None


def write_text(path, text: str) -> None:
    """Write `text` as UTF-8 through `write_bytes`, line endings as given."""
    write_bytes(path, (text.encode("utf-8"),))


def write_bytes(path, chunks) -> None:
    """Write bytes-like chunks (bytes, numpy arrays) in order; OS errors become IoFailure.

    A regular file is replaced by a temporary file written beside it, so a failed write
    leaves the old file, or none, and no temporary file; a device or FIFO is written in place.
    """
    target = os.path.realpath(path)
    old = os.stat(target) if os.path.exists(target) else None
    tmp = None
    if old is None or stat.S_ISREG(old.st_mode):
        head, name = os.path.split(target)
        tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp or target, "wb") as fh:
            fh.writelines(chunks)
        if tmp:
            if old is not None:  # keep the mode, as writing in place would
                os.chmod(tmp, stat.S_IMODE(old.st_mode))
            os.replace(tmp, target)
    except BaseException as exc:
        if tmp:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _is_separator_char(ch: str) -> bool:
    """Punctuation or symbol code points become their own tokens."""
    return unicodedata.category(ch)[0] in ("P", "S")


def is_punct_token(token: str) -> bool:
    """True for the single-character punctuation/symbol tokens the tokenizer emits."""
    return len(token) == 1 and _is_separator_char(token)


def is_digit_token(token: str) -> bool:
    """True for a non-empty token of decimal digits (general category Nd) only."""
    return token.isdecimal()


def char_script(ch: str) -> str | None:
    """Script of an alphabetic code point, from its Unicode name ('BENGALI', 'LATIN', ...)."""
    if unicodedata.category(ch)[0] not in ("L", "M"):
        return None
    try:
        return unicodedata.name(ch).split()[0]
    except ValueError:
        return None


@functools.cache
def default_punctuation_table() -> dict[int, str]:
    """The `str.translate` map `normalize` applies, built once: read it, never change it.

    Every target maps to itself, so normalizing twice changes nothing.
    """
    return str.maketrans({
        # Curly/typographic quotes -> ASCII quotes
        "\u2018": "\u0027", "\u2019": "\u0027", "\u201a": "\u0027", "\u201b": "\u0027",
        "\u2032": "\u0027", "\u2039": "\u0027", "\u203a": "\u0027",
        "\u201c": "\u0022", "\u201d": "\u0022", "\u201e": "\u0022", "\u201f": "\u0022",
        "\u2033": "\u0022", "\u00ab": "\u0022", "\u00bb": "\u0022",
        # Dashes and minus variants -> hyphen-minus
        "\u2010": "\u002d", "\u2011": "\u002d", "\u2012": "\u002d", "\u2013": "\u002d",
        "\u2014": "\u002d", "\u2015": "\u002d", "\u2212": "\u002d",
        # Horizontal ellipsis -> full stop
        "\u2026": "\u002e",
        # Fullwidth forms -> ASCII
        "\uff01": "\u0021", "\uff08": "\u0028", "\uff09": "\u0029", "\uff0c": "\u002c",
        "\uff0e": "\u002e", "\uff1a": "\u003a", "\uff1b": "\u003b", "\uff1f": "\u003f",
        # Double danda -> danda
        "\u0965": "\u0964",
    })


def normalize(text: str) -> str:
    """Canonicalize a text: NFC, punctuation mapping, whitespace collapse.

    Idempotent for every input; empty input yields empty output.
    """
    s = unicodedata.normalize("NFC", text)
    s = s.replace(NGRAM_JOIN, "")
    s = s.translate(default_punctuation_table())
    s = " ".join(s.split())
    return unicodedata.normalize("NFC", s)


class _Pad(dict):
    """`tokenize`'s `str.translate` table: P*/S* code points padded with spaces, others kept."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        self[code] = padded = f" {ch} " if _is_separator_char(ch) else ch  # cached
        return padded


_PAD = _Pad()


def tokenize(text: str) -> list[str]:
    """Split on whitespace; punctuation/symbol code points become their own tokens.

    Letters, digits and combining marks stay attached to their word. No P* or S*
    code point is whitespace, so padding each with spaces before `str.split` does this.
    """
    return text.translate(_PAD).split()


def token_spans(text: str, tokens: list[str]) -> list[tuple[int, int]]:
    """The (start, end) span in `text` of each token `tokenize(text)` returned.

    A token holds no whitespace and only whitespace lies between two tokens, so
    each token is the first match of itself after the end of the one before.
    """
    spans = []
    end = 0
    for token in tokens:
        start = text.find(token, end)
        end = start + len(token)
        spans.append((start, end))
    return spans


def char_ngrams(text: str, n_min: int, n_max: int) -> list[str]:
    """All contiguous n-character substrings for n in [n_min, n_max], duplicates kept."""
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min}, {n_max}")
    grams = []
    for n in range(n_min, n_max + 1):
        for i in range(len(text) - n + 1):
            grams.append(text[i : i + n])
    return grams


def word_ngrams(tokens: list[str], n_min: int, n_max: int) -> list[str]:
    """Contiguous token windows joined by the reserved separator character."""
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min}, {n_max}")
    grams = []
    for n in range(n_min, n_max + 1):
        for i in range(len(tokens) - n + 1):
            grams.append(NGRAM_JOIN.join(tokens[i : i + n]))
    return grams
