"""Noise-reduction methods: spell correction, paraphrase pre-pipeline,
OOV/random masking with fill-in, and back-translation.

Spell correction is phonetic-first: words share a candidate pool when their
consonant-class codes collide, and the replacement is the candidate with the
smallest edit distance (ties: higher corpus frequency, then lexicographic).
Neural translate/paraphrase models run out of process behind a line-oriented
JSON protocol; a fixture client answers from a file so tests stay hermetic.
"""

from __future__ import annotations

import functools
import json
import math
import random
import subprocess
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum

from . import textcore
from .errors import (
    ClientUnavailable,
    FixtureMiss,
    InsufficientData,
    InvalidProbability,
    MissingResource,
    PredictorFailure,
)

MASK_TOKEN = "<MASK>"
# Every client request's language pair: Bangla texts, English the back-translation pivot.
SOURCE_LANG = "bn"
PIVOT_LANG = "en"


def _phonetic_class(digit: str) -> str:
    if len(digit) != 1 or not digit.isdigit():
        raise ValueError(f"class must be one digit, got {digit!r}")
    return digit


def read_phonetic_table(path) -> dict[str, str]:
    """{consonant: articulation-class digit} from a CODEPOINT<TAB>digit file of one script."""
    return textcore.read_codepoint_table(path, _phonetic_class)


@functools.cache
def bengali_phonetic_table() -> dict[str, str]:
    """The packaged table, loaded once and shared by every caller: read it, never change it."""
    with textcore.packaged_data("phonetic_bn.tsv") as path:
        return read_phonetic_table(path)


def phonetic_encode(word: str, table: dict[str, str]) -> str:
    """First letter + three consonant-class digits (vowels and marks dropped)."""
    if not word:
        raise InsufficientData("cannot encode an empty word")
    digits = []
    for ch in word[1:].lower():
        digit = table.get(ch)
        if digit is None:
            continue
        if not digits or digits[-1] != digit:
            digits.append(digit)
    first = word[0].upper()
    if len(first) != 1:  # e.g. sharp s, whose uppercase is two letters
        first = word[0]
    return first + "".join(digits[:3]).ljust(3, "0")


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance over Unicode scalar values."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return len(b)
    previous = list(range(len(a) + 1))
    for i, cb in enumerate(b, start=1):
        current = [i]
        for j, ca in enumerate(a, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[len(a)]


class Dictionary:
    """Word list with frequencies and an eagerly built phonetic index."""

    def __init__(self, freq: dict[str, int], table: dict[str, str] | None = None):
        self.table = table if table is not None else bengali_phonetic_table()
        self.freq = {w: int(c) for w, c in freq.items()}
        self.phonetic_index: dict[str, list[str]] = defaultdict(list)
        for word in sorted(self.freq):
            self.phonetic_index[phonetic_encode(word, self.table)].append(word)
        self.phonetic_index = dict(self.phonetic_index)
        self.native_script = self._majority_script()

    def _majority_script(self) -> str | None:
        counts = Counter()
        for ch, n in Counter("".join(self.freq)).items():
            script = textcore.char_script(ch)
            if script is not None:
                counts[script] += n
        if not counts:
            return None
        # Deterministic tie-break: highest count, then name.
        return min(counts, key=lambda s: (-counts[s], s))

    def __contains__(self, word: str) -> bool:
        return word in self.freq


def default_max_dist(word: str) -> int:
    """Edit-distance budget: 2 for short words, len/3 rounded up otherwise."""
    return 2 if len(word) <= 4 else math.ceil(len(word) / 3)


def _token_is_correctable(token: str, dictionary: Dictionary) -> bool:
    if textcore.is_punct_token(token) or textcore.is_digit_token(token):
        return False
    if token in dictionary:
        return False
    if dictionary.native_script is not None:
        scripts = [textcore.char_script(ch) for ch in token]
        scripts = [s for s in scripts if s is not None]
        if scripts and dictionary.native_script not in scripts:
            return False
    return True


@dataclass
class CorrectionResult:
    corrected: str
    edits: list[tuple[int, str, str, int]] = field(default_factory=list)


def spell_correct(text: str, dictionary: Dictionary) -> CorrectionResult:
    """Replace out-of-dictionary words by their phonetically closest dictionary match.

    A token is left alone when it is punctuation, digits, non-native script,
    already in the dictionary, or when no same-code candidate lies within the
    edit-distance budget `default_max_dist`.
    """
    if not dictionary.freq:
        raise MissingResource("spell correction needs a non-empty dictionary")
    seq = textcore.tokenize(text)
    edits = []
    for i, token in enumerate(seq.tokens):
        if not _token_is_correctable(token, dictionary):
            continue
        candidates = dictionary.phonetic_index.get(phonetic_encode(token, dictionary.table))
        if not candidates:
            continue
        limit = default_max_dist(token)
        best = None
        for cand in candidates:
            dist = levenshtein(token, cand)
            if dist > limit:
                continue
            key = (dist, -dictionary.freq.get(cand, 0), cand)
            if best is None or key < best[0]:
                best = (key, cand, dist)
        if best is None:
            continue
        _, replacement, dist = best
        edits.append((i, token, replacement, dist))
    corrected = _splice(text, seq, [(i, replacement) for i, _, replacement, _ in edits])
    return CorrectionResult(corrected=corrected, edits=edits)


def _splice(text: str, seq: textcore.TokenSequence, replacements) -> str:
    """`text` with the span of each (token index, word) pair, in ascending order, replaced."""
    pieces = []
    cursor = 0
    for i, word in replacements:
        start, end = seq.spans[i]
        pieces.append(text[cursor:start])
        pieces.append(word)
        cursor = end
    pieces.append(text[cursor:])
    return "".join(pieces)


def detect_oov(tokens: textcore.TokenSequence, vocab) -> list[int]:
    """Indices of word tokens missing from the vocabulary; punctuation is never flagged."""
    flagged = []
    for i, token in enumerate(tokens.tokens):
        if textcore.is_punct_token(token):
            continue
        if token not in vocab:
            flagged.append(i)
    return flagged


def mask_oov(text: str, vocab) -> str:
    """Replace every OOV word token by the mask literal; spacing is preserved."""
    seq = textcore.tokenize(text)
    return _splice(text, seq, [(i, MASK_TOKEN) for i in detect_oov(seq, vocab)])


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:  # false for nan too
        raise InvalidProbability(f"mask probability must be in [0, 1], got {p}")


def mask_random(text: str, p: float = 0.2, seed: int = 0) -> str:
    """Mask each word token independently with probability p (seeded, reproducible)."""
    _check_probability(p)
    seq = textcore.tokenize(text)
    rng = random.Random(seed)
    chosen = []
    for i, token in enumerate(seq.tokens):
        if textcore.is_punct_token(token):
            continue
        if rng.random() < p:
            chosen.append((i, MASK_TOKEN))
    return _splice(text, seq, chosen)


class NgramMaskFiller:
    """Fallback mask predictor: every mask gets the most frequent word.

    The word is fixed at construction (ties: higher count, then lexicographic).
    """

    def __init__(self, unigrams: dict[str, int]):
        self._word = min(unigrams, key=lambda w: (-unigrams[w], w)) if unigrams else None

    @classmethod
    def from_dictionary(cls, dictionary: Dictionary) -> "NgramMaskFiller":
        return cls(dictionary.freq)

    def fill(self, masked: str) -> str:
        if self._word is None:
            raise PredictorFailure("mask filler has an empty vocabulary")
        return masked.replace(MASK_TOKEN, self._word)


def fill_masks(masked: str, predictor) -> str:
    """Replace every mask literal via the predictor; the output carries no mask."""
    if MASK_TOKEN not in masked:
        return masked
    filled = predictor.fill(masked)
    if MASK_TOKEN in filled:
        raise PredictorFailure("predictor left mask tokens in its output")
    return filled


class FixtureClient:
    """Read-only client answering from recorded (task, src, tgt, text) tuples."""

    def __init__(self, entries: dict[tuple[str, str, str, str], str]):
        self.entries = dict(entries)

    def request(self, task: str, src: str, tgt: str, text: str) -> str:
        key = (task, src, tgt, text)
        try:
            return self.entries[key]
        except KeyError:
            raise FixtureMiss(f"no fixture entry for task={task} {src}->{tgt} text={text!r}") from None

    def close(self):
        pass


class SubprocessClient:
    """One exclusive child process speaking line-oriented JSON.

    Request: {"id", "task", "src", "tgt", "text"}; response: {"id", "text"},
    one per line, in order. The child starts when the client is built, so a
    program that cannot start raises `ClientUnavailable` before any request.
    A dead child shows as a failed write or as end of file on read; either
    raises `ClientUnavailable` with its exit status.
    """

    def __init__(self, argv: list[str]):
        self.argv = list(argv)
        self._next_id = 0
        try:
            self._proc = subprocess.Popen(
                self.argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                encoding="utf-8",
                bufsize=1,
            )
        except OSError as exc:
            raise ClientUnavailable(f"cannot start client {self.argv!r}: {exc}") from exc

    def request(self, task: str, src: str, tgt: str, text: str) -> str:
        rid = self._next_id
        self._next_id += 1
        message = json.dumps(
            {"id": rid, "task": task, "src": src, "tgt": tgt, "text": text},
            ensure_ascii=False,
        )
        try:
            self._proc.stdin.write(message + "\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
        except OSError:  # BrokenPipeError: the child is gone
            line = ""
        except UnicodeDecodeError as exc:
            raise ClientUnavailable(f"client reply is not UTF-8: {exc}") from exc
        if not line:
            status = self._proc.wait()
            raise ClientUnavailable(f"client closed its pipes (exit status {status})")
        # Syntax and digit-limit errors are ValueErrors; nesting too deep is a RecursionError.
        try:
            response = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ClientUnavailable(f"client sent invalid JSON: {exc}") from exc
        if not isinstance(response, dict):
            raise ClientUnavailable(f"client reply is not a JSON object: {line.strip()[:80]}")
        # type() rather than ==, since JSON false and true equal the ids 0 and 1.
        if type(response.get("id")) is not int or response["id"] != rid:
            raise ClientUnavailable(
                f"client answered out of order (sent id {rid}, got {response.get('id')!r})"
            )
        if not isinstance(response.get("text"), str):
            raise ClientUnavailable("client reply has no string text field")
        return response["text"]

    def close(self):
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()
        finally:
            self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def back_translate(text: str, client) -> str:
    """Source -> pivot -> source through the client, recorded verbatim."""
    pivot_text = client.request("translate", SOURCE_LANG, PIVOT_LANG, text)
    return client.request("translate", PIVOT_LANG, SOURCE_LANG, pivot_text)


def paraphrase(text: str, client, dictionary: Dictionary) -> str:
    """Spell-correct first, then one paraphrase call on the corrected text."""
    corrected = spell_correct(text, dictionary).corrected
    return client.request("paraphrase", SOURCE_LANG, SOURCE_LANG, corrected)


class ReduceMethod(Enum):
    SPELL = "spell"
    SPELL_PARAPHRASE = "paraphrase"
    BACK_TRANSLATE = "backtranslate"
    MASK_OOV_FILL = "mask-oov"
    MASK_RANDOM_FILL = "mask-random"


def reducer(method: ReduceMethod, dictionary: Dictionary | None = None, client=None,
            mask_probability: float = 0.2):
    """The `(text, seed) -> str` function that applies `method` to one document.

    It checks the method's inputs once, here: a missing dictionary or client raises
    MissingResource, a mask-random probability outside [0, 1] InvalidProbability.
    Only the mask methods build a filler; `seed` drives mask-random alone.
    """
    if method is ReduceMethod.MASK_RANDOM_FILL:
        _check_probability(mask_probability)
        if mask_probability == 0.0:
            return lambda text, seed: text
    if dictionary is None and method is not ReduceMethod.BACK_TRANSLATE:
        raise MissingResource(f"method {method.value} needs a dictionary")
    if client is None and method in (ReduceMethod.SPELL_PARAPHRASE, ReduceMethod.BACK_TRANSLATE):
        raise MissingResource(f"method {method.value} needs a client")
    if method is ReduceMethod.SPELL:
        return lambda text, seed: spell_correct(text, dictionary).corrected
    if method is ReduceMethod.SPELL_PARAPHRASE:
        return lambda text, seed: paraphrase(text, client, dictionary)
    if method is ReduceMethod.BACK_TRANSLATE:
        return lambda text, seed: back_translate(text, client)
    filler = NgramMaskFiller.from_dictionary(dictionary)
    if method is ReduceMethod.MASK_OOV_FILL:
        return lambda text, seed: fill_masks(mask_oov(text, dictionary), filler)
    return lambda text, seed: fill_masks(mask_random(text, mask_probability, seed), filler)
