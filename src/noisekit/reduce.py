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
import os
import random
import selectors
import subprocess
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum

from . import textcore
from .errors import (
    ClientUnavailable,
    FixtureMiss,
    InsufficientData,
    Malformed,
    MissingResource,
    PredictorFailure,
)

MASK_TOKEN = "<MASK>"
# Every client request's language pair: Bangla texts, English the back-translation pivot.
SOURCE_LANG = "bn"
PIVOT_LANG = "en"


@functools.cache
def bengali_phonetic_table() -> dict[str, str]:
    """{Bengali consonant: articulation-class digit}, built once: read it, never change it.

    Vowels, vowel signs, hasanta, candrabindu and anything unlisted are dropped by the encoder.
    """
    # Escapes, not literal letters: U+09DC and U+09DD are NFC composition exclusions, which
    # an editor that normalizes would split into U+09A1/U+09A2 plus nukta, moving those two
    # letters from class 3 to class 6.
    classes = {
        # velar stops
        "1": "\u0995\u0996\u0997\u0998",
        # palatal affricates (incl. ya, pronounced like ja)
        "2": "\u099a\u099b\u099c\u099d\u09af",
        # retroflex and dental stops (incl. khanda ta)
        "3": "\u099f\u09a0\u09a1\u09a2\u09a4\u09a5\u09a6\u09a7\u09ce",
        # nasals (incl. anusvara)
        "4": "\u0999\u099e\u09a3\u09a8\u09ae\u0982",
        # sibilants
        "5": "\u09b6\u09b7\u09b8",
        # r-like (incl. rra/rha flaps)
        "6": "\u09b0\u09dc\u09dd",
        # lateral
        "7": "\u09b2",
        # labial stops
        "8": "\u09aa\u09ab\u09ac\u09ad",
        # h-like (incl. visarga)
        "9": "\u09b9\u0983",
    }
    return {consonant: digit for digit, consonants in classes.items() for consonant in consonants}


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
    tokens = textcore.tokenize(text)
    edits = []
    for i, token in enumerate(tokens):
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
    corrected = _splice(text, tokens, [(i, replacement) for i, _, replacement, _ in edits])
    return CorrectionResult(corrected=corrected, edits=edits)


def _splice(text: str, tokens: list[str], replacements) -> str:
    """`text` with the span of each (token index, word) pair, in ascending order, replaced."""
    spans = textcore.token_spans(text, tokens)
    pieces = []
    cursor = 0
    for i, word in replacements:
        start, end = spans[i]
        pieces.append(text[cursor:start])
        pieces.append(word)
        cursor = end
    pieces.append(text[cursor:])
    return "".join(pieces)


def detect_oov(tokens: list[str], vocab) -> list[int]:
    """Indices of word tokens missing from the vocabulary; punctuation is never flagged."""
    flagged = []
    for i, token in enumerate(tokens):
        if textcore.is_punct_token(token):
            continue
        if token not in vocab:
            flagged.append(i)
    return flagged


def mask_oov(text: str, vocab) -> str:
    """Replace every OOV word token by the mask literal; spacing is preserved."""
    tokens = textcore.tokenize(text)
    return _splice(text, tokens, [(i, MASK_TOKEN) for i in detect_oov(tokens, vocab)])


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:  # false for nan too
        raise Malformed(f"mask probability must be in [0, 1], got {p}")


def mask_random(text: str, p: float = 0.2, seed: int = 0) -> str:
    """Mask each word token independently with probability p (seeded, reproducible)."""
    _check_probability(p)
    tokens = textcore.tokenize(text)
    rng = random.Random(seed)
    chosen = []
    for i, token in enumerate(tokens):
        if textcore.is_punct_token(token):
            continue
        if rng.random() < p:
            chosen.append((i, MASK_TOKEN))
    return _splice(text, tokens, chosen)


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

    def request(self, task: str, src: str, tgt: str, texts: list[str]) -> list[str]:
        """One reply per text, in order; the first text without an entry raises FixtureMiss."""
        replies = []
        for text in texts:
            try:
                replies.append(self.entries[(task, src, tgt, text)])
            except KeyError:
                raise FixtureMiss(f"no fixture entry for task={task} {src}->{tgt} text={text!r}") from None
        return replies

    def close(self):
        pass


# `reduce --client` runs this many copies of the client program, fewer for a smaller corpus.
CLIENT_COPIES = 4
# Seconds a copy may take to read one request and answer it.
CLIENT_TIMEOUT_S = 60.0
# Seconds `close` waits, for all copies together, before it kills the ones still running.
CLIENT_CLOSE_WAIT_S = 5.0


class _Copy:
    """One child process and its latest request."""

    __slots__ = ("proc", "rid", "index", "deadline", "unsent", "received")

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.rid = -1  # ids count from 0
        self.index: int | None = None  # of the text in flight
        self.deadline = 0.0
        self.unsent = b""
        self.received = bytearray()


class SubprocessClient:
    """`copies` child processes, each speaking line-oriented JSON.

    Request: {"id", "task", "src", "tgt", "text"}; response: {"id", "text"},
    one per line. Text i of a batch goes to copy i mod `copies`; each copy has
    one request in flight and numbers its requests from 0. The children start
    when the client is built, so a program that cannot start raises
    `ClientUnavailable` before any request. A dead child (a failed write or end
    of file on read, named with its exit status), a bad reply and a request
    left unanswered for `CLIENT_TIMEOUT_S` seconds raise `ClientUnavailable`.
    """

    def __init__(self, argv: list[str], copies: int = 1):
        if copies < 1:
            raise ValueError(f"a client needs at least one copy, not {copies}")
        self.argv = list(argv)
        self._copies: list[_Copy] = []
        self._failure: ClientUnavailable | None = None
        for _ in range(copies):
            try:
                proc = subprocess.Popen(self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
            except OSError as exc:
                self.close()
                raise ClientUnavailable(f"cannot start client {self.argv!r}: {exc}") from exc
            os.set_blocking(proc.stdin.fileno(), False)
            self._copies.append(_Copy(proc))

    def request(self, task: str, src: str, tgt: str, texts: list[str]) -> list[str]:
        """One reply per text, in order, from the copies answering concurrently.

        After a failure at index f only texts below f are still sent. The failure
        with the lowest index is raised, every copy is closed, and each later call
        raises that failure again.
        """
        if self._failure is not None:
            raise self._failure
        replies: list[str | None] = [None] * len(texts)
        # A copy whose pipes closed stands for its failure until its exit status is read, after the loop.
        failures: dict[int, ClientUnavailable | _Copy] = {}
        limit = len(texts)
        selector = selectors.DefaultSelector()

        def send(j: int, index: int) -> None:
            copy = self._copies[j]
            if index >= limit:
                copy.index = None
                return
            copy.index = index
            copy.rid += 1
            message = {"id": copy.rid, "task": task, "src": src, "tgt": tgt, "text": texts[index]}
            copy.unsent = (json.dumps(message, ensure_ascii=False) + "\n").encode("utf-8")
            copy.deadline = time.monotonic() + CLIENT_TIMEOUT_S
            selector.register(copy.proc.stdin, selectors.EVENT_WRITE, j)

        def fail(j: int, exc: ClientUnavailable | _Copy) -> None:
            nonlocal limit
            copy = self._copies[j]
            failures[copy.index] = exc
            limit = min(limit, copy.index)
            # A copy has one pipe registered: stdin while its request is unwritten, then stdout.
            selector.unregister(copy.proc.stdin if copy.unsent else copy.proc.stdout)
            copy.index = None

        try:
            for j in range(len(self._copies)):
                send(j, j)
            while True:
                waiting = [c.deadline for c in self._copies if c.index is not None and c.index < limit]
                if not waiting:
                    break
                for key, _ in selector.select(max(min(waiting) - time.monotonic(), 0.0)):
                    j = key.data
                    copy = self._copies[j]
                    if key.fileobj is copy.proc.stdin:
                        try:
                            written = os.write(key.fd, copy.unsent)
                        except BrokenPipeError:
                            fail(j, copy)
                            continue
                        copy.unsent = copy.unsent[written:]
                        if copy.unsent:
                            continue
                        # The reply is read only once the request is written; it may already be buffered.
                        selector.unregister(copy.proc.stdin)
                        selector.register(copy.proc.stdout, selectors.EVENT_READ, j)
                    else:
                        chunk = os.read(key.fd, 65536)
                        if not chunk:
                            fail(j, copy)
                            continue
                        copy.received += chunk
                    end = copy.received.find(b"\n")
                    if end < 0:
                        continue
                    line = bytes(copy.received[:end])
                    del copy.received[: end + 1]
                    try:
                        replies[copy.index] = self._reply_text(line, copy.rid)
                    except ClientUnavailable as exc:
                        fail(j, exc)
                        continue
                    selector.unregister(copy.proc.stdout)
                    send(j, copy.index + len(self._copies))
                now = time.monotonic()
                for j, copy in enumerate(self._copies):
                    if copy.index is not None and copy.index < limit and copy.deadline <= now:
                        fail(j, ClientUnavailable(
                            f"client sent no reply within {CLIENT_TIMEOUT_S:g} s (sent id {copy.rid})"
                        ))
        finally:
            selector.close()
        if failures:
            first = failures[min(failures)]
            self._failure = self._closed(first) if isinstance(first, _Copy) else first
            self.close()
            raise self._failure
        return replies

    @staticmethod
    def _closed(copy: _Copy) -> ClientUnavailable:
        """The failure of a copy whose pipes closed, named with its exit status."""
        try:
            status = copy.proc.wait(timeout=CLIENT_CLOSE_WAIT_S)
        except subprocess.TimeoutExpired:
            return ClientUnavailable(f"client closed its pipes but did not exit within {CLIENT_CLOSE_WAIT_S:g} s")
        return ClientUnavailable(f"client closed its pipes (exit status {status})")

    @staticmethod
    def _reply_text(line: bytes, rid: int) -> str:
        """The text of one reply line, which must answer request `rid`."""
        try:
            decoded = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ClientUnavailable(f"client reply is not UTF-8: {exc}") from exc
        response = textcore.decode_json(decoded, ClientUnavailable)
        if not isinstance(response, dict):
            raise ClientUnavailable(f"client reply is not a JSON object: {decoded.strip()[:80]}")
        # type() rather than ==, since JSON false and true equal the ids 0 and 1.
        if type(response.get("id")) is not int or response["id"] != rid:
            raise ClientUnavailable(
                f"client answered out of order (sent id {rid}, got {response.get('id')!r})"
            )
        text = response.get("text")
        if not isinstance(text, str):
            raise ClientUnavailable("client reply has no string text field")
        if not textcore.utf8_storable(text):
            raise ClientUnavailable("client reply text holds a lone surrogate")
        return text

    def close(self):
        """Close every stdin, wait for all copies together, then kill those still running."""
        for copy in self._copies:
            copy.proc.stdin.close()
        deadline = time.monotonic() + CLIENT_CLOSE_WAIT_S
        for copy in self._copies:
            try:
                copy.proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired:
                copy.proc.kill()
                copy.proc.wait()
            copy.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def back_translate(texts: list[str], client) -> list[str]:
    """Source -> pivot -> source through the client, recorded verbatim."""
    pivots = client.request("translate", SOURCE_LANG, PIVOT_LANG, texts)
    return client.request("translate", PIVOT_LANG, SOURCE_LANG, pivots)


def paraphrase(texts: list[str], client, dictionary: Dictionary) -> list[str]:
    """Spell-correct every text, then one paraphrase call on the corrected texts."""
    corrected = [spell_correct(text, dictionary).corrected for text in texts]
    return client.request("paraphrase", SOURCE_LANG, SOURCE_LANG, corrected)


class ReduceMethod(Enum):
    SPELL = "spell"
    SPELL_PARAPHRASE = "paraphrase"
    BACK_TRANSLATE = "backtranslate"
    MASK_OOV_FILL = "mask-oov"
    MASK_RANDOM_FILL = "mask-random"


def reducer(method: ReduceMethod, dictionary: Dictionary | None = None, client=None,
            mask_probability: float = 0.2):
    """The `(texts, seeds) -> list[str]` function that applies `method` to documents.

    It checks the method's inputs once, here: a missing dictionary or client raises
    MissingResource, a mask-random probability outside [0, 1] Malformed.
    Only the mask methods build a filler; `seeds`, one per text, drive mask-random alone.
    The client methods send all texts in one batched call per stage.
    """
    if method is ReduceMethod.MASK_RANDOM_FILL:
        _check_probability(mask_probability)
        if mask_probability == 0.0:
            return lambda texts, seeds: list(texts)
    if dictionary is None and method is not ReduceMethod.BACK_TRANSLATE:
        raise MissingResource(f"method {method.value} needs a dictionary")
    if client is None and method in (ReduceMethod.SPELL_PARAPHRASE, ReduceMethod.BACK_TRANSLATE):
        raise MissingResource(f"method {method.value} needs a client")
    if method is ReduceMethod.SPELL:
        return lambda texts, seeds: [spell_correct(text, dictionary).corrected for text in texts]
    if method is ReduceMethod.SPELL_PARAPHRASE:
        return lambda texts, seeds: paraphrase(texts, client, dictionary)
    if method is ReduceMethod.BACK_TRANSLATE:
        return lambda texts, seeds: back_translate(texts, client)
    filler = NgramMaskFiller.from_dictionary(dictionary)
    if method is ReduceMethod.MASK_OOV_FILL:
        return lambda texts, seeds: [fill_masks(mask_oov(text, dictionary), filler) for text in texts]
    return lambda texts, seeds: [
        fill_masks(mask_random(text, mask_probability, seed), filler) for text, seed in zip(texts, seeds)
    ]
