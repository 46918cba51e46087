import hashlib
import itertools
import json
import os
import random
import stat
import unicodedata

import pytest

from conftest import tokenize_reference
from noisekit import reduce, textcore
from noisekit.errors import IoFailure, Malformed
from noisekit.textcore import (
    NGRAM_JOIN,
    NoiseLabelSet,
    char_ngrams,
    is_digit_token,
    is_punct_token,
    normalize,
    token_spans,
    tokenize,
    word_ngrams,
    write_bytes,
    write_text,
)

# Characters a fuzzer should mix: Latin, Bengali letters and signs, combining
# marks, odd whitespace, punctuation variants, emoji.
FUZZ_ALPHABET = (
    "ab z\t\n "
    "কাি্র"
    "é́"
    "‘’“—…"
    ".,?!।"
    "\U0001f600"
    + NGRAM_JOIN
)


def random_text(rng, max_len=40):
    return "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randint(0, max_len)))


class TestNormalize:
    def test_whitespace_collapse(self):
        assert normalize("a  b") == "a b"
        assert normalize(" a\t\nb ") == "a b"

    def test_identity_on_clean_input(self):
        assert normalize("abc") == "abc"

    def test_empty(self):
        assert normalize("") == ""
        assert normalize("   ") == ""

    def test_recomposes_decomposed_vowel_sign(self):
        # e + combining acute composes; Bengali e-kar + aa-kar composes to o-kar.
        assert normalize("é") == "é"
        assert normalize("কো") == "কো"

    def test_punctuation_canonicalized(self):
        assert normalize("‘a’ “b” — c…") == "'a' \"b\" - c."

    def test_ngram_join_stripped(self):
        assert normalize(f"a{NGRAM_JOIN}b") == "ab"

    def test_idempotent_fuzz(self):
        rng = random.Random(1)
        for _ in range(2000):
            text = random_text(rng)
            once = normalize(text)
            assert normalize(once) == once

    def test_every_punctuation_target_maps_to_itself(self):
        # Else normalizing twice could change the text again.
        table = textcore.default_punctuation_table()
        for dst in table.values():
            assert table.get(ord(dst), dst) == dst


@pytest.mark.parametrize("table, entries, digest", [
    (textcore.default_punctuation_table, 31, "8b4da69e830396cdbcab5664887a713344c144ab97d18e10557230b7c4b29aed"),
    (reduce.bengali_phonetic_table, 37, "0dc8c810024a0e98f78dfb73a16641e2cf5350074fa5044f5f3dc1a429646df6"),
], ids=["punctuation", "phonetic-bn"])
def test_fixed_table_contents_are_pinned(table, entries, digest):
    items = sorted(table().items())
    assert len(items) == entries
    assert hashlib.sha256(json.dumps(items).encode()).hexdigest() == digest


def failing_after(chunks, exc):
    yield from chunks
    raise exc


class TestWriteText:
    @pytest.mark.parametrize("old", [b"old\n", None], ids=["existing", "absent"])
    @pytest.mark.parametrize("exc, error", [
        (RuntimeError("stop"), RuntimeError),
        (OSError(28, "No space left on device"), IoFailure),
    ], ids=["runtime-error", "os-error"])
    def test_failure_part_way_keeps_old_target(self, tmp_path, old, exc, error):
        target = tmp_path / "out.tsv"
        if old is not None:
            target.write_bytes(old)
        with pytest.raises(error) as excinfo:
            write_bytes(target, failing_after([b"new", b" rows\n"], exc))
        if error is IoFailure:
            assert str(excinfo.value) == f"cannot write {target}: No space left on device"
        assert os.listdir(tmp_path) == ([] if old is None else ["out.tsv"])
        if old is not None:
            assert target.read_bytes() == old

    def test_new_file_has_the_mode_open_gives(self, tmp_path):
        reference = tmp_path / "reference"
        with open(reference, "w"):
            pass
        write_text(tmp_path / "out", "x")
        assert stat.S_IMODE(os.stat(tmp_path / "out").st_mode) == stat.S_IMODE(os.stat(reference).st_mode)

    def test_existing_file_keeps_its_mode(self, tmp_path):
        target = tmp_path / "out"
        target.write_text("old", encoding="utf-8")
        target.chmod(0o640)
        write_text(target, "new")
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o640 and target.read_text(encoding="utf-8") == "new"

    def test_symlink_target_is_written_through(self, tmp_path):
        real, link = tmp_path / "real.tsv", tmp_path / "link.tsv"
        real.write_text("old\n", encoding="utf-8")
        link.symlink_to(real)
        write_text(link, "new\n")
        assert link.is_symlink() and real.read_text(encoding="utf-8") == "new\n"

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_text(fifo, "through the pipe\n")
            assert os.read(reader, 100) == b"through the pipe\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode) and os.listdir(tmp_path) == ["pipe"]


# Pools for the tokenizer oracle: ASCII with its controls, Latin-1, Latin Extended,
# Bengali, astral letters, combining marks, and the whitespace and format characters
# the tokenizer must tell apart (U+0085, U+00A0, U+2028, U+3000, U+001C-U+001F, ZWJ).
TOKENIZER_POOLS = (
    range(0x00, 0x80),
    range(0x80, 0x100),
    range(0x100, 0x250),
    range(0x980, 0xA00),
    (*range(0x10400, 0x10450), *range(0x1D400, 0x1D420), 0x20000, 0x1F600),
    range(0x300, 0x370),
    (0x85, 0xA0, 0x2028, 0x3000, 0x1C, 0x1D, 0x1E, 0x1F, 0x200D),
)


def tokenizer_text(rng, max_len=40):
    return "".join(chr(rng.choice(rng.choice(TOKENIZER_POOLS))) for _ in range(rng.randint(0, max_len)))


@pytest.fixture(scope="module")
def every_code_point() -> str:
    """Every code point but the surrogates, in order."""
    return "".join(map(chr, itertools.chain(range(0xD800), range(0xE000, 0x110000))))


class TestTokenize:
    def test_simple_split(self):
        assert tokenize("a b") == ["a", "b"]

    def test_punct_split_off(self):
        assert tokenize("a, b") == ["a", ",", "b"]
        assert tokenize("a,b") == ["a", ",", "b"]

    def test_empty(self):
        assert tokenize("") == []

    def test_combining_marks_stay_attached(self):
        assert tokenize("ক্র x") == ["ক্র", "x"]

    def test_spans_fuzz(self):
        rng = random.Random(2)
        for _ in range(1500):
            text = random_text(rng)
            tokens = tokenize(text)
            spans = token_spans(text, tokens)
            assert len(spans) == len(tokens)
            previous_start, previous_end = -1, 0
            for token, (start, end) in zip(tokens, spans):
                assert start > previous_start  # strictly increasing
                assert start >= previous_end  # non-overlapping
                assert end > start
                assert text[start:end] == token
                previous_start, previous_end = start, end
            # Non-whitespace content survives tokenization in order.
            assert "".join(tokens) == "".join(ch for ch in text if not ch.isspace())

    def test_matches_reference_fuzz(self):
        rng = random.Random(17)
        for _ in range(3000):
            text = tokenizer_text(rng)
            tokens = tokenize(text)
            assert (tokens, token_spans(text, tokens)) == tokenize_reference(text), ascii(text)

    def test_matches_reference_per_category(self):
        first = {}
        for code in range(0x10000):
            first.setdefault(unicodedata.category(chr(code)), chr(code))
        assert len(first) == 30  # every general category, Cn and Cs included
        for category, ch in first.items():
            text = f"a{ch}b"
            tokens = tokenize(text)
            assert (tokens, token_spans(text, tokens)) == tokenize_reference(text), category


class TestWholeUnicode:
    """What `tokenize` and `is_digit_token` rest on, checked against this Python's Unicode database."""

    def test_split_splits_exactly_at_isspace(self, every_code_point):
        spaces = [ch for ch in every_code_point if ch.isspace()]
        # Each code point stands alone between two letters, so each space is one split.
        text = "x".join(every_code_point)
        parts = text.split()
        assert len(parts) == len(spaces) + 1
        assert "".join(parts) == text.translate(dict.fromkeys(map(ord, spaces)))

    def test_no_separator_is_whitespace(self, every_code_point):
        assert [ch for ch in every_code_point if ch.isspace() and is_punct_token(ch)] == []

    def test_is_digit_token_is_category_nd(self, every_code_point):
        differ = [ch for ch in every_code_point if is_digit_token(ch) != (unicodedata.category(ch) == "Nd")]
        assert differ == []
        assert is_digit_token("১২3") and not is_digit_token("") and not is_digit_token("1a")


class TestCharNgrams:
    def test_examples(self):
        assert char_ngrams("ab", 1, 2) == ["a", "b", "ab"]
        assert char_ngrams("abc", 2, 2) == ["ab", "bc"]

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            char_ngrams("ab", 0, 2)
        with pytest.raises(ValueError):
            char_ngrams("ab", 3, 2)

    def test_count_formula_exhaustive(self):
        rng = random.Random(3)
        for length in range(0, 21):
            for _ in range(5):
                text = "".join(rng.choice("abক") for _ in range(length))
                grams = char_ngrams(text, 1, 4)
                expected = sum(max(0, length - n + 1) for n in range(1, 5))
                assert len(grams) == expected


class TestWordNgrams:
    def test_examples(self):
        assert word_ngrams(["a", "b"], 1, 2) == ["a", "b", f"a{NGRAM_JOIN}b"]
        assert word_ngrams(["a"], 2, 2) == []

    def test_count_formula(self):
        rng = random.Random(4)
        for n_tokens in range(0, 12):
            tokens = [str(rng.randint(0, 5)) for _ in range(n_tokens)]
            grams = word_ngrams(tokens, 1, 3)
            expected = sum(max(0, n_tokens - n + 1) for n in range(1, 4))
            assert len(grams) == expected


class TestNoiseLabelSet:
    def test_bits_round_trip(self):
        bits = "0100000001"
        labels = NoiseLabelSet.from_bits(bits)
        assert labels.to_bits() == bits
        assert labels.names() == ("word_misuse", "others")

    def test_bad_bits(self):
        with pytest.raises(Malformed):
            NoiseLabelSet.from_bits("01")
        with pytest.raises(Malformed):
            NoiseLabelSet.from_bits("01000000x1")

    def test_from_names(self):
        labels = NoiseLabelSet.from_names(["mixed_language", "spelling_error"])
        assert labels.to_bits() == "0000100100"


def test_sentiment_order_is_tiebreak_order():
    order = [textcore.SentimentLabel.NEUTRAL, textcore.SentimentLabel.POSITIVE, textcore.SentimentLabel.NEGATIVE]
    assert [int(s) for s in order] == [0, 1, 2]
    assert textcore.SentimentLabel.from_name("positive").label == "positive"


def test_sentiment_mask_is_the_bit_of_its_class():
    masks = [label.mask for label in textcore.SentimentLabel]
    assert masks == [0b001, 0b010, 0b100]
    assert [textcore.SENTIMENT_CLASSES[m.bit_length() - 1] for m in masks] == list(textcore.SENTIMENT_CLASSES)
