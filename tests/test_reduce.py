import itertools
import random
import subprocess
import sys
import time

import pytest

from noisekit.errors import (
    ClientUnavailable,
    FixtureMiss,
    InsufficientData,
    Malformed,
    MissingResource,
    PredictorFailure,
)
from noisekit.reduce import (
    Dictionary,
    FixtureClient,
    MASK_TOKEN,
    NgramMaskFiller,
    ReduceMethod,
    SubprocessClient,
    back_translate,
    default_max_dist,
    detect_oov,
    fill_masks,
    levenshtein,
    mask_oov,
    mask_random,
    paraphrase,
    phonetic_encode,
    reducer,
    spell_correct,
)
from noisekit import reduce as reduce_module
from noisekit.textcore import is_punct_token, tokenize

from conftest import BASE_VOCAB, random_word

# Child process implementing the line-JSON protocol; reverses the text.
REVERSER = (
    "import sys, json\n"
    "for line in sys.stdin:\n"
    "    req = json.loads(line)\n"
    "    print(json.dumps({'id': req['id'], 'text': req['text'][::-1]}), flush=True)\n"
)
# Children that read every request and never answer one: silently, or after half a line.
# Each exits when its stdin closes.
STALLS_SILENT = "import sys\nsys.stdin.read()\n"
STALLS_MID_LINE = "import sys\nsys.stdout.write('{\"id\": 0, \"te'); sys.stdout.flush()\nsys.stdin.read()\n"


class TestPhoneticEncode:
    def test_hand_worked_example(self, latin_table):
        assert phonetic_encode("abba", latin_table) == "A100"

    def test_single_letter_pads(self, latin_table):
        assert phonetic_encode("a", latin_table) == "A000"

    def test_truncates_to_three_digits(self, latin_table):
        assert phonetic_encode("abtkbtk", latin_table) == "A123"

    def test_empty_word(self, latin_table):
        with pytest.raises(InsufficientData, match="^cannot encode an empty word$"):
            phonetic_encode("", latin_table)

    def test_vowel_insensitive_exhaustive(self, latin_table):
        # Same consonant skeleton + same first letter => same code, however
        # vowels are sprinkled after position 0.
        rng = random.Random(41)
        for skeleton in itertools.product("bptk", repeat=3):
            word = "".join(skeleton)
            base = phonetic_encode(word, latin_table)
            for _ in range(5):
                padded = word[0] + "".join(
                    ch + ("" if rng.random() < 0.5 else rng.choice("aeiou"))
                    for ch in word[1:]
                )
                assert phonetic_encode(padded, latin_table) == base

    def test_case_insensitive_after_first(self, latin_table):
        assert phonetic_encode("aBBa", latin_table) == phonetic_encode("abba", latin_table)


def levenshtein_matrix_oracle(a, b):
    # Full-matrix dynamic program, kept independent of the implementation.
    rows, cols = len(a) + 1, len(b) + 1
    dist = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        dist[i][0] = i
    for j in range(cols):
        dist[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            dist[i][j] = min(
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
                dist[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return dist[-1][-1]


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_pure_insertion(self):
        assert levenshtein("", "abc") == 3

    def test_classic_pair(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("kitten", "sitting") == levenshtein_matrix_oracle("kitten", "sitting")

    def test_against_matrix_oracle_fuzz(self):
        rng = random.Random(43)
        for _ in range(300):
            a = random_word(rng, max_len=7)
            b = random_word(rng, max_len=7)
            assert levenshtein(a, b) == levenshtein_matrix_oracle(a, b)

    def test_metric_axioms_fuzz(self):
        rng = random.Random(47)
        for _ in range(2000):
            a, b, c = (random_word(rng, "abkক", 5) for _ in range(3))
            dab, dba = levenshtein(a, b), levenshtein(b, a)
            assert dab == dba
            assert (dab == 0) == (a == b)
            assert dab <= levenshtein(a, c) + levenshtein(c, b)


class TestSpellCorrect:
    def test_clean_sentence_unchanged(self, latin_dict):
        result = spell_correct("the cat , the dog", latin_dict)
        assert result.corrected == "the cat , the dog"
        assert result.edits == []

    def test_documented_example(self, latin_table):
        d = Dictionary({"hello": 10, "world": 5}, table=latin_table)
        result = spell_correct("helo world", d)
        assert result.corrected == "hello world"
        assert result.edits == [(0, "helo", "hello", 1)]

    def test_no_candidate_within_budget_unchanged(self, latin_table):
        d = Dictionary({"hello": 10}, table=latin_table)
        result = spell_correct("haaaaaaaaaaaaaloo", d)
        assert result.corrected == "haaaaaaaaaaaaaloo"

    def test_digits_and_punct_exempt(self, latin_dict):
        result = spell_correct("123 , cta", latin_dict)
        assert result.edits and result.edits[0][1] == "cta"

    def test_ties_prefer_frequency_then_lexicographic(self, latin_table):
        # "bta" and "bde" both encode to B200 and sit at distance 1 from "bda".
        d = Dictionary({"bta": 3, "bde": 9}, table=latin_table)
        assert spell_correct("bda", d).corrected == "bde"
        # Equal frequency: lexicographically smaller candidate wins.
        d2 = Dictionary({"bdo": 5, "bdi": 5}, table=latin_table)
        assert spell_correct("bda", d2).corrected == "bdi"

    def test_replacement_shares_code_and_is_minimal_fuzz(self, latin_dict, latin_table):
        rng = random.Random(53)
        words = sorted(latin_dict.freq)
        for _ in range(300):
            word = rng.choice(words)
            # Random single-character corruption.
            pos = rng.randrange(len(word))
            noisy = word[:pos] + rng.choice("abdegikloprstz") + word[pos + 1 :]
            result = spell_correct(noisy, latin_dict)
            for _, original, replacement, dist in result.edits:
                assert replacement in latin_dict.freq
                code = phonetic_encode(original, latin_table)
                assert phonetic_encode(replacement, latin_table) == code
                # Exhaustive oracle: no same-code dictionary word is strictly better.
                limit = default_max_dist(original)
                best = None
                for cand in sorted(latin_dict.freq):
                    if phonetic_encode(cand, latin_table) != code:
                        continue
                    d = levenshtein(original, cand)
                    if d > limit:
                        continue
                    key = (d, -latin_dict.freq[cand], cand)
                    if best is None or key < best:
                        best = key
                assert best is not None
                assert (dist, -latin_dict.freq[replacement], replacement) == best
            # Applying the edits to the original reproduces the corrected text.
            seq = tokenize(noisy)
            pieces, cursor = [], 0
            for i, _, replacement, _ in result.edits:
                start, end = seq.spans[i]
                pieces.extend((noisy[cursor:start], replacement))
                cursor = end
            pieces.append(noisy[cursor:])
            assert "".join(pieces) == result.corrected

    def test_idempotent_fuzz(self, latin_dict):
        rng = random.Random(59)
        words = sorted(latin_dict.freq)
        for _ in range(200):
            sentence = " ".join(
                rng.choice(words) + ("" if rng.random() < 0.6 else rng.choice("xqz"))
                for _ in range(rng.randint(1, 6))
            )
            once = spell_correct(sentence, latin_dict)
            twice = spell_correct(once.corrected, latin_dict)
            assert twice.corrected == once.corrected
            assert twice.edits == []

    def test_non_native_script_exempt(self, latin_dict):
        # Bengali token against a Latin dictionary is left alone.
        result = spell_correct("কা cta", latin_dict)
        assert [e[1] for e in result.edits] == ["cta"]

    def test_empty_dictionary_rejected(self, latin_table):
        with pytest.raises(MissingResource):
            spell_correct("x", Dictionary({}, table=latin_table))


class TestOovAndMasking:
    def test_detect_all_known(self, latin_dict):
        seq = tokenize("the cat")
        assert detect_oov(seq, latin_dict) == []

    def test_detect_example(self, latin_dict):
        seq = tokenize("the xx cat yy")
        assert detect_oov(seq, latin_dict) == [1, 3]

    def test_punctuation_never_flagged(self, latin_dict):
        rng = random.Random(61)
        for _ in range(200):
            text = " ".join(
                rng.choice([",", "?", "xx", "the", "cat", "!"]) for _ in range(rng.randint(0, 8))
            )
            seq = tokenize(text)
            flagged = detect_oov(seq, latin_dict)
            word_indices = [i for i, t in enumerate(seq.tokens) if not is_punct_token(t)]
            assert set(flagged) <= set(word_indices)

    def test_mask_oov_no_oov_unchanged(self, latin_dict):
        assert mask_oov("the cat", latin_dict) == "the cat"

    def test_mask_oov_single(self, latin_dict):
        masked = mask_oov("the qqq cat", latin_dict)
        assert masked == f"the {MASK_TOKEN} cat"
        assert masked.count(MASK_TOKEN) == 1

    def test_mask_count_matches_detect(self, latin_dict):
        rng = random.Random(67)
        for _ in range(200):
            text = " ".join(random_word(rng) for _ in range(rng.randint(1, 8)))
            seq = tokenize(text)
            assert mask_oov(text, latin_dict).count(MASK_TOKEN) == len(detect_oov(seq, latin_dict))

    def test_mask_random_p_zero_and_one(self):
        text = "the cat sat , on a mat"
        assert mask_random(text, p=0.0, seed=1) == text
        fully = mask_random(text, p=1.0, seed=1)
        words = [t for t in tokenize(text).tokens if not is_punct_token(t)]
        assert fully.count(MASK_TOKEN) == len(words)
        assert "," in fully  # punctuation never masked

    def test_mask_random_reproducible(self):
        text = " ".join(f"w{i}" for i in range(50))
        assert mask_random(text, p=0.4, seed=99) == mask_random(text, p=0.4, seed=99)
        assert mask_random(text, p=0.4, seed=99) != mask_random(text, p=0.4, seed=100)

    def test_mask_random_invalid_probability(self):
        with pytest.raises(Malformed):
            mask_random("a b", p=1.5, seed=0)


class TestFillMasks:
    def test_no_masks_identity(self):
        assert fill_masks("plain text", None) == "plain text"

    def test_unigram_backoff_when_no_left_context(self):
        filler = NgramMaskFiller({"cat": 5, "ant": 5, "dog": 2})
        # Tie on count 5 -> lexicographically smaller word.
        assert fill_masks(MASK_TOKEN, filler) == "ant"

    def test_output_never_contains_mask_fuzz(self, latin_dict):
        filler = NgramMaskFiller.from_dictionary(latin_dict)
        rng = random.Random(71)
        for _ in range(200):
            parts = [rng.choice(["the", "cat", MASK_TOKEN, ",", "xq"]) for _ in range(rng.randint(1, 7))]
            filled = fill_masks(" ".join(parts), filler)
            assert MASK_TOKEN not in filled

    def test_empty_vocabulary_fails(self):
        filler = NgramMaskFiller({})
        with pytest.raises(PredictorFailure):
            fill_masks(MASK_TOKEN, filler)


def identity_fixture(texts):
    entries = {}
    for text in texts:
        entries[("translate", "bn", "en", text)] = text
        entries[("translate", "en", "bn", text)] = text
        entries[("paraphrase", "bn", "bn", text)] = text
    return FixtureClient(entries)


class TestClients:
    def test_back_translate_identity_fixture(self):
        client = identity_fixture(["the cat", "a dog"])
        assert back_translate(["the cat", "a dog"], client) == ["the cat", "a dog"]

    def test_back_translate_table_lookup(self):
        client = FixtureClient(
            {("translate", "bn", "en", "a"): "EN1", ("translate", "en", "bn", "EN1"): "b"}
        )
        assert back_translate(["a"], client) == ["b"]

    def test_fixture_miss(self):
        client = FixtureClient({})
        with pytest.raises(FixtureMiss, match="text='a'"):
            back_translate(["a", "b"], client)

    def test_subprocess_reverser_round_trip(self):
        with SubprocessClient([sys.executable, "-c", REVERSER]) as client:
            assert client.request("translate", "bn", "en", ["abc"]) == ["cba"]
            assert back_translate(["the cat"], client) == ["the cat"]
            assert client.request("translate", "bn", "en", []) == []

    @pytest.mark.parametrize("copies", [1, 2, 4])
    def test_copies_answer_in_text_order(self, copies):
        texts = [f"text {i}" for i in range(10)]
        with SubprocessClient([sys.executable, "-c", REVERSER], copies=copies) as client:
            assert client.request("translate", "bn", "en", texts) == [t[::-1] for t in texts]

    def test_ids_count_within_each_copy(self):
        # Text i goes to copy i mod 2, and each copy numbers its own requests from 0.
        replier = (
            "import sys, json\n"
            "for line in sys.stdin:\n"
            "    rid = json.loads(line)['id']\n"
            "    print(json.dumps({'id': rid, 'text': str(rid)}), flush=True)\n"
        )
        with SubprocessClient([sys.executable, "-c", replier], copies=2) as client:
            assert client.request("translate", "bn", "en", list("abcde")) == ["0", "0", "1", "1", "2"]
            assert client.request("translate", "bn", "en", list("ab")) == ["3", "2"]

    def test_no_copies_rejected(self):
        with pytest.raises(ValueError, match="at least one copy"):
            SubprocessClient([sys.executable, "-c", REVERSER], copies=0)

    def test_subprocess_spawn_failure(self):
        with pytest.raises(ClientUnavailable, match="^cannot start client"):
            SubprocessClient(["/nonexistent/binary"])

    def test_copies_started_before_a_spawn_failure_are_reaped(self, monkeypatch):
        started = []
        popen = subprocess.Popen

        def third_fails(*args, **kwargs):
            if len(started) == 2:
                raise OSError("no more processes")
            started.append(popen(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(subprocess, "Popen", third_fails)
        with pytest.raises(ClientUnavailable, match="^cannot start client .*no more processes"):
            SubprocessClient([sys.executable, "-c", REVERSER], copies=4)
        assert len(started) == 2
        assert all(proc.returncode is not None and proc.stdout.closed for proc in started)

    def test_subprocess_child_dies(self):
        client = SubprocessClient([sys.executable, "-c", "import sys; sys.exit(3)"])
        with pytest.raises(ClientUnavailable, match="exit status 3"):
            client.request("translate", "bn", "en", ["x"])
        client.close()

    def test_subprocess_child_dies_after_reply(self):
        # Answers once and exits 4; the next request fails and names the status, and
        # every later request raises that failure again.
        once = (
            "import sys, json\n"
            "req = json.loads(sys.stdin.readline())\n"
            "print(json.dumps({'id': req['id'], 'text': req['text']}), flush=True)\n"
            "sys.exit(4)\n"
        )
        with SubprocessClient([sys.executable, "-c", once]) as client:
            assert client.request("translate", "bn", "en", ["x"]) == ["x"]
            for _ in range(2):
                with pytest.raises(ClientUnavailable, match="exit status 4"):
                    client.request("translate", "bn", "en", ["y"])

    def test_subprocess_reply_not_an_object(self):
        replier = "import sys\nfor line in sys.stdin:\n    print(5, flush=True)\n"
        with SubprocessClient([sys.executable, "-c", replier]) as client:
            with pytest.raises(ClientUnavailable, match="not a JSON object"):
                client.request("translate", "bn", "en", ["x"])

    @pytest.mark.parametrize("reply_id, good_replies", [("False", 0), ("rid and True", 1)])
    def test_subprocess_reply_id_must_be_an_int(self, reply_id, good_replies):
        # JSON false and true compare equal to 0 and 1, the ids of the first two requests.
        replier = (
            "import sys, json\n"
            "for line in sys.stdin:\n"
            "    rid = json.loads(line)['id']\n"
            f"    print(json.dumps({{'id': {reply_id}, 'text': 'y'}}), flush=True)\n"
        )
        with SubprocessClient([sys.executable, "-c", replier]) as client:
            for _ in range(good_replies):
                assert client.request("translate", "bn", "en", ["x"]) == ["y"]
            with pytest.raises(ClientUnavailable, match="out of order"):
                client.request("translate", "bn", "en", ["x"])

    def test_extra_reply_line_answers_the_next_request(self, monkeypatch):
        # A second line sent for one request is read, from the buffer, as the next reply.
        replier = (
            "import sys, json\n"
            "json.loads(sys.stdin.readline())\n"
            "print(json.dumps({'id': 0, 'text': 'a'}) + '\\n' + json.dumps({'id': 0, 'text': 'b'}), flush=True)\n"
            "sys.stdin.read()\n"
        )
        monkeypatch.setattr(reduce_module, "CLIENT_TIMEOUT_S", 30.0)
        with SubprocessClient([sys.executable, "-c", replier]) as client:
            assert client.request("translate", "bn", "en", ["x"]) == ["a"]
            with pytest.raises(ClientUnavailable, match=r"out of order \(sent id 1, got 0\)"):
                client.request("translate", "bn", "en", ["y"])

    def test_subprocess_reply_text_not_a_string(self):
        replier = (
            "import sys, json\n"
            "for line in sys.stdin:\n"
            "    print(json.dumps({'id': json.loads(line)['id'], 'text': None}), flush=True)\n"
        )
        with SubprocessClient([sys.executable, "-c", replier]) as client:
            with pytest.raises(ClientUnavailable, match="no string text"):
                client.request("translate", "bn", "en", ["x"])

    @pytest.mark.parametrize("client", [STALLS_SILENT, STALLS_MID_LINE], ids=["silent", "mid-line"])
    def test_unanswered_request_times_out(self, monkeypatch, client):
        monkeypatch.setattr(reduce_module, "CLIENT_TIMEOUT_S", 0.5)
        start = time.monotonic()
        with SubprocessClient([sys.executable, "-c", client], copies=2) as stalled:
            with pytest.raises(ClientUnavailable, match=r"^client sent no reply within 0\.5 s \(sent id 0\)$"):
                stalled.request("translate", "bn", "en", ["x", "y", "z"])
        assert time.monotonic() - start < 10.0

    def test_child_that_closes_stdout_but_runs_on(self, monkeypatch):
        monkeypatch.setattr(reduce_module, "CLIENT_CLOSE_WAIT_S", 0.5)
        child = "import os, time\nos.close(1)\ntime.sleep(60)\n"
        with SubprocessClient([sys.executable, "-c", child]) as client:
            with pytest.raises(ClientUnavailable, match=r"^client closed its pipes but did not exit within 0\.5 s$"):
                client.request("translate", "bn", "en", ["x"])
            assert client._copies[0].proc.returncode is not None

    def test_closed_copy_does_not_stall_the_others(self, monkeypatch):
        # Copy 1 closes stdout and runs on; copy 0 answers later. Waiting on copy 1
        # inside the loop would leave copy 0's reply unread until its deadline passed.
        monkeypatch.setattr(reduce_module, "CLIENT_TIMEOUT_S", 2.0)
        monkeypatch.setattr(reduce_module, "CLIENT_CLOSE_WAIT_S", 0.5)
        child = (
            "import json, os, sys, time\n"
            "request = json.loads(sys.stdin.readline())\n"
            "if request['text'] == 'close':\n"
            "    os.close(1)\n"
            "    time.sleep(60)\n"
            "time.sleep(0.3)\n"
            "print(json.dumps({'id': request['id'], 'text': request['text']}), flush=True)\n"
            "sys.stdin.read()\n"
        )
        start = time.monotonic()
        with SubprocessClient([sys.executable, "-c", child], copies=2) as client:
            with pytest.raises(ClientUnavailable, match=r"^client closed its pipes but did not exit within 0\.5 s$"):
                client.request("translate", "bn", "en", ["answer", "close"])
            assert all(copy.proc.returncode is not None for copy in client._copies)
        assert time.monotonic() - start < 10.0

    def test_close_waits_once_for_all_copies(self, monkeypatch):
        # Children that outlive their stdin are killed after one shared wait, not one wait each.
        monkeypatch.setattr(reduce_module, "CLIENT_CLOSE_WAIT_S", 1.0)
        client = SubprocessClient([sys.executable, "-c", "import time; time.sleep(60)"], copies=3)
        procs = [copy.proc for copy in client._copies]
        start = time.monotonic()
        client.close()
        assert time.monotonic() - start < 2.5
        assert all(proc.returncode is not None for proc in procs)

    def test_paraphrase_corrects_first(self, latin_dict):
        texts = ["the cat", "helo world"]
        client = identity_fixture(texts + ["hello world"])
        assert paraphrase(texts, client, latin_dict) == ["the cat", "hello world"]


class TestDispatcher:
    def test_spell(self, latin_dict):
        reduce_all = reducer(ReduceMethod.SPELL, dictionary=latin_dict)
        assert reduce_all(["the cat", "helo"], [0, 0]) == [
            "the cat", spell_correct("helo", latin_dict).corrected
        ]

    def test_mask_random_p_zero_identity(self, latin_dict):
        reduce_all = reducer(ReduceMethod.MASK_RANDOM_FILL, dictionary=latin_dict, mask_probability=0.0)
        # A mask literal already in the text is not filled: p = 0 is the identity.
        texts = ["any text here", f"ami {MASK_TOKEN} bhalo"]
        assert reduce_all(texts, [5, 5]) == texts

    def test_mask_random_p_zero_needs_no_filler(self, monkeypatch):
        def no_filler(cls, dictionary):
            raise AssertionError("p = 0 built a mask filler")

        monkeypatch.setattr(NgramMaskFiller, "from_dictionary", classmethod(no_filler))
        reduce_all = reducer(ReduceMethod.MASK_RANDOM_FILL, mask_probability=0.0)
        assert reduce_all(["any text"], [0]) == ["any text"]

    def test_each_method_matches_direct_call(self, latin_dict):
        texts, seeds = ["helo world", "the cat"], [7, 8]
        client = identity_fixture(texts + ["hello world"])
        filler = NgramMaskFiller.from_dictionary(latin_dict)

        def reduce_all(method):
            return reducer(method, latin_dict, client, mask_probability=0.3)(texts, seeds)

        assert reduce_all(ReduceMethod.SPELL) == [spell_correct(t, latin_dict).corrected for t in texts]
        assert reduce_all(ReduceMethod.SPELL_PARAPHRASE) == paraphrase(texts, client, latin_dict)
        assert reduce_all(ReduceMethod.BACK_TRANSLATE) == back_translate(texts, client)
        assert reduce_all(ReduceMethod.MASK_OOV_FILL) == [fill_masks(mask_oov(t, latin_dict), filler) for t in texts]
        assert reduce_all(ReduceMethod.MASK_RANDOM_FILL) == [
            fill_masks(mask_random(t, p=0.3, seed=s), filler) for t, s in zip(texts, seeds)
        ]

    def test_filler_built_only_for_mask_methods(self, latin_dict, monkeypatch):
        calls = []
        build = NgramMaskFiller.from_dictionary.__func__

        def counting(cls, dictionary):
            calls.append(dictionary)
            return build(cls, dictionary)

        monkeypatch.setattr(NgramMaskFiller, "from_dictionary", classmethod(counting))
        client = identity_fixture([])
        for method in ReduceMethod:
            reducer(method, latin_dict, client)
        assert len(calls) == 2

    def test_missing_resources(self):
        # Raised when the reducer is built, before any text; mask-random at its default p needs a filler.
        for method in ReduceMethod:
            with pytest.raises(MissingResource, match=f"method {method.value} needs a "):
                reducer(method)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_bad_probability_raised_when_built(self, latin_dict, p):
        with pytest.raises(Malformed):
            reducer(ReduceMethod.MASK_RANDOM_FILL, latin_dict, mask_probability=p)
