"""Seeded synthetic corpus generator for the noisekit benchmark.

Writes Bengali-script corpus TSVs with planted, labeled noise:

* ``mixed_language``   - Latin-script tokens inserted between words,
* ``spelling_error``   - one in-word consonant replaced by another consonant
  of the same articulation class (same phonetic code, edit distance 1),
* ``punctuation_error`` - a run of trailing punctuation,
* ``spacing_error``    - two adjacent words merged.

Every document carries at least one of these flags. Sentiment is learnable:
each document holds cue words of its class most of the time. For
deduplication the raw training corpus repeats a share of earlier rows under
new ids. For reduction the generator writes the matching clean truth corpus,
the dictionary, an embedding table, human tallies and a fixture JSONL whose
keys are the noisy texts exactly as the loader normalizes them.

Every text is built to be a fixed point of noisekit's load-time
normalization (NFC-stable characters, single spaces, no character the
punctuation table remaps), so what the program reads equals what is written
here. The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Noise columns in the corpus schema's bit order.
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
PLANTED = ("mixed_language", "spelling_error", "punctuation_error", "spacing_error")
NOISE_P = {"mixed_language": 0.3, "spelling_error": 0.45, "punctuation_error": 0.3, "spacing_error": 0.25}

# Consonants by articulation class, as in noisekit's packaged phonetic table.
# Nukta letters are left out because NFC decomposes them.
CLASSES = (
    "কখগঘ",
    "চছজঝ",
    "টঠডঢতথদধ",
    "নম",
    "শষস",
    "র",
    "ল",
    "পফবভ",
    "হ",
)
CONSONANTS = "".join(CLASSES)
CLASS_OF = {ch: i for i, group in enumerate(CLASSES) for ch in group}
VOWEL_SIGNS = ("", "", "া", "ি", "ী", "ু", "ূ", "ে", "ৈ")
INDEPENDENT_VOWELS = "অআইউএও"
LATIN = ("ok", "sorry", "vai", "please", "thanks", "super", "bad", "nice", "what", "link", "video", "hi")
TRAILING = ("!!", "??", "।!", "!?", ",,", "...")

SENTIMENTS = ("neutral", "positive", "negative")
# Class shares of the published corpus (2767 / 4948 / 4318), so the
# auto-computed class weights are not uniform.
SENTIMENT_SHARES = (2767, 4948, 4318)
CUES_PER_CLASS = 12
CUE_RATE = 0.8
EMBEDDING_DIM = 24
LEXICON_SEED = 0
# Words per clean text, before cue words and planted noise are added.
WORDS_MIN = 6
WORDS_MAX = 16
# The benchmark's input sizes. One pass over a workload's commands then takes
# 5-9 s on a 2-core machine.
SIZES = {
    "train_docs": 500,
    "test_docs": 200,
    "reduce_docs": 600,
    "client_docs": 300,
    "dup_share": 0.04,
    "lexicon_size": 3000,
}


def _word(rng: random.Random, syllables: int) -> str:
    out = []
    if rng.random() < 0.15:
        out.append(rng.choice(INDEPENDENT_VOWELS))
        syllables -= 1
    for _ in range(max(1, syllables)):
        out.append(rng.choice(CONSONANTS) + rng.choice(VOWEL_SIGNS))
    return "".join(out)


def _lexicon(rng: random.Random, size: int, taken: set) -> list[str]:
    words = []
    while len(words) < size:
        w = _word(rng, rng.choice((2, 2, 3, 3, 3, 4)))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


class _Zipf:
    """Rank-frequency sampler: P(rank r) proportional to 1 / (r + 2)."""

    def __init__(self, words: list[str]):
        self.words = words
        self.weights = [1.0 / (r + 2) for r in range(len(words))]
        total = 0.0
        self.cum = []
        for w in self.weights:
            total += w
            self.cum.append(total)

    def sample(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum, k=k)


class Generator:
    def __init__(self, seed: int, lexicon_size: int):
        # One fixed language for every seed; the seed draws the documents. A
        # per-seed lexicon would change mean word length, and with it every
        # size and time, from seed to seed.
        lexicon_rng = random.Random(LEXICON_SEED)
        taken: set = set()
        self.lexicon = _lexicon(lexicon_rng, lexicon_size, taken)
        self.cues = [_lexicon(lexicon_rng, CUES_PER_CLASS, taken) for _ in SENTIMENTS]
        self.rng = random.Random(seed)
        self.zipf = _Zipf(self.lexicon)
        self.vocab = set(self.lexicon) | {w for group in self.cues for w in group}
        self.seen_texts: set = set()

    def _clean(self, sentiment: int) -> list[str]:
        rng = self.rng
        words = self.zipf.sample(rng, rng.randint(WORDS_MIN, WORDS_MAX))
        if rng.random() < CUE_RATE:
            cue_class = sentiment
        else:
            cue_class = rng.randrange(len(SENTIMENTS))
        for _ in range(rng.choice((1, 1, 2))):
            words.insert(rng.randrange(len(words) + 1), rng.choice(self.cues[cue_class]))
        return words

    def _misspell(self, word: str) -> str | None:
        # The first letter is kept: the phonetic code keeps it verbatim.
        positions = [i for i in range(1, len(word)) if word[i] in CLASS_OF]
        self.rng.shuffle(positions)
        for i in positions:
            group = CLASSES[CLASS_OF[word[i]]]
            options = [c for c in group if c != word[i]]
            if not options:
                continue
            candidate = word[:i] + self.rng.choice(options) + word[i + 1 :]
            if candidate not in self.vocab:
                return candidate
        return None

    def _noisy(self, clean: list[str]) -> tuple[str, list[str]]:
        rng = self.rng
        kinds = [k for k in PLANTED if rng.random() < NOISE_P[k]]
        if not kinds:
            kinds = [rng.choice(PLANTED)]
        words = list(clean)
        applied = []
        for kind in PLANTED:
            if kind not in kinds:
                continue
            if kind == "spelling_error":
                done = False
                for i in rng.sample(range(len(words)), len(words)):
                    wrong = self._misspell(words[i])
                    if wrong is not None:
                        words[i] = wrong
                        done = True
                        break
                if not done:
                    continue
            elif kind == "mixed_language":
                for _ in range(rng.choice((1, 1, 2))):
                    words.insert(rng.randrange(len(words) + 1), rng.choice(LATIN))
            elif kind == "spacing_error":
                i = rng.randrange(len(words) - 1)
                words[i : i + 2] = [words[i] + words[i + 1]]
            applied.append(kind)
        text = " ".join(words) + (rng.choice(TRAILING) if "punctuation_error" in applied else "।")
        if not applied:
            # Only a failed misspelling can leave nothing applied; fall back to punctuation.
            applied = ["punctuation_error"]
            text = text[:-1] + rng.choice(TRAILING)
        return text, applied

    def document(self) -> tuple[str, str, str, str]:
        """(noisy text, clean text, sentiment, noise bits), unique by noisy text."""
        while True:
            sentiment = self.rng.choices(range(len(SENTIMENTS)), weights=SENTIMENT_SHARES)[0]
            clean = self._clean(sentiment)
            text, applied = self._noisy(clean)
            if text not in self.seen_texts:
                self.seen_texts.add(text)
                bits = "".join("1" if name in applied else "0" for name in NOISE_CLASSES)
                return text, " ".join(clean) + "।", SENTIMENTS[sentiment], bits


def _write_corpus(path: Path, rows) -> None:
    lines = ["id\ttext\tsentiment\tnoise"]
    lines.extend("\t".join(row) for row in rows)
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _word_tokens(text: str) -> list[str]:
    return [w.strip("।!?,.") for w in text.split() if w.strip("।!?,.")]


def generate(out_dir, seed: int, *, train_docs: int, test_docs: int, reduce_docs: int,
             client_docs: int, dup_share: float, lexicon_size: int) -> dict:
    """Write every benchmark input under out_dir and return its input properties."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gen = Generator(seed, lexicon_size)
    rng = gen.rng

    train = [gen.document() for _ in range(train_docs)]
    test = [gen.document() for _ in range(test_docs)]
    reduce_rows = [gen.document() for _ in range(reduce_docs)]

    # Raw training corpus: duplicates repeat an earlier row under a new id;
    # half of them carry extra spaces that load-time normalization collapses.
    raw = [(f"t{i}", text, senti, bits) for i, (text, _, senti, bits) in enumerate(train)]
    n_dups = round(dup_share * train_docs)
    for j in range(n_dups):
        pos = rng.randrange(1, len(raw) + 1)
        source = raw[rng.randrange(pos)]
        text = source[1].replace(" ", "  ", 1) if j % 2 else source[1]
        raw.insert(pos, (f"dup{j}", text, source[2], source[3]))
    _write_corpus(out / "raw.tsv", raw)
    _write_corpus(out / "test.tsv", [(f"v{i}", t, s, b) for i, (t, _, s, b) in enumerate(test)])

    _write_corpus(out / "noisy.tsv", [(f"r{i}", t, s, b) for i, (t, _, s, b) in enumerate(reduce_rows)])
    _write_corpus(out / "truth.tsv", [(f"r{i}", c, s, b) for i, (_, c, s, b) in enumerate(reduce_rows)])
    _write_corpus(
        out / "client.tsv",
        [(f"r{i}", t, s, b) for i, (t, _, s, b) in enumerate(reduce_rows[:client_docs])],
    )

    counts = {w: 0 for w in gen.lexicon}
    for word in gen.zipf.sample(rng, 50 * lexicon_size):
        counts[word] += 1
    for group in gen.cues:
        for word in group:
            counts[word] = 40
    dict_lines = ["# synthetic Bengali-script dictionary: word<TAB>frequency"]
    dict_lines.extend(f"{w}\t{c + 1}" for w, c in counts.items())
    (out / "dictionary.tsv").write_bytes(("\n".join(dict_lines) + "\n").encode("utf-8"))

    emb_lines = [f"{len(counts)} {EMBEDDING_DIM}"]
    for word in counts:
        emb_lines.append(word + " " + " ".join(f"{rng.gauss(0.0, 1.0):.5f}" for _ in range(EMBEDDING_DIM)))
    (out / "embeddings.txt").write_bytes(("\n".join(emb_lines) + "\n").encode("utf-8"))

    tallies = {m: [rng.randint(40, 95), 100] for m in ("backtranslate", "mask-oov", "mask-random", "spell")}
    (out / "human.json").write_bytes(json.dumps(tallies, sort_keys=True).encode("utf-8"))

    # Fixture: the pivot text is the word order reversed; translating it back
    # yields the clean truth text, as a perfect translator would.
    fixture_lines = []
    for text, clean, _, _ in reduce_rows:
        pivot = " ".join(reversed(text.split()))
        fixture_lines.append(json.dumps(
            {"task": "translate", "src": "bn", "tgt": "en", "text_in": text, "text_out": pivot},
            ensure_ascii=False, sort_keys=True))
        fixture_lines.append(json.dumps(
            {"task": "translate", "src": "en", "tgt": "bn", "text_in": pivot, "text_out": clean},
            ensure_ascii=False, sort_keys=True))
    (out / "fixture.jsonl").write_bytes(("\n".join(fixture_lines) + "\n").encode("utf-8"))

    vocab = set(counts)
    tokens = [w for text, _, _, _ in reduce_rows for w in _word_tokens(text)]
    oov = sum(1 for w in tokens if w not in vocab)
    words_per_text = [len(_word_tokens(t)) for t, _, _, _ in train]
    return {
        "seed": seed,
        "train_raw_docs": len(raw),
        "train_docs": train_docs,
        "duplicates": n_dups,
        "duplicate_share": round(n_dups / len(raw), 4),
        "test_docs": test_docs,
        "reduce_docs": reduce_docs,
        "client_docs": client_docs,
        "words_per_text": {"min": min(words_per_text), "max": max(words_per_text),
                           "mean": round(sum(words_per_text) / len(words_per_text), 2)},
        "dictionary_words": len(vocab),
        "oov_rate": round(oov / len(tokens), 4),
        "noise_share": {
            k: round(sum(1 for _, _, _, b in train if b[NOISE_CLASSES.index(k)] == "1") / train_docs, 4)
            for k in PLANTED
        },
    }

