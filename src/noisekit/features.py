"""TF-IDF featurization over character and/or word n-grams.

A corpus is featurized once into a `FeatureMatrix`: CSR rows of unit-L2
tf-idf weights (or an empty row when a document has no known term), with
the model's dimension attached. The smoothed idf variant is
``ln((1 + N) / (1 + df)) + 1`` so no weight is ever zero or infinite, and tf
is the raw term count. Feature indices are assigned by lexicographic term
order, which makes fitting order-independent and fully deterministic.

In combined char+word mode the two term spaces are kept apart by tagging
terms with a ``c␟`` / ``w␟`` prefix (the tag separator cannot occur
in normalized text), so a word unigram never collides with the equal
one-character gram.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, field
from itertools import repeat

from . import textcore
from ._lazy import np
from .errors import DimensionMismatch, InsufficientData, Malformed

_CHAR_TAG = "c" + textcore.NGRAM_JOIN
_WORD_TAG = "w" + textcore.NGRAM_JOIN
# Texts per `transform` chunk. With 8, the chunk's temporaries reuse the same
# heap chunk after chunk; with 16 to 64 they left 0.15-0.5 MiB more resident at
# a train command's peak.
_TRANSFORM_CHUNK = 8


class AnalyzerMode(enum.Enum):
    CHAR = "char"
    WORD = "word"
    CHAR_PLUS_WORD = "char+word"


@dataclass(frozen=True)
class AnalyzerConfig:
    mode: AnalyzerMode = AnalyzerMode.CHAR
    n_min: int = 1
    n_max: int = 4

    def __post_init__(self):
        if not isinstance(self.mode, AnalyzerMode):
            raise Malformed(f"mode must be an AnalyzerMode, got {self.mode!r}")
        # `type(...) is int` also rejects bool, a subclass of int.
        if not (type(self.n_min) is int and type(self.n_max) is int):
            raise Malformed(f"n_min and n_max must be integers, got {self.n_min!r}, {self.n_max!r}")
        if not 1 <= self.n_min <= self.n_max <= 8:
            raise Malformed(f"need 1 <= n_min <= n_max <= 8, got {self.n_min}, {self.n_max}")


@dataclass(frozen=True)
class FeatureMatrix:
    """CSR corpus matrix: row i is ``indices``/``values`` over ``indptr[i]:indptr[i + 1]``.

    Indices strictly increase within a row and no zero is stored.
    """

    indptr: np.ndarray  # (rows + 1,) int64
    indices: np.ndarray  # (nnz,) int64
    values: np.ndarray  # (nnz,) float64
    dim: int

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]


def analyzer_terms(text: str, config: AnalyzerConfig) -> list[str]:
    """Term stream for one document under the given analyzer mode."""
    if config.mode is AnalyzerMode.CHAR:
        return textcore.char_ngrams(text, config.n_min, config.n_max)
    if config.mode is AnalyzerMode.WORD:
        return textcore.word_ngrams(textcore.tokenize(text), config.n_min, config.n_max)
    chars = textcore.char_ngrams(text, config.n_min, config.n_max)
    words = textcore.word_ngrams(textcore.tokenize(text), config.n_min, config.n_max)
    return [_CHAR_TAG + g for g in chars] + [_WORD_TAG + g for g in words]


def _smoothed_idf(corpus_size: int, df: np.ndarray) -> np.ndarray:
    """idf = ln((1 + N) / (1 + df)) + 1 per term, evaluated once per distinct df value."""
    values, inverse = np.unique(df, return_inverse=True)
    table = np.array(
        [math.log((1 + corpus_size) / (1 + int(v))) + 1.0 for v in values], dtype=np.float64
    )
    return table[inverse]


@dataclass
class TfidfModel:
    """Vocabulary plus per-term document frequency; ``idf`` is derived from ``df``."""

    vocabulary: dict[str, int]
    df: np.ndarray  # (dim,) int64, in index order
    config: AnalyzerConfig
    corpus_size: int
    idf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.idf = _smoothed_idf(self.corpus_size, self.df)

    @property
    def dim(self) -> int:
        return len(self.vocabulary)


def fit_tfidf(texts: list[str], config: AnalyzerConfig, min_df: int = 1) -> TfidfModel:
    """Build vocabulary and document frequencies from a corpus of texts.

    Terms found in fewer than `min_df` texts are dropped. idf(t) =
    ln((1 + N) / (1 + df(t))) + 1; indices are assigned by lexicographic
    term order, so shuffling the corpus yields an identical model.
    """
    if min_df < 1:
        raise Malformed(f"min_df must be >= 1, got {min_df}")
    if not texts:
        raise InsufficientData("cannot fit a TF-IDF model on an empty corpus")
    df: dict[str, int] = {}
    for text in texts:
        for term in set(analyzer_terms(text, config)):
            df[term] = df.get(term, 0) + 1
    if min_df > 1:
        df = {t: c for t, c in df.items() if c >= min_df}
    n = len(texts)
    if not df:
        raise InsufficientData(f"no term occurs in at least min_df={min_df} of {n} documents")
    terms = sorted(df)
    return TfidfModel(
        vocabulary={term: i for i, term in enumerate(terms)},
        df=np.fromiter((df[t] for t in terms), dtype=np.int64, count=len(terms)),
        config=config,
        corpus_size=n,
    )


def transform(model: TfidfModel, texts: list[str]) -> FeatureMatrix:
    """Featurize texts, one row each: tf * idf, then L2-normalized.

    Texts are counted `_TRANSFORM_CHUNK` at a time: a C-level `map` looks every
    term up (-1 when unknown), and sorting ``row * dim + index`` over the chunk's
    known terms gives each row's term counts with its indices in increasing order.
    """
    lookup, dim, idf = model.vocabulary.get, model.dim, model.idf
    indptr, indices, values = array("q", [0]), array("q"), array("d")
    for start in range(0, len(texts), _TRANSFORM_CHUNK):
        ids, lengths = [], []
        for text in texts[start : start + _TRANSFORM_CHUNK]:
            terms = analyzer_terms(text, model.config)
            ids.extend(map(lookup, terms, repeat(-1)))
            lengths.append(len(terms))
        term_ids = np.array(ids, dtype=np.int64)
        term_rows = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        known = term_ids >= 0
        keys = term_rows[known] * dim + term_ids[known]
        # argsort, bincount and a list round trip for the counts, not np.unique,
        # searchsorted and an int-to-float cast: each of those maps numpy code no
        # other step of a train command runs, and raises its peak RSS.
        keys = keys[keys.argsort()]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        rows, row_idx = np.divmod(keys[starts], dim)
        row_val = np.array(np.diff(starts, append=len(keys)).tolist(), dtype=np.float64) * idf[row_idx]
        ends = np.bincount(rows, minlength=len(lengths)).cumsum().tolist()
        for lo, hi in zip([0, *ends], ends):
            row = row_val[lo:hi]
            # numpy's own pairwise sum, not BLAS ddot, whose order depends on the kernel.
            norm = math.sqrt((row * row).sum())
            if norm > 0:
                row /= norm
        offset = len(indices)
        indptr.extend(offset + end for end in ends)
        indices.frombytes(row_idx.tobytes())
        values.frombytes(row_val.tobytes())
    return FeatureMatrix(
        indptr=np.frombuffer(indptr, dtype=np.int64),
        indices=np.frombuffer(indices, dtype=np.int64),
        values=np.frombuffer(values, dtype=np.float64),
        dim=dim,
    )


def to_json(model: TfidfModel) -> dict:
    """JSON-ready bundle section; a term's index is its position in ``terms``."""
    return {
        "config": {
            "mode": model.config.mode.value,
            "n_min": model.config.n_min,
            "n_max": model.config.n_max,
        },
        "corpus_size": model.corpus_size,
        "terms": sorted(model.vocabulary, key=model.vocabulary.__getitem__),
        "df": model.df.tolist(),
    }


def from_json(section: dict) -> TfidfModel:
    """Inverse of `to_json`.

    Terms must be strings in strictly increasing order, and each term's df an
    integer in [1, corpus_size].
    """
    cfg = section["config"]
    config = AnalyzerConfig(mode=AnalyzerMode(cfg["mode"]), n_min=cfg["n_min"], n_max=cfg["n_max"])
    n = section["corpus_size"]
    if not (type(n) is int and n > 0):
        raise Malformed(f"corpus_size must be a positive integer, got {n!r}")
    terms, df = section["terms"], section["df"]
    if not (isinstance(terms, list) and set(map(type, terms)) <= {str}):
        raise Malformed("TF-IDF terms must be a list of strings")
    if not all(a < b for a, b in zip(terms, terms[1:])):
        raise Malformed("TF-IDF terms must be strictly increasing")
    if not isinstance(df, list):
        raise Malformed("df must be a list of integers")
    if len(df) != len(terms):
        raise DimensionMismatch(f"{len(df)} df values for {len(terms)} terms")
    if not (set(map(type, df)) <= {int} and 1 <= min(df, default=1) and max(df, default=n) <= n):
        raise Malformed(f"df values must be integers in [1, {n}]")
    return TfidfModel(
        vocabulary={term: i for i, term in enumerate(terms)},
        df=np.array(df, dtype=np.int64),
        config=config,
        corpus_size=n,
    )
