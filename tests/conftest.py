import random

import numpy as np
import pytest

from noisekit.features import FeatureMatrix
from noisekit.reduce import Dictionary, latin_test_phonetic_table
from noisekit.textcore import Document, NoiseLabelSet, SentimentLabel

# Latin-script corpus words used across the reduction and metric tests.
BASE_VOCAB = {
    "the": 50,
    "cat": 22,
    "dog": 9,
    "hello": 10,
    "world": 5,
    "bat": 7,
    "pad": 4,
    "tap": 3,
    "seat": 6,
    "note": 8,
    "tone": 2,
    "data": 12,
    "test": 11,
    "good": 14,
    "bad": 13,
}


@pytest.fixture(scope="session")
def latin_table():
    return latin_test_phonetic_table()


@pytest.fixture()
def latin_dict(latin_table):
    return Dictionary(dict(BASE_VOCAB), table=latin_table)


def make_docs(texts, sentiments=None, noises=None):
    docs = []
    for i, text in enumerate(texts):
        sentiment = None
        if sentiments is not None and sentiments[i] is not None:
            sentiment = SentimentLabel.from_name(sentiments[i])
        noise = None
        if noises is not None and noises[i] is not None:
            noise = NoiseLabelSet.from_bits(noises[i])
        docs.append(Document(id=f"d{i}", text=text, sentiment=sentiment, noise=noise))
    return docs


def random_word(rng: random.Random, alphabet="abdegikloprstz", max_len=8):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))


def csr(rows, dim=None):
    """FeatureMatrix from per-row (index, value) pairs; dim defaults to max index + 1."""
    indptr, indices, values = [0], [], []
    for pairs in rows:
        for i, v in sorted((int(i), float(v)) for i, v in pairs if v != 0.0):
            indices.append(i)
            values.append(v)
        indptr.append(len(indices))
    if dim is None:
        dim = max(indices, default=-1) + 1
    return FeatureMatrix(
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
        values=np.array(values, dtype=np.float64),
        dim=dim,
    )
