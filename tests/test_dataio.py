import json
import os
import random
import tracemalloc
from array import array

import numpy as np
import pytest

from noisekit import dataio
from noisekit.classify import LinearModel, ModelKind, TrainConfig, to_json, train_ovr_hinge
from noisekit.dataio import (
    CORPUS_HEADER,
    escape_field,
    load_corpus,
    load_dictionary,
    load_embeddings,
    load_fixture,
    load_model_bundle,
    load_rating_matrix,
    save_corpus,
    save_model_bundle,
    unescape_field,
)
from noisekit.errors import BadEncoding, DimensionMismatch, FixtureMiss, Malformed, MalformedMatrix
from noisekit.features import AnalyzerConfig, AnalyzerMode, TfidfModel, fit_tfidf, transform
from noisekit.metrics import EmbeddingTable
from noisekit.reduce import Dictionary
from noisekit.textcore import Document, NoiseLabelSet, SentimentLabel

from conftest import (
    BROKEN_BUNDLES,
    INT_DIGIT_LIMIT,
    distinct_rows_reference,
    edit_bundle,
    load_embeddings_reference,
    make_docs,
    outcome,
    read_bundle,
    repeated_rows_table,
)


def write(tmp_path, name, content, encoding="utf-8"):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding=encoding)
    return path


class TestEscaping:
    def test_round_trip(self):
        for text in ("plain", "tab\there", "back\\slash", "new\nline", "cr\rhere", "\\t"):
            assert unescape_field(escape_field(text)) == text

    def test_bad_escape(self):
        # The offset is the backslash's index; an escaped backslash is skipped whole.
        for text, offset in (("bad\\x", 3), ("trailing\\", 8), ("\\\\x\\", 3)):
            with pytest.raises(Malformed) as excinfo:
                unescape_field(text, path="c.tsv", line=7, column=2)
            message = f"c.tsv, line 7, column 2: bad escape sequence at offset {offset}"
            assert str(excinfo.value) == message


class TestLoadCorpus:
    def test_header_only(self, tmp_path):
        path = write(tmp_path, "c.tsv", CORPUS_HEADER + "\n")
        corpus = load_corpus(path)
        assert corpus.documents == []

    def test_schema_application(self, tmp_path):
        path = write(tmp_path, "c.tsv", CORPUS_HEADER + "\nr1\tsome text\tpositive\t0100000000\n")
        corpus = load_corpus(path)
        doc = corpus.documents[0]
        assert doc.id == "r1"
        assert doc.sentiment is SentimentLabel.POSITIVE
        assert doc.noise.names() == ("word_misuse",)

    def test_absent_labels(self, tmp_path):
        path = write(tmp_path, "c.tsv", CORPUS_HEADER + "\nr1\ttext\t-\t-\n")
        doc = load_corpus(path).documents[0]
        assert doc.sentiment is None and doc.noise is None

    def test_normalization_applied_by_default(self, tmp_path):
        path = write(tmp_path, "c.tsv", CORPUS_HEADER + "\nr1\ta  b\t-\t-\n")
        assert load_corpus(path).documents[0].text == "a b"
        assert load_corpus(path, normalize_text=False).documents[0].text == "a  b"

    @pytest.mark.parametrize(
        "row,column",
        [
            ("r1\ttext\tpositive\t0100000000\textra", 5),
            ("r1\ttext\tupbeat\t-", 3),
            ("r1\ttext\t-\t01", 4),
            ("r1\ttext\t-\t0000000000", 4),
            ("\ttext\t-\t-", 1),
        ],
    )
    def test_malformed_rows_report_location(self, tmp_path, row, column):
        path = write(tmp_path, "c.tsv", CORPUS_HEADER + "\n" + row + "\n")
        with pytest.raises(Malformed) as excinfo:
            load_corpus(path)
        assert excinfo.value.line == 2
        assert excinfo.value.column == column

    def test_duplicate_id(self, tmp_path):
        body = CORPUS_HEADER + "\nr1\ta\t-\t-\nr1\tb\t-\t-\n"
        with pytest.raises(Malformed) as excinfo:
            load_corpus(write(tmp_path, "c.tsv", body))
        assert excinfo.value.line == 3

    def test_bad_header(self, tmp_path):
        with pytest.raises(Malformed):
            load_corpus(write(tmp_path, "c.tsv", "id\ttext\n"))

    def test_bad_encoding(self, tmp_path):
        path = write(tmp_path, "c.tsv", (CORPUS_HEADER + "\nr1\t").encode() + b"\xff\xfe\t-\t-\n")
        with pytest.raises(BadEncoding):
            load_corpus(path)

    def test_empty_text_rejected(self, tmp_path):
        path = write(tmp_path, "c.tsv", CORPUS_HEADER + "\nr1\t \t-\t-\n")
        with pytest.raises(Malformed):
            load_corpus(path)


def random_corpus(rng):
    docs = []
    for i in range(rng.randint(0, 8)):
        length = rng.randint(1, 12)
        text = "".join(
            rng.choice("ab \t\\\nকা,!x") for _ in range(length)
        )
        if not text.strip("\t\n "):
            text = "x" + text
        sentiment = rng.choice([None, SentimentLabel.NEUTRAL, SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE])
        noise = None
        if rng.random() < 0.5:
            bits = "".join(rng.choice("01") for _ in range(10))
            if "1" not in bits:
                bits = "1" + bits[1:]
            noise = NoiseLabelSet.from_bits(bits)
        docs.append(Document(id=f"id{i}", text=text, sentiment=sentiment, noise=noise))
    return docs


class TestRoundTrip:
    def test_structural_and_byte_round_trip_fuzz(self, tmp_path):
        rng = random.Random(131)
        path = tmp_path / "fuzz.tsv"
        for _ in range(300):
            docs = random_corpus(rng)
            save_corpus(docs, path)
            loaded = load_corpus(path, normalize_text=False)
            assert loaded.documents == docs
            first_bytes = path.read_bytes()
            save_corpus(loaded.documents, path)
            assert path.read_bytes() == first_bytes

    def test_tab_escaped(self, tmp_path):
        docs = [Document(id="a", text="tab\there")]
        path = tmp_path / "c.tsv"
        save_corpus(docs, path)
        assert "tab\\there" in path.read_text(encoding="utf-8")
        assert load_corpus(path, normalize_text=False).documents[0].text == "tab\there"

    def test_resave_byte_identical(self, tmp_path):
        body = CORPUS_HEADER + "\nr1\tsome text\tpositive\t0100000000\nr2\tother\t-\t-\n"
        path = write(tmp_path, "c.tsv", body)
        loaded = load_corpus(path)
        out = tmp_path / "again.tsv"
        save_corpus(loaded.documents, out)
        assert out.read_bytes() == path.read_bytes()


class TestDictionaryLoader:
    def test_two_word_file(self, tmp_path):
        d = load_dictionary(write(tmp_path, "d.tsv", "hello\t10\nworld\t5\n"))
        assert d.freq == {"hello": 10, "world": 5}

    def test_default_frequency(self, tmp_path):
        d = load_dictionary(write(tmp_path, "d.tsv", "hello\nworld\t7\n"))
        assert d.freq == {"hello": 1, "world": 7}

    def test_duplicate_words_accumulate(self, tmp_path):
        d = load_dictionary(write(tmp_path, "d.tsv", "a\t2\na\t3\n"))
        assert d.freq == {"a": 5}

    def test_bad_frequency(self, tmp_path):
        with pytest.raises(Malformed) as excinfo:
            load_dictionary(write(tmp_path, "d.tsv", "a\tmany\n"))
        assert excinfo.value.line == 1

    def test_phonetic_index_built_eagerly(self, latin_table):
        d = Dictionary({"abba": 1}, table=latin_table)
        assert d.phonetic_index == {"A100": ["abba"]}


class TestEmbeddingLoader:
    def test_good_file(self, tmp_path):
        path = write(tmp_path, "e.txt", "2 3\ncat 1.0 0.0 0.5\ndog 0.0 1.0 -0.5\n")
        table = load_embeddings(path)
        assert isinstance(table, EmbeddingTable)
        assert table.index == {"cat": 0, "dog": 1}
        assert (table.values.typecode, table.dim) == ("d", 3)
        assert table.values.tolist() == [1.0, 0.0, 0.5, 0.0, 1.0, -0.5]

    def test_empty_table(self, tmp_path):
        table = load_embeddings(write(tmp_path, "e.txt", "0 3\n"))
        assert table == EmbeddingTable(array("d"), 3, {})

    def test_bad_encoding_names_the_absolute_byte(self, tmp_path):
        content = "2 2\ncat 1.0 0.0\n".encode() + b"d\xffg 0.0 1.0\n"
        path = write(tmp_path, "e.txt", content)
        invalid = content.index(b"\xff")
        with pytest.raises(BadEncoding) as excinfo:
            load_embeddings(path)
        assert str(excinfo.value) == f"{path}: not valid UTF-8 at byte {invalid}"

    @pytest.mark.parametrize("bad_line", [
        "dog 0.0\n",  # DimensionMismatch
        "cat 0.0 1.0\n",  # duplicate word
        "dog 0.0 nan\n",  # non-finite
        "\n",  # blank line
    ])
    def test_invalid_byte_after_a_bad_line_wins(self, tmp_path, bad_line):
        # Decoded whole, the file failed on its encoding before any line was parsed.
        content = f"4 2\ncat 1.0 0.0\n{bad_line}pet 1.0 1.0\n".encode() + "ভালো 0.5 0.".encode() + b"\xe0\n"
        path = write(tmp_path, "e.txt", content)
        with pytest.raises(BadEncoding) as excinfo:
            load_embeddings(path)
        assert str(excinfo.value) == f"{path}: not valid UTF-8 at byte {len(content) - 2}"

    def test_same_table_or_first_error_as_whole_file_decoding(self, tmp_path):
        rng = random.Random(211)
        path = tmp_path / "e.txt"
        faults = [b"", b"\n", b"\xff", b"\xe0\xa6", b"nan", b" ", b"\r", b"x", b"0", "ভ".encode()]
        for _ in range(600):
            dim = rng.randint(1, 3)
            lines = [f"{rng.randint(0, 4)} {dim}".encode()]
            for _ in range(rng.randint(0, 4)):
                word = rng.choice(["cat", "dog", "pet", "ভালো", "x"]).encode()
                components = [repr(rng.uniform(-2, 2)).encode() for _ in range(dim)]
                lines.append(b" ".join([word, *components]))
            for _ in range(rng.randint(0, 2)):  # a fault spliced into a random place
                line = rng.randrange(len(lines))
                at = rng.randint(0, len(lines[line]))
                lines[line] = lines[line][:at] + rng.choice(faults) + lines[line][at:]
            path.write_bytes(b"\n".join(lines) + rng.choice([b"", b"\n", b"\n\n"]))
            assert outcome(load_embeddings, path) == outcome(load_embeddings_reference, path), lines

    def test_reads_one_line_at_a_time(self, tmp_path):
        # Beyond the table it returns, the load's peak holds a line, not the file: decoded
        # whole and split, the file's text was held twice at once.
        rng = random.Random(223)
        rows = [f"w{i} " + " ".join(repr(rng.random()) for _ in range(8)) for i in range(4000)]
        path = write(tmp_path, "e.txt", f"{len(rows)} 8\n" + "\n".join(rows) + "\n")
        tracemalloc.start()
        try:
            table = load_embeddings(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table.index) == 4000
        assert peak - kept < path.stat().st_size / 10

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
    def test_non_finite_component(self, tmp_path, component):
        path = write(tmp_path, "e.txt", f"2 2\ncat 1.0 0.0\ndog 0.5 {component}\n")
        with pytest.raises(Malformed, match="non-finite") as excinfo:
            load_embeddings(path)
        assert (excinfo.value.path, excinfo.value.line) == (path, 3)

    def test_dimension_mismatch(self, tmp_path):
        path = write(tmp_path, "e.txt", "2 3\ncat 1.0 0.0\ndog 0.0 1.0 -0.5\n")
        with pytest.raises(DimensionMismatch) as excinfo:
            load_embeddings(path)
        assert (excinfo.value.path, excinfo.value.line) == (path, 2)
        assert str(excinfo.value) == f"{path}, line 2: expected 3 components, got 2"

    def test_row_count_mismatch(self, tmp_path):
        with pytest.raises(Malformed):
            load_embeddings(write(tmp_path, "e.txt", "2 2\ncat 1.0 0.0\n"))

    def test_duplicate_word(self, tmp_path):
        with pytest.raises(Malformed):
            load_embeddings(write(tmp_path, "e.txt", "2 1\ncat 1.0\ncat 2.0\n"))

    def test_bad_header(self, tmp_path):
        with pytest.raises(Malformed):
            load_embeddings(write(tmp_path, "e.txt", "banana\n"))


class TestFixtureLoader:
    def test_load_and_request(self, tmp_path):
        line = '{"task": "translate", "src": "bn", "tgt": "en", "text_in": "a", "text_out": "A"}'
        client = load_fixture(write(tmp_path, "f.jsonl", line + "\n"))
        assert client.request("translate", "bn", "en", ["a", "a"]) == ["A", "A"]
        with pytest.raises(FixtureMiss):
            client.request("translate", "bn", "en", ["a", "b"])

    def test_duplicate_key_last_wins_with_warning(self, tmp_path):
        lines = (
            '{"task": "translate", "src": "bn", "tgt": "en", "text_in": "a", "text_out": "first"}\n'
            '{"task": "translate", "src": "bn", "tgt": "en", "text_in": "a", "text_out": "second"}\n'
        )
        with pytest.warns(UserWarning, match="duplicate"):
            client = load_fixture(write(tmp_path, "f.jsonl", lines))
        assert client.request("translate", "bn", "en", ["a"]) == ["second"]

    def test_missing_field(self, tmp_path):
        with pytest.raises(Malformed) as excinfo:
            load_fixture(write(tmp_path, "f.jsonl", '{"task": "translate"}\n'))
        assert excinfo.value.line == 1

    def test_invalid_json(self, tmp_path):
        with pytest.raises(Malformed):
            load_fixture(write(tmp_path, "f.jsonl", "{not json}\n"))

    @pytest.mark.parametrize("line, message", [
        ("5", "must be a JSON object"),
        ('["task"]', "must be a JSON object"),
        ('{"task": "translate", "src": "bn", "tgt": "en", "text_in": "a", "text_out": 5}', "must be strings"),
        ('{"task": "translate", "src": "bn", "tgt": "en", "text_in": ["a"], "text_out": "b"}', "must be strings"),
    ])
    def test_entry_shape_rejected_with_line(self, tmp_path, line, message):
        good = '{"task": "translate", "src": "bn", "tgt": "en", "text_in": "x", "text_out": "y"}'
        with pytest.raises(Malformed, match=message) as excinfo:
            load_fixture(write(tmp_path, "f.jsonl", f"{good}\n\n{line}\n"))
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("line", [
        pytest.param("[" * 100_000, id="nested-past-the-recursion-limit"),
        pytest.param("1" * (INT_DIGIT_LIMIT + 1), id="integer-past-the-digit-limit", marks=pytest.mark.skipif(
            not INT_DIGIT_LIMIT, reason="this interpreter parses integers of any length")),
    ])
    def test_json_past_the_parser_limits_rejected_with_line(self, tmp_path, line):
        good = '{"task": "translate", "src": "bn", "tgt": "en", "text_in": "x", "text_out": "y"}'
        path = write(tmp_path, "f.jsonl", f"{good}\n\n{line}\n")
        with pytest.raises(Malformed, match="invalid JSON: ") as excinfo:
            load_fixture(path)
        assert (excinfo.value.path, excinfo.value.line) == (path, 3)


class TestRatingMatrixLoader:
    def test_load(self, tmp_path):
        path = write(tmp_path, "m.tsv", "yes\tno\n3\t1\n2\t2\n")
        matrix = load_rating_matrix(path)
        assert matrix.counts.tolist() == [[3, 1], [2, 2]]
        assert matrix.raters_per_item == 4

    def test_ragged_row(self, tmp_path):
        with pytest.raises(Malformed):
            load_rating_matrix(write(tmp_path, "m.tsv", "a\tb\n1\n"))

    def test_error_names_file_line_past_blank_lines(self, tmp_path):
        with pytest.raises(Malformed, match="counts must be integers") as excinfo:
            load_rating_matrix(write(tmp_path, "m.tsv", "a\tb\n\n3\t1\n\nx\t1\n"))
        assert excinfo.value.line == 5

    def test_invariant_violation_reported(self, tmp_path):
        with pytest.raises(MalformedMatrix):
            load_rating_matrix(write(tmp_path, "m.tsv", "a\tb\n3\t1\n2\t1\n"))


def small_bundle():
    docs = make_docs(["aab x", "bba y", "abab z"], noises=["1000000000", "0100000000", "1100000000"])
    texts = [d.text for d in docs]
    tfidf = fit_tfidf(texts, AnalyzerConfig(mode=AnalyzerMode.CHAR, n_min=1, n_max=2))
    model = train_ovr_hinge(transform(tfidf, texts), [d.noise for d in docs], TrainConfig(epochs=5))
    return tfidf, model


def hand_built_bundle(weights):
    """A sentiment bundle around given (D, 3) weights, with one term per row."""
    d, k = weights.shape
    tfidf = TfidfModel(
        vocabulary={f"t{i:03d}": i for i in range(d)},
        df=np.arange(d, dtype=np.int64) % 3 + 1,
        config=AnalyzerConfig(),
        corpus_size=3,
    )
    model = LinearModel(
        kind=ModelKind.SOFTMAX_WEIGHTED,
        weights=weights,
        bias=np.array([-0.0] + [0.5] * (k - 1)),
    )
    return tfidf, model


HAND_BUILT_WEIGHTS = {
    # rows 0, 2 and 4 repeat; rows 1 and 3 differ only in the sign of zero
    "repeated-and-signed-zero": np.array(
        [
            [1.5, -3.0, 0.5],
            [0.0, 0.0, 0.0],
            [1.5, -3.0, 0.5],
            [-0.0, 0.0, 0.0],
            [1.5, -3.0, 0.5],
            [2.0, 1e-300, 0.0],
        ]
    ),
    "one-term": np.array([[0.25, -0.0, 7.0]]),
}


def _swap_first_terms(tfidf):
    tfidf["terms"][:2] = tfidf["terms"][1::-1]


def _drop_last_term(tfidf):
    del tfidf["terms"][-1]
    del tfidf["df"][-1]


def _recode(linear, key, edit):
    """Apply `edit` to the raw bytes of an array of the linear section."""
    linear[key] = edit(linear[key])


def _sentiment_classifier(bundle, class_names):
    """Swap in a valid sentiment classifier of the same dimension, then set its class_names."""
    dim = len(bundle["tfidf"]["terms"])
    model = LinearModel(ModelKind.SOFTMAX_WEIGHTED, np.zeros((dim, 3)), np.zeros(3))
    rows, index = distinct_rows_reference(model.weights)
    bundle["linear"] = {**to_json(model), "distinct_rows": len(rows),
                        "columns": rows.tobytes(), "column_index": index.tobytes()}
    bundle["linear"]["class_names"] = class_names


def _index_past_end(linear):
    columns = linear["distinct_rows"]
    _recode(linear, "column_index", lambda raw: np.array([columns], dtype="<u4").tobytes() + raw[4:])


class TestModelBundle:
    def assert_loads_bit_identical(self, tmp_path, tfidf, model):
        path = tmp_path / "model.json"
        save_model_bundle(path, tfidf, model)
        tfidf2, model2 = load_model_bundle(path, model.kind)
        assert tfidf2.vocabulary == tfidf.vocabulary
        # tobytes, not array_equal: -0.0 == 0.0 would hide a lost sign
        assert model2.weights.tobytes() == model.weights.tobytes()
        assert model2.weights.shape == model.weights.shape
        assert model2.bias.tobytes() == model.bias.tobytes()
        assert tfidf2.idf.tobytes() == tfidf.idf.tobytes()
        assert np.array_equal(tfidf2.df, tfidf.df)

    def test_round_trip(self, tmp_path):
        self.assert_loads_bit_identical(tmp_path, *small_bundle())

    @pytest.mark.parametrize("name", sorted(HAND_BUILT_WEIGHTS))
    def test_round_trip_hand_built_weights(self, tmp_path, name):
        self.assert_loads_bit_identical(tmp_path, *hand_built_bundle(HAND_BUILT_WEIGHTS[name]))

    def test_repeated_columns_stored_once(self, tmp_path):
        tfidf, model = hand_built_bundle(HAND_BUILT_WEIGHTS["repeated-and-signed-zero"])
        path = tmp_path / "model.json"
        save_model_bundle(path, tfidf, model)
        linear = read_bundle(path)["linear"]
        assert linear["distinct_rows"] == 4 and len(linear["columns"]) == 4 * 3 * 8
        index = np.frombuffer(linear["column_index"], dtype="<u4")
        assert len(index) == 6 and index[0] == index[2] == index[4] != index[1] != index[3]

    def test_failed_save_keeps_the_old_bundle(self, tmp_path, monkeypatch):
        tfidf, model = small_bundle()
        path = tmp_path / "model.json"
        save_model_bundle(path, tfidf, model)
        old = path.read_bytes()
        # The featurizer's entry is encoded after the classifier's, so the write fails part-way.
        monkeypatch.setattr(dataio.features, "to_json", lambda tfidf: {"idf": object()})
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_model_bundle(path, tfidf, model)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["model.json"]

    def test_save_peak_memory_below_one_and_a_half_weight_tables(self, tmp_path):
        # The arrays are written from their buffers, so the write adds nothing to the peak of
        # about 1.24 tables of `_distinct_rows`; a text copy of the distinct rows would cross it.
        weights = repeated_rows_table()
        dim = len(weights)
        tfidf = TfidfModel(
            vocabulary={f"t{i:05d}": i for i in range(dim)},
            df=np.ones(dim, dtype=np.int64),
            config=AnalyzerConfig(),
            corpus_size=1,
        )
        model = LinearModel(ModelKind.OVR_HINGE, weights, np.zeros(10))
        tracemalloc.start()
        try:
            save_model_bundle(tmp_path / "model.json", tfidf, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * weights.nbytes

    def test_bad_version(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"version": "other"}', encoding="utf-8")
        with pytest.raises(Malformed):
            load_model_bundle(path, ModelKind.OVR_HINGE)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        tfidf, model = small_bundle()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_model_bundle(first, tfidf, model)
        tfidf2, model2 = load_model_bundle(first, model.kind)
        save_model_bundle(second, tfidf2, model2)
        assert first.read_bytes() == second.read_bytes()
        assert np.array_equal(tfidf2.idf, tfidf.idf)
        assert np.array_equal(model2.weights, model.weights)
        assert np.array_equal(model2.bias, model.bias)

    def test_one_document_with_sorted_terms_and_packed_weights(self, tmp_path):
        tfidf, model = small_bundle()
        path = tmp_path / "model.json"
        save_model_bundle(path, tfidf, model)
        payload = read_bundle(path)
        assert payload["version"] == "noisekit-bundle-v5"
        assert payload["tfidf"]["terms"] == sorted(tfidf.vocabulary)
        assert payload["tfidf"]["df"] == [int(v) for v in tfidf.df]
        assert "idf" not in payload["tfidf"] and "weights" not in payload["linear"]
        assert isinstance(payload["linear"]["columns"], bytes)
        assert isinstance(payload["linear"]["column_index"], bytes)
        # After the header line, the two arrays' little-endian bytes and nothing else.
        rows, index = distinct_rows_reference(model.weights)
        arrays = path.read_bytes().partition(b"\n")[2]
        assert arrays == rows.tobytes() + index.tobytes()

    def test_bundle_stores_only_what_loading_reads(self, tmp_path):
        tfidf, model = small_bundle()
        path = tmp_path / "model.json"
        save_model_bundle(path, tfidf, model)
        payload = json.loads(path.read_bytes().partition(b"\n")[0])
        assert set(payload) == {"version", "tfidf", "linear"}
        assert set(payload["tfidf"]) == {"config", "corpus_size", "terms", "df"}
        assert set(payload["tfidf"]["config"]) == {"mode", "n_min", "n_max"}
        assert set(payload["linear"]) == {"kind", "class_names", "biases", "distinct_rows"}

    @pytest.mark.parametrize(
        "corrupt, error, message",
        [
            (lambda b: b.update(version="noisekit-bundle-v2"), Malformed, "unsupported bundle version"),
            (lambda b: _swap_first_terms(b["tfidf"]), Malformed, "strictly increasing"),
            (lambda b: b["tfidf"]["df"].pop(), DimensionMismatch, "df values for"),
            (lambda b: b["tfidf"]["df"].__setitem__(0, 0), Malformed, "df values must be integers in"),
            (lambda b: b["tfidf"]["df"].__setitem__(0, 4), Malformed, r"integers in \[1, 3\]"),
            (lambda b: b["tfidf"]["df"].__setitem__(0, True), Malformed, "df values must be"),
            (lambda b: b["tfidf"]["df"].__setitem__(0, 1.0), Malformed, "df values must"),
            (lambda b: b["linear"].update(columns=b["linear"]["columns"][:-4]), DimensionMismatch, "weight bytes"),
            (lambda b: _recode(b["linear"], "column_index", lambda raw: raw + b"\0"), DimensionMismatch, "column index bytes"),
            (lambda b: _index_past_end(b["linear"]), Malformed, "out of range for"),
            # The arrays are checked before the classifier's JSON fields.
            (lambda b: (_index_past_end(b["linear"]), b["linear"]["class_names"].reverse()), Malformed, "out of range for"),
            (lambda b: _recode(b["linear"], "column_index", lambda raw: raw[:-4]), DimensionMismatch, r"featurizer has \d+ terms, classifier"),
            (lambda b: b["linear"]["biases"].pop(), DimensionMismatch, "bias count"),
            (lambda b: _drop_last_term(b["tfidf"]), DimensionMismatch, "featurizer has"),
            (lambda b: b["linear"].pop("kind"), Malformed, "KeyError"),
            (lambda b: b["tfidf"]["config"].update(mode="bytes"), Malformed, "ValueError"),
            (lambda b: b["tfidf"].update(corpus_size=10**400), Malformed, "OverflowError"),
            (lambda b: b["tfidf"].update(corpus_size=float("inf")), Malformed, "corpus_size must be a positive integer"),
            (lambda b: b["tfidf"].update(corpus_size=0), Malformed, "corpus_size must be"),
            (lambda b: b["tfidf"]["config"].update(n_max=True), Malformed, "n_min and n_max must be integers"),
            (lambda b: b["tfidf"]["terms"].__setitem__(-1, 10**6), Malformed, "terms must be a list of strings"),
            (lambda b: b["linear"].update(class_names=list(range(10))), Malformed, "class_names must be"),
            (lambda b: b["linear"]["class_names"].reverse(), Malformed, "class_names must be the ovr_hinge classes"),
            (lambda b: b["linear"].update(class_names="local_word"), Malformed, "got 'local_word'"),
            (lambda b: _sentiment_classifier(b, ["neutral", "neutral", "negative"]), Malformed, "class_names must be the softmax_weighted"),
            (lambda b: _sentiment_classifier(b, ["a", "b", "c"]), Malformed, r"got \['a', 'b', 'c'\]"),
            (lambda b: b["linear"]["biases"].__setitem__(0, "0.5"), Malformed, "biases must be finite numbers"),
            (lambda b: b["linear"]["biases"].__setitem__(0, float("-inf")), Malformed, "biases must be finite"),
            *(pytest.param(*case, id=name) for name, case in BROKEN_BUNDLES.items()),
        ],
    )
    def test_inconsistent_bundle_rejected(self, tmp_path, corrupt, error, message):
        tfidf, model = small_bundle()
        path = tmp_path / "model.json"
        save_model_bundle(path, tfidf, model)
        edit_bundle(path, corrupt)
        with pytest.raises(error, match=message) as excinfo:
            load_model_bundle(path, ModelKind.OVR_HINGE)
        assert str(path) in str(excinfo.value)
        assert excinfo.value.path == path

    def test_swapped_in_sentiment_classifier_loads(self, tmp_path):
        """Control for the class_names cases above: with the right names the bundle is valid."""
        tfidf, model = small_bundle()
        path = tmp_path / "model.json"
        save_model_bundle(path, tfidf, model)
        edit_bundle(path, lambda b: _sentiment_classifier(b, ["neutral", "positive", "negative"]))
        _, loaded = load_model_bundle(path, ModelKind.SOFTMAX_WEIGHTED)
        assert loaded.class_names == ("neutral", "positive", "negative")


class TestHumanTalliesLoader:
    def test_load(self, tmp_path):
        path = write(tmp_path, "h.json", '{"spell": [3, 4], "mask-oov": [0, 2]}')
        assert dataio.load_human_tallies(path) == {"spell": (3, 4), "mask-oov": (0, 2)}

    @pytest.mark.parametrize(
        "content", ['[1, 2]', '{"spell": [3]}', '{"spell": ["3", 4]}', '{"spell": [true, 4]}']
    )
    def test_wrong_shape(self, tmp_path, content):
        path = write(tmp_path, "h.json", content)
        with pytest.raises(Malformed, match="h.json"):
            dataio.load_human_tallies(path)

    def test_invalid_json(self, tmp_path):
        path = write(tmp_path, "h.json", '{"spell": [3, 4]')
        with pytest.raises(Malformed, match="invalid JSON"):
            dataio.load_human_tallies(path)
