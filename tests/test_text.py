import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlalign.cipher import read_corpus_files
from xlalign.config import ConfigError, parse_config
from xlalign.rand import Xorshift64Star
from xlalign.evaluation import CLDCReport, CurvePoint, RetrievalReport
from xlalign.objectives import TRACE_HEADER
from xlalign.pipeline import evaluate_splits, materialize
from xlalign.text import (UNK, NoiseParams, ParallelCorpus, build_vocab,
                          corrupt, load_word2vec, save_word2vec, sif_weight, tokenize,
                          write_csv)

from conftest import toy_experiment
from test_rand import reference_stream


class TestTokenize:
    def test_sentence_with_period(self):
        assert tokenize("All birds fly.") == ["all", "birds", "fly", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_apostrophe_splits(self):
        assert tokenize("don't stop") == ["don", "'", "t", "stop"]

    def test_punctuation_runs(self):
        assert tokenize("wait... what?!") == ["wait", ".", ".", ".", "what", "?", "!"]

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_on_joined_output(self, line):
        once = tokenize(line)
        assert tokenize(" ".join(once)) == once


class TestVocab:
    def test_direct_counts(self):
        v = build_vocab([["a", "b"], ["a"]], min_count=1)
        assert len(v) == 6  # 4 reserved + a + b
        assert v.frequencies[v.token_to_id["a"]] == 2
        assert v.frequencies[v.token_to_id["b"]] == 1

    def test_min_count_threshold(self):
        v = build_vocab([["a", "b"], ["a"]], min_count=2)
        assert "b" not in v.token_to_id
        assert v.encode(["b"]) == [UNK]
        assert v.frequencies[UNK] == 1  # pooled OOV mass

    def test_total_equals_sum_of_frequencies(self):
        v = build_vocab([["a", "b", "c"], ["a", "b"], ["a"]], min_count=2)
        assert v.total_count == sum(v.frequencies) == 6

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_vocab([], min_count=1)

    def test_counts_match_counter_oracle(self):
        rng = Xorshift64Star(5)
        words = [f"t{i}" for i in range(40)]
        sentences = [[words[rng.randint(len(words))] for _ in range(1 + rng.randint(9))]
                     for _ in range(1000)]
        oracle = Counter(w for sentence in sentences for w in sentence)
        v = build_vocab(sentences, min_count=1)
        for w, c in oracle.items():
            assert v.frequencies[v.token_to_id[w]] == c
        assert v.total_count == sum(oracle.values())

    def test_encode_decode(self):
        v = build_vocab([["x", "y"]], min_count=1)
        assert [v.id_to_token[i] for i in v.encode(["x", "zzz"])] == ["x", "<unk>"]

    def test_encode_is_id_of_per_token(self):
        rng = Xorshift64Star(9)
        words = [f"t{i}" for i in range(30)] + ["<pad>", "<unk>", "<eos>"]
        sentences = [[words[rng.randint(len(words))] for _ in range(rng.randint(9))]
                     for _ in range(300)]
        v = build_vocab(sentences[:100], min_count=2)  # rare and unseen words are UNK
        for s in sentences:
            assert v.encode(s) == [v.token_to_id.get(t, UNK) for t in s]


class TestCorrupt:
    def test_corrupting_ids_gives_the_ids_of_the_corrupted_tokens(self):
        # the training loops corrupt id lists; corruption only moves and drops
        # positions, so it commutes with encoding
        draw = Xorshift64Star(3)
        words = [f"t{i}" for i in range(12)]
        sentences = [[words[draw.randint(12)] for _ in range(1 + draw.randint(9))]
                     for _ in range(200)]
        v = build_vocab(sentences, min_count=2)
        noise = NoiseParams(0.3, 0.4, seed=5)
        on_tokens, on_ids = Xorshift64Star(17), Xorshift64Star(17)
        for s in sentences:
            assert v.encode(corrupt(s, noise, on_tokens)) == corrupt(v.encode(s), noise, on_ids)

    def test_zero_noise_is_identity(self):
        s = ["a", "b", "c", "d"]
        assert corrupt(s, NoiseParams(0.0, 0.0, seed=1)) == s

    def test_full_deletion_retains_one(self):
        out = corrupt(["a", "b"], NoiseParams(p_del=1.0, p_swap=0.0, seed=3))
        assert len(out) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            corrupt([], NoiseParams())

    def test_seeded_trace_matches_rng_reference(self):
        # replay the documented draw order with an independent xorshift stream
        tokens = [f"w{i}" for i in range(10)]
        noise = NoiseParams(p_del=0.4, p_swap=0.5, seed=77)
        stream = [(u >> 11) / float(1 << 53) for u in reference_stream(77, 32)]
        expected = list(tokens)
        k = 0
        for i in range(0, 9, 2):
            if stream[k] < noise.p_swap:
                expected[i], expected[i + 1] = expected[i + 1], expected[i]
            k += 1
        drop = []
        for _ in range(10):
            drop.append(stream[k] < noise.p_del)
            k += 1
        if all(drop):
            drop[-1] = False
        expected = [t for t, d in zip(expected, drop) if not d]
        assert corrupt(tokens, noise) == expected

    @given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=12),
           st.floats(0, 1), st.floats(0, 1), st.integers(0, 2 ** 32))
    @settings(max_examples=200, deadline=None)
    def test_output_length_bounds(self, tokens, p_del, p_swap, seed):
        out = corrupt(tokens, NoiseParams(p_del, p_swap, seed))
        assert 1 <= len(out) <= len(tokens)
        assert Counter(out) <= Counter(tokens)  # only reorder/delete, never invent


class TestSifWeight:
    def test_symmetry_point(self):
        # p(w) == a -> weight one half
        assert sif_weight(3, 3000, a=1e-3) == pytest.approx(0.5)

    def test_zero_frequency_limit(self):
        assert sif_weight(0, 100, a=1e-3) == 1.0

    def test_direct_arithmetic(self):
        assert sif_weight(3, 1000, a=1e-3) == pytest.approx(0.25)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            sif_weight(0, 0, a=1e-3)

    @given(st.integers(0, 999), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_decreasing_in_frequency_and_in_range(self, freq, shift):
        total = 1000
        hi = sif_weight(freq, total, 1e-3)
        lo = sif_weight(min(freq + shift, total), total, 1e-3)
        assert 0.0 < lo < hi <= 1.0 or (lo == hi and freq + shift > total)


class TestParallel:
    """`cipher.read_corpus_files`: row i holds line i of each `<lang>.txt`."""

    def _write(self, tmp_path, name, lines):
        p = tmp_path / name
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return p

    def test_three_line_pairing(self, tmp_path):
        self._write(tmp_path, "de.txt", ["ein haus", "zwei", "drei hunde bellen"])
        self._write(tmp_path, "en.txt", ["a house", "two", "three dogs bark"])
        corpus = read_corpus_files(tmp_path, ("de", "en")).corpus
        assert len(corpus) == 3
        assert corpus.rows()[0] == (["ein", "haus"], ["a", "house"])
        assert corpus.langs == ("de", "en")
        assert read_corpus_files(tmp_path, ("en", "de")).corpus.rows()[0] == (
            ["a", "house"], ["ein", "haus"])

    def test_line_count_mismatch(self, tmp_path):
        de = self._write(tmp_path, "de.txt", ["x", "y", "z"])
        en = self._write(tmp_path, "en.txt", ["1", "2", "3", "4"])
        with pytest.raises(ConfigError, match=f"{de} has 3, {en} has 4"):
            read_corpus_files(tmp_path, ("de", "en"))

    def test_empty_line_skipped(self, tmp_path):
        self._write(tmp_path, "de.txt", ["eins", "", "drei", "vier"])
        self._write(tmp_path, "en.txt", ["one", "two", "three", " "])
        corpus = read_corpus_files(tmp_path, ("de", "en")).corpus
        assert corpus.rows() == [(["eins"], ["one"]), (["drei"], ["three"])]


class TestCorpus:
    ROWS = [(["a0"], ["b0"], ["c0"]), (["a1"], ["b1"], ["c1"]), (["a2"], ["b2"], ["c2"])]

    def test_rows_align_across_languages(self):
        corpus = ParallelCorpus(self.ROWS, "la", "lb", "lc")
        assert len(corpus) == 3 and corpus.langs == ("la", "lb", "lc")
        assert corpus["lb"] == [["b0"], ["b1"], ["b2"]]
        assert [lang for lang, _ in corpus.items()] == ["la", "lb", "lc"]
        tail = corpus[1:]
        assert tail.langs == corpus.langs and tail.rows() == self.ROWS[1:]

    def test_one_language_corpus(self):
        corpus = ParallelCorpus(zip([["x"], ["y", "z"]]), "la")
        assert len(corpus) == 2 and corpus["la"] == [["x"], ["y", "z"]]
        assert len(corpus[:0]) == 0

    def test_without_drops_rows_equal_in_every_language(self):
        corpus = ParallelCorpus(self.ROWS, "la", "lb", "lc")
        other = ParallelCorpus([(["a0"], ["b0"], ["c0"]), (["a1"], ["b1"], ["c9"])],
                               "la", "lb", "lc")
        assert corpus.without(other).rows() == self.ROWS[1:]

    @pytest.mark.parametrize("rows, langs, message", [
        ([(["a"], ["a"])], ("la", "la"), "distinct languages"),
        ([], (), "distinct languages"),
        ([(["a"], ["b"]), (["c"],)], ("la", "lb"), "one sentence per language"),
    ], ids=["repeated-language", "no-language", "short-row"])
    def test_malformed_corpus_rejected(self, rows, langs, message):
        with pytest.raises(ValueError, match=message):
            ParallelCorpus(rows, *langs)

    def test_unknown_language_named(self):
        with pytest.raises(KeyError, match="fr"):
            ParallelCorpus([(["a"], ["b"])], "la", "lb")["fr"]

    def test_benchmark_bindings(self):
        """`pairs`, `source_sentences` and `target_sentences` keep the pair-list view."""
        from xlalign.cipher import gen_cipher_corpus

        cc = gen_cipher_corpus(20, 6, (2, 4), seed=1)
        for corpus in (cc.corpus, ParallelCorpus(cc.corpus.pairs[:4], "lb", "la")):
            assert corpus.pairs == list(zip(corpus["lb"], corpus["la"]))
            assert corpus.source_sentences() == corpus["lb"]
            assert corpus.target_sentences() == corpus["la"]


def curve_training_sets(n, sizes):
    """The training rows each split of an evaluated curve is built from, in order."""
    exp, seen = toy_experiment(n, sizes)
    evaluate_splits(exp)
    return exp.data.train_corpus, seen


class TestSplits:
    def test_prefix_rule(self):
        corpus, seen = curve_training_sets(10, [2, 5])
        assert seen == [corpus.rows()[:2], corpus.rows()[:5]]

    def test_not_increasing_rejected(self):
        with pytest.raises(ConfigError, match="increasing"):
            parse_config("splits=5,2")

    def test_oversized_split_rejected(self):
        cfg = parse_config("cipher_sentences=30\ntest_size=10\nsplits=5,40")
        with pytest.raises(ConfigError, match=r"largest split 40 exceeds corpus size \d+$"):
            materialize(cfg)

    def test_nesting_property(self):
        _, seen = curve_training_sets(5000, [10, 100, 1000])
        for small, large in zip(seen, seen[1:]):
            assert len(small) < len(large) and large[:len(small)] == small


class TestEmbeddingFiles:
    def test_word2vec_round_trip(self, tmp_path, rng):
        words = ["alpha", "beta", "gamma"]
        mat = rng.normal(size=(3, 4))
        path = tmp_path / "vec.txt"
        save_word2vec(path, words, mat)
        w2, m2 = load_word2vec(path)
        assert w2 == words
        np.testing.assert_array_equal(m2, mat)

    def test_word2vec_trailing_space_and_bom(self, tmp_path):
        # fastText .vec files end each line with a space; some editors add a BOM
        path = tmp_path / "vec.vec"
        path.write_bytes("\ufeff2 3\nalpha 0.5 -1.0 2.0 \nbeta 1.0 0.0 -0.25 \n".encode("utf-8"))
        words, mat = load_word2vec(path)
        assert words == ["alpha", "beta"]
        np.testing.assert_array_equal(mat, [[0.5, -1.0, 2.0], [1.0, 0.0, -0.25]])

    def test_word2vec_bom_without_trailing_space(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_bytes("\ufeff1 2\nw 1.5 2.5\n".encode("utf-8"))
        assert load_word2vec(path)[0] == ["w"]

    def test_header_count_checked(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\nonly 0.1 0.2 0.3\n")
        with pytest.raises(ValueError, match="2 words"):
            load_word2vec(path)

    @pytest.mark.parametrize("body, line, message", [
        ("2 2\na 0.1 0.2\nb 0.3 zz\n", 3, "could not convert string to float: 'zz'"),
        ("2 2\na 0.1 0.2\nb 0.3\n", 3, "expected a word and 2 values, got 1 values after 'b'"),
        ("3 2\na 0.1 0.2\nb 0.3 0.4\n", 1, "header says 3 words, found 2"),
        ("2 x\na 0.1 0.2\n", 1, "is not '<count> <dim>'"),
        ("2 \u00b2\na 0.1 0.2\n", 1, "is not '<count> <dim>'"),  # a digit int() rejects
    ], ids=["non-numeric", "too-few-values", "count-mismatch", "bad-header",
            "non-ascii-digit-header"])
    def test_malformed_file_names_file_and_line(self, tmp_path, body, line, message):
        path = tmp_path / "vec.txt"
        path.write_text(body)
        with pytest.raises(ValueError) as info:
            load_word2vec(path)
        assert str(info.value).startswith(f"{path}:{line}: ")
        assert message in str(info.value)

    def test_non_utf8_file_names_file(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_bytes(b"1 2\n\xff 0.1 0.2\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: not UTF-8 text")):
            load_word2vec(path)

    def test_dictionary(self, tmp_path):
        (tmp_path / "de.txt").write_text("hund\n")
        (tmp_path / "en.txt").write_text("dog\n")
        path = tmp_path / "dict.en-de.txt"  # the pivot's word first
        path.write_text("dog hund\ncat katze\n\n")
        assert read_corpus_files(tmp_path, ("de", "en")).cipher is None
        assert read_corpus_files(tmp_path, ("de", "en"), dictionary=True).cipher == {
            "dog": "hund", "cat": "katze"}
        path.write_text("dog hund\na b c\n")
        with pytest.raises(ConfigError, match=f"{path}:2: expected two words a line, got 'a b c'"):
            read_corpus_files(tmp_path, ("de", "en"), dictionary=True)


def test_write_csv_headers_and_float_round_trip(tmp_path):
    value = 0.1 + 0.2  # 0.30000000000000004 needs all 17 significant digits
    reports = {
        "train.csv": (TRACE_HEADER, (0, "sdae", "la>la", value),
                      "step,objective,language_pair,value", "0,sdae,la>la,"),
        "curve.csv": (CurvePoint._fields, CurvePoint(100, "transfer", "lb>la", value),
                      "size,model,direction,accuracy", "100,transfer,lb>la,"),
        "retrieval.csv": (RetrievalReport._fields, RetrievalReport("lb>la", value, 50),
                          "direction,accuracy,n_queries", "lb>la,"),
        "cldc.csv": (CLDCReport._fields, CLDCReport("la", "lb", np.float64(value)),
                     "train_lang,test_lang,accuracy", "la,lb,"),
    }
    for name, (header, row, header_line, before) in reports.items():
        write_csv(tmp_path / name, header, [row])
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header_line
        assert lines[1].startswith(before + "0.30000000000000004")
        assert float(lines[1][len(before):].split(",")[0]) == value
