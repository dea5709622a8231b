from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlalign.rand import Xorshift64Star
from xlalign.evaluation import accuracy_curve
from xlalign.text import (UNK, NoiseParams, ParallelCorpus, build_vocab,
                          corrupt, load_dictionary, load_parallel, load_word2vec,
                          make_splits, save_word2vec, sif_weight, tokenize)

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
        assert v.id_of("b") == UNK
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


class TestCorrupt:
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
    def _write(self, tmp_path, name, lines):
        p = tmp_path / name
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return p

    def test_three_line_pairing(self, tmp_path):
        src = self._write(tmp_path, "a.txt", ["ein haus", "zwei", "drei hunde bellen"])
        tgt = self._write(tmp_path, "b.txt", ["a house", "two", "three dogs bark"])
        corpus = load_parallel(src, tgt, "de", "en")
        assert len(corpus) == 3
        assert corpus.pairs[0] == (["ein", "haus"], ["a", "house"])
        assert (corpus.src_lang, corpus.tgt_lang) == ("de", "en")

    def test_line_count_mismatch(self, tmp_path):
        src = self._write(tmp_path, "a.txt", ["x", "y", "z"])
        tgt = self._write(tmp_path, "b.txt", ["1", "2", "3", "4"])
        with pytest.raises(ValueError, match="3.*4"):
            load_parallel(src, tgt, "de", "en")

    def test_empty_line_skipped_and_counted(self, tmp_path):
        src = self._write(tmp_path, "a.txt", ["eins", "", "drei"])
        tgt = self._write(tmp_path, "b.txt", ["one", "two", "three"])
        corpus = load_parallel(src, tgt, "de", "en")
        assert len(corpus) == 2
        assert corpus.skipped == 1


def curve_training_sets(n, sizes):
    """The training pairs `accuracy_curve` hands its model factory, split by split."""
    corpus = ParallelCorpus([([f"s{i}"], [f"t{i}"]) for i in range(n)], "de", "en")
    seen = []

    def embed(sentences):
        return np.eye(len(sentences)) + 1.0

    def factory(train_pairs):
        seen.append(list(train_pairs))
        return embed, embed
    accuracy_curve(factory, corpus, make_splits(n, sizes), [("de", "en")],
                   [(["held-out"], ["a"]), (["held-out"], ["b"])])
    return corpus, seen


class TestSplits:
    def test_prefix_rule(self):
        assert make_splits(10, (2, 5)) == [2, 5]
        corpus, seen = curve_training_sets(10, [2, 5])
        assert seen == [corpus.pairs[:2], corpus.pairs[:5]]

    def test_not_increasing_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            make_splits(10, [5, 2])

    def test_oversized_split_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            make_splits(10, [5, 20])

    def test_full_grid_on_million_pair_corpus(self):
        grid = [s * 1000 for s in (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)]
        assert make_splits(1_000_000, grid) == [1000, 2000, 5000, 10000, 20000, 50000,
                                                100000, 200000, 500000, 1000000]

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

    def test_dictionary(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("hund dog\nkatze cat\n\n")
        assert load_dictionary(path) == [("hund", "dog"), ("katze", "cat")]
        bad = tmp_path / "bad.txt"
        bad.write_text("a b c\n")
        with pytest.raises(ValueError, match="two words"):
            load_dictionary(bad)
