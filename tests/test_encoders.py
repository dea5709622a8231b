import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlalign.autodiff import ParamSet
from xlalign.encoders import (encode_batch, encode_sentences, encode_sif, encode_sif_matrix,
                              new_encoder, pad_batch)
from xlalign.text import build_vocab, sif_weight

from conftest import encode_reference, lstm_step_reference


@pytest.fixture
def enc():
    return new_encoder(vocab_size=12, dim=5, hidden=4, lang="en", seed=3)


@pytest.fixture
def vocab():
    return build_vocab([[f"w{i}" for i in range(8)]], min_count=1)


def encode_ids(ids, enc):
    """encode_batch on a batch of one sentence of token ids -> (2H,)."""
    arr, mask, _ = pad_batch([ids])
    return encode_batch(arr, mask, ParamSet(enc, trainable=False)).data[0]


class TestBiLstmMaxpool:
    def test_single_token_is_concat_of_both_directions(self, enc):
        emb = encode_ids([5], enc)
        x = enc.embeddings[5]
        h_f, _ = lstm_step_reference(x, np.zeros(4), np.zeros(4),
                                     enc.fwd.w_in, enc.fwd.w_rec, enc.fwd.bias)
        h_b, _ = lstm_step_reference(x, np.zeros(4), np.zeros(4),
                                     enc.bwd.w_in, enc.bwd.w_rec, enc.bwd.bias)
        np.testing.assert_allclose(emb, np.concatenate([h_f, h_b]), atol=1e-12)

    def test_output_dim_is_twice_hidden(self, enc):
        assert encode_ids([1, 2, 3], enc).shape == (8,)
        assert enc.output_dim == 8

    def test_matches_scalar_reference(self, enc):
        ids = [2, 7, 4]
        emb = encode_ids(ids, enc)
        assert np.max(np.abs(emb - encode_reference(ids, enc))) < 1e-12

    def test_batched_equals_single(self, enc):
        # padding must not leak into shorter sentences' embeddings
        sents = [[1, 2, 3, 4, 5], [6], [7, 8], [9, 10, 11, 1, 2]]
        ids, mask, _ = pad_batch(sents)
        batched = encode_batch(ids, mask, ParamSet(enc, trainable=False)).data
        for i, s in enumerate(sents):
            single = encode_ids(s, enc)
            np.testing.assert_allclose(batched[i], single, atol=1e-12)

    def test_mixed_length_batch_matches_reference(self, enc):
        sents = [[4, 5, 6, 7, 8, 9], [10], [11, 4, 5], [6, 11], [7, 7, 7, 7, 7]]
        ids, mask, _ = pad_batch(sents)
        batched = encode_batch(ids, mask, ParamSet(enc, trainable=False)).data
        for i, s in enumerate(sents):
            assert np.max(np.abs(batched[i] - encode_reference(s, enc))) < 1e-12
        # inference runs the same kernels without a graph, bit for bit
        vocab = build_vocab([[f"t{i:02d}" for i in range(4, 12)]], min_count=1)
        tokens = [[vocab.id_to_token[i] for i in s] for s in sents]
        np.testing.assert_array_equal(encode_sentences(tokens, vocab, enc), batched)

    def test_maxpool_dominance(self, enc):
        # every output coordinate equals some timestep's concatenated state
        ids = [3, 1, 4, 1, 5]
        emb = encode_ids(ids, enc)
        states = []
        h = c = np.zeros(4)
        fwd = []
        for t in ids:
            h, c = lstm_step_reference(enc.embeddings[t], h, c,
                                       enc.fwd.w_in, enc.fwd.w_rec, enc.fwd.bias)
            fwd.append(h)
        h = c = np.zeros(4)
        bwd = [None] * len(ids)
        for pos in range(len(ids) - 1, -1, -1):
            h, c = lstm_step_reference(enc.embeddings[ids[pos]], h, c,
                                       enc.bwd.w_in, enc.bwd.w_rec, enc.bwd.bias)
            bwd[pos] = h
        states = np.stack([np.concatenate([f, b]) for f, b in zip(fwd, bwd)])
        for j in range(emb.shape[0]):
            assert any(abs(emb[j] - states[t, j]) < 1e-12 for t in range(len(ids)))

    def test_token_order_matters_somewhere(self, enc):
        a = encode_ids([2, 3, 4], enc)
        b = encode_ids([3, 2, 4], enc)
        assert np.max(np.abs(a - b)) > 1e-9

    def test_deterministic(self, enc):
        a = encode_ids([1, 2, 3], enc)
        b = encode_ids([1, 2, 3], enc)
        assert np.array_equal(a, b)

    def test_empty_sentence_rejected(self, enc, vocab):
        with pytest.raises(ValueError, match="empty"):
            encode_sentences([[]], vocab, enc)

    def test_id_out_of_range_rejected(self, enc):
        wide = build_vocab([[f"w{i}" for i in range(40)]], min_count=1)
        with pytest.raises(ValueError, match="out of range"):
            encode_sentences([["w39"]], wide, enc)

    def test_encode_sentences_order_preserved(self, enc, vocab):
        sents = [["w1", "w2"], ["w3"], ["w4", "w5", "w6"]]
        out = encode_sentences(sents, vocab, enc)
        for i, s in enumerate(sents):
            single = encode_ids(vocab.encode(s), enc)
            np.testing.assert_allclose(out[i], single, atol=1e-12)


class TestSif:
    def _table(self, vocab, seed=0):
        return np.random.default_rng(seed).normal(size=(len(vocab), 6))

    def test_singleton(self, vocab):
        table = self._table(vocab)
        emb = encode_sif(["w1"], table, vocab, a=1e-3)
        wid = vocab.token_to_id["w1"]
        expected = sif_weight(vocab.frequencies[wid], vocab.total_count, 1e-3) * table[wid]
        np.testing.assert_allclose(emb, expected, atol=1e-15)

    def test_repeated_word_averages_out(self, vocab):
        table = self._table(vocab)
        one = encode_sif(["w2"], table, vocab)
        two = encode_sif(["w2", "w2"], table, vocab)
        np.testing.assert_allclose(one, two, atol=1e-15)

    def test_matches_weighted_sum_oracle(self, vocab):
        table = self._table(vocab, seed=8)
        words = ["w1", "w2", "w2", "w5", "zzz"]
        emb = encode_sif(words, table, vocab, a=2e-3)
        acc = np.zeros(6)
        for w in words:
            wid = vocab.id_of(w)
            p = vocab.frequencies[wid] / vocab.total_count
            acc += (2e-3 / (2e-3 + p)) * table[wid]
        np.testing.assert_allclose(emb, acc / len(words), atol=1e-12)

    def test_dimension_is_table_width(self, vocab):
        emb = encode_sif(["w1", "w3"], self._table(vocab), vocab)
        assert emb.shape == (6,)

    @given(st.permutations(["w1", "w2", "w3", "w4"]))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, perm):
        vocab = build_vocab([[f"w{i}" for i in range(8)]], min_count=1)
        table = self._table(vocab)
        base = encode_sif(["w1", "w2", "w3", "w4"], table, vocab)
        np.testing.assert_allclose(encode_sif(list(perm), table, vocab), base, atol=1e-12)

    def test_empty_rejected(self, vocab):
        with pytest.raises(ValueError, match="empty"):
            encode_sif([], self._table(vocab), vocab)

    def test_matrix_stacks_sentence_encodings(self, vocab):
        sents = [["w1", "w2"], ["w3"], ["w4", "w5"], ["w6", "w7", "w1"]]
        table = self._table(vocab)
        np.testing.assert_array_equal(encode_sif_matrix(sents, table, vocab),
                                      [encode_sif(s, table, vocab) for s in sents])



def test_pad_batch_rejects_empty_member():
    with pytest.raises(ValueError):
        pad_batch([[1, 2], []])
