import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlalign import encoders
from xlalign.autodiff import ParamSet
from xlalign.encoders import (BATCH, encode_batch, encode_sentences, encode_sif,
                              encode_sif_matrix, id_matrix, new_encoder, pad_batch)
from xlalign.text import PAD, RESERVED, UNK, Vocabulary, build_vocab, sif_weight

from conftest import as_float64, encode_reference, lstm_step_reference


@pytest.fixture
def enc():
    return new_encoder(vocab_size=12, dim=5, hidden=4, lang="en", seed=3)


@pytest.fixture
def vocab():
    return build_vocab([[f"w{i}" for i in range(8)]], min_count=1)


def encode_ids(ids, enc):
    """encode_batch on a batch of one sentence of token ids -> (2H,)."""
    arr, mask, _ = pad_batch([ids])
    return encode_batch(arr, mask, ParamSet(enc)).data[0]


class TestBiLstmMaxpool:
    def test_single_token_is_concat_of_both_directions(self, enc):
        enc = as_float64(enc)  # the scalar reference is float64
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
        enc = as_float64(enc)  # the scalar reference is float64
        ids = [2, 7, 4]
        emb = encode_ids(ids, enc)
        assert np.max(np.abs(emb - encode_reference(ids, enc))) < 1e-12

    def test_float32_matches_scalar_reference(self, enc):
        # the float32 kernels production runs, against the float64 scalar
        # reference of the same (exactly widened) parameters
        sents = [[4, 5, 6, 7, 8, 9], [10], [11, 4, 5], [6, 11], [7, 7, 7, 7, 7]]
        ids, mask, _ = pad_batch(sents)
        batched = encode_batch(ids, mask, ParamSet(enc)).data
        assert batched.dtype == np.float32
        for i, s in enumerate(sents):
            assert np.max(np.abs(batched[i] - encode_reference(s, as_float64(enc)))) < 1e-6

    def test_batched_equals_single(self, enc):
        # padding must not leak into shorter sentences' embeddings
        sents = [[1, 2, 3, 4, 5], [6], [7, 8], [9, 10, 11, 1, 2]]
        ids, mask, _ = pad_batch(sents)
        batched = encode_batch(ids, mask, ParamSet(enc)).data
        for i, s in enumerate(sents):
            single = encode_ids(s, enc)
            np.testing.assert_allclose(batched[i], single, atol=1e-12)

    def test_mixed_length_batch_matches_reference(self, enc):
        enc = as_float64(enc)  # the scalar reference is float64
        sents = [[4, 5, 6, 7, 8, 9], [10], [11, 4, 5], [6, 11], [7, 7, 7, 7, 7]]
        ids, mask, _ = pad_batch(sents)
        batched = encode_batch(ids, mask, ParamSet(enc)).data
        for i, s in enumerate(sents):
            assert np.max(np.abs(batched[i] - encode_reference(s, enc))) < 1e-12
        # inference runs the same kernels without a graph, bit for bit, on a
        # padded batch, an unpadded batch (no mask) and one unpadded row
        vocab = build_vocab([[f"t{i:02d}" for i in range(4, 12)]], min_count=1)
        for batch in (sents, [s for s in sents if len(s) == 2] + [[4, 9], [5, 5]], sents[:1]):
            ids, mask, _ = pad_batch(batch)
            trained = encode_batch(ids, mask, ParamSet(enc)).data
            tokens = [[vocab.id_to_token[i] for i in s] for s in batch]
            np.testing.assert_array_equal(encode_sentences(tokens, vocab, enc), trained)

    def test_maxpool_dominance(self, enc):
        # every output coordinate equals some timestep's concatenated state
        enc = as_float64(enc)  # the scalar reference is float64
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
        # unpadded batches (one row, two rows) and a padded one
        for batch in ([[]], [[], []], [[], ["w1"]]):
            with pytest.raises(ValueError, match="empty"):
                encode_sentences(batch, vocab, enc)

    def test_id_out_of_range_rejected(self, enc):
        wide = build_vocab([[f"w{i}" for i in range(40)]], min_count=1)
        # unpadded batches (one row, two rows) and a padded one
        for batch in ([["w39"]], [["w1"], ["w39"]], [["w1"], ["w2", "w39"]]):
            with pytest.raises(ValueError, match="out of range"):
                encode_sentences(batch, wide, enc)

    def test_encode_sentences_order_preserved(self, enc, vocab):
        sents = [["w1", "w2"], ["w3"], ["w4", "w5", "w6"]]
        out = encode_sentences(sents, vocab, enc)
        for i, s in enumerate(sents):
            single = encode_ids(vocab.encode(s), enc)
            np.testing.assert_allclose(out[i], single, atol=1e-12)


class TestBatching:
    """`encode_sentences` encodes in length order and returns rows in input order."""

    @staticmethod
    def _sentences(n, seed):
        r = np.random.default_rng(seed)
        return [[f"w{i}" for i in r.integers(0, 8, size=r.integers(1, 10))] for _ in range(n)]

    @pytest.mark.parametrize("n", [2 * BATCH + 37, BATCH + 1, 257, 20 * BATCH])
    def test_shuffled_input_gives_permuted_output(self, enc, vocab, n):
        sents = self._sentences(n, seed=n)
        perm = np.random.default_rng(1).permutation(n)
        out = encode_sentences(sents, vocab, enc)
        np.testing.assert_array_equal(encode_sentences([sents[i] for i in perm], vocab, enc),
                                      out[perm])

    @pytest.mark.parametrize("n, sizes", [
        (1, [1]), (BATCH, [BATCH]), (BATCH + 1, [BATCH + 1]), (2 * BATCH + 37, [BATCH, BATCH, 37]),
        (2 * BATCH + 1, [BATCH, BATCH + 1]), (20 * BATCH, [BATCH] * 20),
    ])
    def test_batches_are_length_sorted_and_a_trailing_single_row_merges(
            self, enc, vocab, monkeypatch, n, sizes):
        batches = []
        encode_ids = encoders._encode_ids

        def recording_encode_ids(ids, lengths, *args):
            assert ids.shape == (len(lengths), max(lengths))  # cut to its longest row
            batches.append(lengths.tolist())
            return encode_ids(ids, lengths, *args)
        monkeypatch.setattr(encoders, "_encode_ids", recording_encode_ids)
        sents = self._sentences(n, seed=n)
        encode_sentences(sents, vocab, enc)
        assert [len(b) for b in batches] == sizes
        assert sum(batches, []) == sorted(len(s) for s in sents)
        if n == 20 * BATCH:  # length-sorted batches of one length: no padding
            assert sum(min(b) == max(b) for b in batches) >= 10

    def test_no_sentences_give_an_empty_matrix(self, enc, vocab):
        assert encode_sentences([], vocab, enc).shape == (0, enc.output_dim)


class TestIdMatrix:
    """`encode_sentences` reads one bulk id matrix; its rows are the bits of
    the training path over per-sentence id lists, batch by batch."""

    @staticmethod
    def _per_sentence(sentences, vocab, enc):
        """Per-sentence `vocab.encode`, stable length order, batches of
        `BATCH` rows with a trailing one-row batch joined to the one before,
        each batch through `pad_batch` and the `encode_batch` graph."""
        ids = [vocab.encode(s) for s in sentences]
        order = sorted(range(len(ids)), key=lambda i: len(ids[i]))
        bounds = list(range(0, len(ids), BATCH)) + [len(ids)]
        if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
            del bounds[-2]
        out = np.empty((len(ids), enc.output_dim), dtype=enc.embeddings.dtype)
        for lo, hi in zip(bounds, bounds[1:]):
            rows = order[lo:hi]
            batch, mask, _ = pad_batch([ids[i] for i in rows])
            out[rows] = encode_batch(batch, mask, ParamSet(enc)).data
        return out

    @pytest.mark.parametrize("case", ["unk", "one", "one_unk", "trailing_row", "equal_lengths",
                                      "mixed"])
    def test_matches_the_per_sentence_path_bit_for_bit(self, enc, vocab, case):
        r = np.random.default_rng(len(case))

        def sentences(n, lo=1, hi=9, words=8):  # w8 and w9 are not in the vocabulary
            return [[f"w{i}" for i in r.integers(0, words, size=r.integers(lo, hi + 1))]
                    for _ in range(n)]
        sents = {"unk": sentences(40, words=10) + [["zzz"], ["w1", "zzz", "w2"]],
                 "one": [["w3", "w1", "w4", "w1", "w5"]],
                 "one_unk": [["zzz", "w2"]],
                 "trailing_row": sentences(BATCH + 1),
                 "equal_lengths": sentences(3 * BATCH, lo=4, hi=4),
                 "mixed": sentences(2 * BATCH + 37)}[case]
        out = encode_sentences(sents, vocab, enc)
        assert out.dtype == enc.embeddings.dtype
        assert out.tobytes() == self._per_sentence(sents, vocab, enc).tobytes()

    def test_matrix_is_the_padded_per_sentence_ids(self, vocab):
        sents = [["w1", "zzz"], ["w3"], ["w4", "w5", "w6", "zzz"], ["w7", "w7"]]
        ids, lengths = id_matrix(sents, vocab)
        want, _, want_lengths = pad_batch([vocab.encode(s) for s in sents])
        np.testing.assert_array_equal(ids, want)
        assert ids.dtype == np.int64 and lengths.tolist() == want_lengths
        ids, _ = id_matrix(sents, vocab, pad=-7)
        np.testing.assert_array_equal(ids, np.where(want == PAD, -7, want))
        ids, lengths = id_matrix([["w2", "zzz", "w2"]], vocab)
        assert ids.tolist() == [[vocab.token_to_id["w2"], UNK, vocab.token_to_id["w2"]]]
        assert lengths.tolist() == [3]

    @pytest.mark.parametrize("call, message", [
        (lambda v, e: id_matrix([], v), "empty batch"),
        (lambda v, e: encode_sif_matrix([], np.ones((len(v), 2)), v), "empty batch"),
        (lambda v, e: encode_sentences([[]], v, e), "cannot encode an empty sentence"),
        (lambda v, e: encode_sentences([["w1"], []], v, e), "cannot encode an empty sentence"),
        (lambda v, e: encode_sif_matrix([["w1"], []], np.ones((len(v), 2)), v),
         "cannot encode an empty sentence"),
        (lambda v, e: encode_sentences([["w1"], ["w2", "w3"]], v, new_encoder(6, 5, 4, "en", 3)),
         "token id 7 out of range for vocabulary of 6"),
        (lambda v, e: encode_sentences([["w5"]], v, new_encoder(6, 5, 4, "en", 3)),
         "token id 9 out of range for vocabulary of 6"),
    ], ids=["id_matrix_empty_list", "sif_empty_list", "one_empty_sentence",
            "an_empty_sentence", "sif_empty_sentence", "id_out_of_range", "one_out_of_range"])
    def test_errors_keep_their_messages(self, enc, vocab, call, message):
        with pytest.raises(ValueError) as info:
            call(vocab, enc)
        assert str(info.value) == message


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
            wid = vocab.token_to_id.get(w, UNK)
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

    def test_matrix_equals_per_token_scalar_loop_bit_for_bit(self):
        r = np.random.default_rng(4)
        corpus = [[f"w{i}" for i in r.integers(0, 9, size=r.integers(1, 7))] for _ in range(60)]
        vocab = build_vocab(corpus[:40], min_count=2)  # unseen and rare words share UNK
        table = r.normal(size=(len(vocab), 5))
        a = 2e-3
        expected = np.empty((len(corpus), 5))
        for row, sentence in enumerate(corpus):
            acc = [0.0] * 5
            for token in sentence:
                wid = vocab.token_to_id.get(token, UNK)
                weight = a / (a + vocab.frequencies[wid] / vocab.total_count)
                for j in range(5):
                    acc[j] += weight * float(table[wid, j])
            expected[row] = [v / len(sentence) for v in acc]
        np.testing.assert_array_equal(encode_sif_matrix(corpus, table, vocab, a), expected)
        np.testing.assert_array_equal(encode_sif(corpus[7], table, vocab, a), expected[7])

    def test_empty_member_rejected(self, vocab):
        with pytest.raises(ValueError, match="empty"):
            encode_sif_matrix([["w1"], []], self._table(vocab), vocab)

    @pytest.mark.parametrize("total, frequency, a, message", [
        (8, 1, 0.0, "smoothing constant must be positive"),
        (8, 1, -1e-3, "smoothing constant must be positive"),
        (0, 0, 1e-3, "total token count must be positive"),
        (8, 9, 1e-3, "outside"),
        (8, -1, 1e-3, "outside"),
    ])
    def test_weight_range_errors_still_raise(self, total, frequency, a, message):
        vocab = Vocabulary({"w": 4}, RESERVED + ["w"],
                           [0, 0, 0, 0, frequency], total)
        with pytest.raises(ValueError, match=message):
            encode_sif(["w"], np.ones((5, 2)), vocab, a)

    def test_matrix_stacks_sentence_encodings(self, vocab):
        sents = [["w1", "w2"], ["w3"], ["w4", "w5"], ["w6", "w7", "w1"]]
        table = self._table(vocab)
        np.testing.assert_array_equal(encode_sif_matrix(sents, table, vocab),
                                      [encode_sif(s, table, vocab) for s in sents])



def test_pad_batch_rejects_empty_member():
    with pytest.raises(ValueError):
        pad_batch([[1, 2], []])
