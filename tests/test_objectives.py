import copy

import numpy as np
import pytest

from xlalign import autodiff as ad
from xlalign.cipher import gen_cipher_corpus
from xlalign.encoders import LSTMParams, encode_sentences, new_encoder
from xlalign.objectives import (DecoderParams, NLIDataset, TrainSchedule, decode_ce_sum,
                                infersent_classify, new_decoder, new_head,
                                pair_features, seq2seq_loss, train_joint_infersent,
                                train_joint_seq2seq, train_transfer, write_trace)
from xlalign.text import BOS, EOS, NoiseParams, ParallelCorpus, build_vocab

from conftest import encode_reference, lstm_step_reference


@pytest.fixture
def small_setup():
    vocab = build_vocab([[f"w{i}" for i in range(1, 7)]], min_count=1)
    enc = new_encoder(len(vocab), dim=4, hidden=3, lang="en", seed=1)
    dec = new_decoder(len(vocab), dim=4, sentence_dim=6, hidden=3, lang="en", seed=2)
    return vocab, enc, dec


def seq2seq_loss_oracle(inputs, targets, enc, dec, src_vocab, tgt_vocab):
    """Independent per-token cross-entropy: scalar LSTM unrolls, no padding."""
    total, count = 0.0, 0
    for s, t in zip(inputs, targets):
        emb = encode_reference(src_vocab.encode(s), enc)
        tgt = tgt_vocab.encode(t) + [EOS]
        dec_in = [BOS] + tgt_vocab.encode(t)
        h = np.zeros(dec.cell.hidden_size)
        c = np.zeros(dec.cell.hidden_size)
        for di, ti in zip(dec_in, tgt):
            x = np.concatenate([dec.embeddings[di], emb])
            h, c = lstm_step_reference(x, h, c, dec.cell.w_in, dec.cell.w_rec, dec.cell.bias)
            logits = h @ dec.w_out + dec.b_out
            z = logits - logits.max()
            total += float(np.log(np.exp(z).sum()) - z[ti])
            count += 1
    return total / count


class TestSeq2SeqLoss:
    def test_matches_per_token_ce_oracle(self, small_setup):
        vocab, enc, dec = small_setup
        inputs = [["w1", "w2", "w3"], ["w4", "w5"]]
        targets = [["w2", "w3"], ["w4", "w5", "w6"]]
        graph = seq2seq_loss(inputs, targets, enc, dec, vocab, vocab)
        oracle = seq2seq_loss_oracle(inputs, targets, enc, dec, vocab, vocab)
        assert abs(float(graph.loss.data) - oracle) < 1e-10

    def test_single_class_vocabulary_gives_zero_loss(self, small_setup):
        vocab, enc, _ = small_setup
        rng = np.random.default_rng(0)
        dec = DecoderParams(rng.normal(size=(len(vocab), 4)),
                            LSTMParams(rng.normal(size=(10, 12)), rng.normal(size=(3, 12)),
                                       np.zeros(12)),
                            rng.normal(size=(3, 1)), np.zeros(1), "en")
        # every target is id 0, the only logit
        sent = ad.constant(encode_sentences([["w1"], ["w2", "w3"]], vocab, enc))
        targets = np.zeros((2, 3), dtype=np.int64)
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        ce = decode_ce_sum(sent, ad.ParamSet(dec), targets, targets, mask)
        assert float(ce.data) == 0.0

    def test_zero_projection_gives_log_v(self, small_setup):
        vocab, enc, dec = small_setup
        dec.w_out[...] = 0.0
        dec.b_out[...] = 0.0
        graph = seq2seq_loss([["w1", "w2"]], [["w3", "w4"]], enc, dec, vocab, vocab)
        assert abs(float(graph.loss.data) - np.log(len(vocab))) < 1e-9

    def test_uniform_logits_log_v_for_any_batch(self, small_setup, rng):
        vocab, enc, dec = small_setup
        dec.w_out[...] = 0.0
        dec.b_out[...] = 0.0
        words = [w for w in vocab.id_to_token[4:]]
        batch = [[words[i] for i in rng.integers(0, len(words), size=3)] for _ in range(4)]
        graph = seq2seq_loss(batch, batch, enc, dec, vocab, vocab)
        assert abs(float(graph.loss.data) - np.log(len(vocab))) < 1e-9

    def test_vocab_mismatch_rejected(self, small_setup):
        vocab, enc, _ = small_setup
        rng = np.random.default_rng(0)
        tiny = DecoderParams(rng.normal(size=(len(vocab), 4)),
                             LSTMParams(rng.normal(size=(10, 12)), rng.normal(size=(3, 12)),
                                        np.zeros(12)),
                             rng.normal(size=(3, 5)), np.zeros(5), "en")
        with pytest.raises(ValueError, match="vocabulary mismatch"):
            seq2seq_loss([["w1"]], [["w6"]], enc, tiny, vocab, vocab)

    def test_denoised_encoder_input_clean_target(self, small_setup):
        # with p_swap=1 the corruption is deterministic: every adjacent
        # bigram swaps; the loss must equal feeding the swapped input
        # explicitly while still predicting the clean sentence
        vocab, enc, dec = small_setup
        clean = [["w1", "w2", "w3", "w4"]]
        swapped = [["w2", "w1", "w4", "w3"]]
        noisy = seq2seq_loss(clean, clean, enc, dec, vocab, vocab,
                             denoise=NoiseParams(p_del=0.0, p_swap=1.0, seed=3))
        manual = seq2seq_loss(swapped, clean, enc, dec, vocab, vocab)
        assert float(noisy.loss.data) == pytest.approx(float(manual.loss.data), abs=1e-12)

    def test_gradients_flow_to_both_parameter_sets(self, small_setup):
        vocab, enc, dec = small_setup
        graph = seq2seq_loss([["w1", "w2"]], [["w3"]], enc, dec, vocab, vocab)
        ad.backward(graph.loss)
        assert graph.enc_tensors.gradients()
        assert set(graph.dec_tensors.gradients()) == set(dec.named_arrays())


class TestJointSeq2Seq:
    def _corpus(self, n=40, vocab_size=20, seed=5):
        cc = gen_cipher_corpus(vocab_size, n, (3, 6), seed=seed)
        split = cc.corpus
        vb = build_vocab(split.source_sentences(), 1)
        va = build_vocab(split.target_sentences(), 1)
        return split, va, vb

    def _models(self, va, vb, dh=8):
        encs = {"la": new_encoder(len(va), dh, dh, "la", seed=21),
                "lb": new_encoder(len(vb), dh, dh, "lb", seed=22)}
        dec = new_decoder(len(va), dh, 2 * dh, dh, "la", seed=23)
        return encs, dec

    def test_round_robin_alternation(self):
        split, va, vb = self._corpus()
        encs, dec = self._models(va, vb)
        res = train_joint_seq2seq(split, encs, dec, {"la": va, "lb": vb}, "la",
                                  TrainSchedule(4, 4, 1e-3, ["la", "lb"], seed=1),
                                  NoiseParams(seed=1))
        langs = [pair.split(">")[0] for _, _, pair, _ in res.trace]
        assert langs == ["la", "lb", "la", "lb"]
        objectives = [o for _, o, _, _ in res.trace]
        assert objectives == ["sdae", "nmt", "sdae", "nmt"]

    def test_decoder_is_one_shared_object(self):
        split, va, vb = self._corpus()
        encs, dec = self._models(va, vb)
        arrays_before = {k: id(v) for k, v in dec.named_arrays().items()}
        res = train_joint_seq2seq(split, encs, dec, {"la": va, "lb": vb}, "la",
                                  TrainSchedule(4, 6, 1e-3, ["la", "lb"], seed=1),
                                  NoiseParams(seed=1))
        assert res.decoder is dec
        assert {k: id(v) for k, v in dec.named_arrays().items()} == arrays_before

    def test_missing_encoder_rejected(self):
        split, va, vb = self._corpus()
        encs, dec = self._models(va, vb)
        del encs["lb"]
        with pytest.raises(ValueError, match="lb"):
            train_joint_seq2seq(split, encs, dec, {"la": va, "lb": vb}, "la",
                                TrainSchedule(4, 2, 1e-3, ["la", "lb"], seed=1),
                                NoiseParams(seed=1))

    def test_loss_halves_on_small_cipher_corpus(self):
        split, va, vb = self._corpus(n=200, vocab_size=30)
        encs, dec = self._models(va, vb, dh=24)
        res = train_joint_seq2seq(split, encs, dec, {"la": va, "lb": vb}, "la",
                                  TrainSchedule(32, 300, 2e-2, ["la", "lb"], seed=24),
                                  NoiseParams(0.1, 0.1, 25))
        vals = [v for _, _, _, v in res.trace]
        assert np.mean(vals[-10:]) < 0.5 * vals[0]

    def test_deterministic_trace(self):
        split, va, vb = self._corpus()
        t1 = train_joint_seq2seq(split, *_fresh(va, vb), {"la": va, "lb": vb}, "la",
                                 TrainSchedule(4, 10, 1e-3, ["la", "lb"], seed=7),
                                 NoiseParams(seed=7)).trace
        t2 = train_joint_seq2seq(split, *_fresh(va, vb), {"la": va, "lb": vb}, "la",
                                 TrainSchedule(4, 10, 1e-3, ["la", "lb"], seed=7),
                                 NoiseParams(seed=7)).trace
        assert t1 == t2

    def test_trace_csv_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, [(0, "sdae", "la>la", 3.5)])
        assert path.read_text().splitlines() == ["step,objective,language_pair,value",
                                                 "0,sdae,la>la,3.5"]


def _fresh(va, vb, dh=8):
    encs = {"la": new_encoder(len(va), dh, dh, "la", seed=21),
            "lb": new_encoder(len(vb), dh, dh, "lb", seed=22)}
    dec = new_decoder(len(va), dh, 2 * dh, dh, "la", seed=23)
    return encs, dec


class TestInferSentClassify:
    def test_identity_pair_zeroes_difference_block(self, rng):
        u = ad.constant(rng.normal(size=(2, 5)))
        feats = pair_features(u, u)
        np.testing.assert_array_equal(feats.data[:, 10:15], np.zeros((2, 5)))

    def test_probabilities_sum_to_one(self, rng):
        head = new_head(sentence_dim=6, hidden=8, seed=0)
        probs = infersent_classify(rng.normal(size=6), rng.normal(size=6), head)
        assert probs.shape == (3,)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_matches_affine_softmax_oracle(self, rng):
        head = new_head(sentence_dim=4, hidden=5, seed=3)
        u, v = rng.normal(size=4), rng.normal(size=4)
        probs = infersent_classify(u, v, head)
        feats = np.concatenate([u, v, np.abs(u - v), u * v])
        hidden = np.tanh(feats @ head.w1 + head.b1)
        logits = hidden @ head.w2 + head.b2
        e = np.exp(logits - logits.max())
        np.testing.assert_allclose(probs, e / e.sum(), atol=1e-12)

    def test_logit_shift_invariance(self, rng):
        head = new_head(sentence_dim=4, hidden=5, seed=3)
        u, v = rng.normal(size=4), rng.normal(size=4)
        base = infersent_classify(u, v, head)
        head.b2[...] += 11.0
        np.testing.assert_allclose(infersent_classify(u, v, head), base, atol=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        head = new_head(sentence_dim=4, hidden=5, seed=3)
        with pytest.raises(ValueError, match="dimension"):
            infersent_classify(rng.normal(size=4), rng.normal(size=5), head)


class TestJointInferSent:
    def _datasets(self, n=60):
        cc = gen_cipher_corpus(30, 10, (4, 7), seed=9, nli_size=n)
        vocabs = {lang: build_vocab(d.premises + d.hypotheses, 1)
                  for lang, d in cc.nli.items()}
        encs = {lang: new_encoder(len(vocabs[lang]), 8, 8, lang, seed=i)
                for i, lang in enumerate(sorted(cc.nli))}
        return cc.nli, encs, vocabs

    def test_language_sampling_near_uniform(self):
        datasets, encs, vocabs = self._datasets()
        head = new_head(16, hidden=8, seed=1)
        res = train_joint_infersent(datasets, encs, head, vocabs,
                                    TrainSchedule(2, 400, 1e-3, [], seed=5))
        counts = {}
        for combo in res.language_draws:
            counts[combo] = counts.get(combo, 0) + 1
        assert set(counts) == {(a, b) for a in ("la", "lb") for b in ("la", "lb")}
        for combo, c in counts.items():
            assert abs(c / 400 - 0.25) < 0.07

    def test_single_shared_head(self):
        datasets, encs, vocabs = self._datasets()
        head = new_head(16, hidden=8, seed=1)
        ids_before = {k: id(v) for k, v in head.named_arrays().items()}
        res = train_joint_infersent(datasets, encs, head, vocabs,
                                    TrainSchedule(4, 10, 1e-3, [], seed=5))
        assert res.head is head
        assert {k: id(v) for k, v in head.named_arrays().items()} == ids_before

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            NLIDataset([["a"]], [["b"]], [5])

    def test_loss_decreases(self):
        datasets, encs, vocabs = self._datasets()
        head = new_head(16, hidden=16, seed=1)
        res = train_joint_infersent(datasets, encs, head, vocabs,
                                    TrainSchedule(16, 150, 3e-3, [], seed=5))
        losses = [v for _, o, _, v in res.trace if o == "infersent_loss"]
        assert np.mean(losses[-10:]) < 0.8 * np.mean(losses[:10])

    def test_deterministic_trace(self):
        traces = []
        for _ in range(2):
            datasets, encs, vocabs = self._datasets()
            head = new_head(16, hidden=8, seed=1)
            traces.append(train_joint_infersent(datasets, encs, head, vocabs,
                                                TrainSchedule(4, 12, 1e-3, [], seed=5)).trace)
        assert traces[0] == traces[1]


class TestTransfer:
    def _pair_corpus(self, n=30):
        cc = gen_cipher_corpus(20, n, (3, 6), seed=13)
        return cc.corpus

    def test_fixed_point_is_noop(self):
        corpus = self._pair_corpus()
        vocab = build_vocab(corpus.target_sentences(), 1)
        pivot = new_encoder(len(vocab), 6, 5, "la", seed=2)
        clone = copy.deepcopy(pivot)
        same = ParallelCorpus([(t, t) for t in corpus.target_sentences()], "la", "la")
        res = train_transfer(same, pivot, clone, vocab, vocab,
                             TrainSchedule(4, 5, 1e-3, [], seed=3))
        assert all(v == 0.0 for _, _, _, v in res.trace)
        for name, arr in clone.named_arrays().items():
            np.testing.assert_array_equal(arr, pivot.named_arrays()[name])

    def test_pivot_parameters_bit_identical(self, tmp_path):
        corpus = self._pair_corpus()
        va = build_vocab(corpus.target_sentences(), 1)
        vb = build_vocab(corpus.source_sentences(), 1)
        pivot = new_encoder(len(va), 6, 5, "la", seed=2)
        before = {k: v.copy() for k, v in pivot.named_arrays().items()}
        new = new_encoder(len(vb), 6, 5, "lb", seed=4)
        train_transfer(corpus, pivot, new, vb, va, TrainSchedule(4, 20, 1e-2, [], seed=3))
        for name, arr in pivot.named_arrays().items():
            assert np.array_equal(arr, before[name]), name

    def test_new_encoder_actually_moves(self):
        corpus = self._pair_corpus()
        va = build_vocab(corpus.target_sentences(), 1)
        vb = build_vocab(corpus.source_sentences(), 1)
        pivot = new_encoder(len(va), 6, 5, "la", seed=2)
        new = new_encoder(len(vb), 6, 5, "lb", seed=4)
        before = {k: v.copy() for k, v in new.named_arrays().items()}
        train_transfer(corpus, pivot, new, vb, va, TrainSchedule(4, 10, 1e-2, [], seed=3))
        assert any(not np.array_equal(arr, before[name])
                   for name, arr in new.named_arrays().items())

    def test_dimension_mismatch_rejected(self):
        corpus = self._pair_corpus()
        va = build_vocab(corpus.target_sentences(), 1)
        vb = build_vocab(corpus.source_sentences(), 1)
        pivot = new_encoder(len(va), 6, 5, "la", seed=2)
        new = new_encoder(len(vb), 6, 4, "lb", seed=4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            train_transfer(corpus, pivot, new, vb, va, TrainSchedule(4, 2, 1e-3, [], seed=3))

    def test_converges_on_cipher_corpus(self):
        cc = gen_cipher_corpus(40, 500, (3, 8), seed=31)
        corpus = cc.corpus
        va = build_vocab(corpus.target_sentences(), 1)
        vb = build_vocab(corpus.source_sentences(), 1)
        pivot = new_encoder(len(va), 16, 16, "la", seed=2)
        new = new_encoder(len(vb), 16, 16, "lb", seed=4)
        res = train_transfer(corpus, pivot, new, vb, va,
                             TrainSchedule(16, 1000, 1e-3, [], seed=3))
        vals = [v for _, _, _, v in res.trace]
        assert np.mean(vals[-20:]) < 0.3 * vals[0]

    def test_deterministic_trace(self):
        corpus = self._pair_corpus()
        va = build_vocab(corpus.target_sentences(), 1)
        vb = build_vocab(corpus.source_sentences(), 1)
        pivot = new_encoder(len(va), 6, 5, "la", seed=2)
        traces = []
        for _ in range(2):
            new = new_encoder(len(vb), 6, 5, "lb", seed=4)
            traces.append(train_transfer(corpus, pivot, new, vb, va,
                                         TrainSchedule(4, 8, 1e-3, [], seed=3)).trace)
        assert traces[0] == traces[1]
