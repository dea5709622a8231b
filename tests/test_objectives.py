import copy

import numpy as np
import pytest

from xlalign import autodiff as ad
from xlalign import objectives
from xlalign.cipher import gen_cipher_corpus
from xlalign.encoders import LSTMParams, encode_sentences, new_encoder, pad_batch
from xlalign.objectives import (DecoderParams, IdTable, NLIDataset, TrainSchedule,
                                decode_ce_sum, head_logits, infersent_loss, new_decoder, new_head,
                                pair_features, seq2seq_loss, train_joint_infersent,
                                train_joint_seq2seq, train_transfer, transfer_l1_loss,
                                write_trace)
from xlalign.optim import fit, optimizer_params
from xlalign.rand import Xorshift64Star
from xlalign.text import BOS, EOS, PAD, NoiseParams, ParallelCorpus, build_vocab, corrupt

from conftest import (as_float64, encode_reference, lstm_step_reference,
                      max_relative_error)


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


def teacher_forcing_loop(target_ids):
    """The row-by-row reference for `objectives.teacher_forcing_arrays`."""
    k_max = max(len(s) + 1 for s in target_ids)
    dec_in = np.full((len(target_ids), k_max), PAD, dtype=np.int64)
    targets = np.full((len(target_ids), k_max), PAD, dtype=np.int64)
    mask = np.zeros((len(target_ids), k_max))
    for i, seq in enumerate(target_ids):
        row_in = [BOS] + list(seq)
        row_tgt = list(seq) + [EOS]
        dec_in[i, :len(row_in)] = row_in
        targets[i, :len(row_tgt)] = row_tgt
        mask[i, :len(row_tgt)] = 1.0
    return dec_in, targets, mask


@pytest.mark.parametrize("seed", range(5))
def test_teacher_forcing_arrays_match_the_row_loop(seed):
    rng = np.random.default_rng(seed)
    lengths = [1] + rng.integers(1, 9, size=int(rng.integers(0, 20))).tolist()
    batch = [rng.integers(4, 50, size=n).tolist() for n in rng.permutation(lengths)]
    padded, _, lengths = pad_batch(batch)
    for got, want in zip(objectives.teacher_forcing_arrays(padded, np.array(lengths)),
                         teacher_forcing_loop(batch)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", range(5))
def test_id_table_slices_match_padding_each_batch(seed):
    rng = np.random.default_rng(seed)
    sentences = [[f"w{i}" for i in rng.integers(0, 30, size=n)] for n in rng.integers(1, 9, 20)]
    vocab = build_vocab(sentences, 1)
    table = IdTable(sentences, vocab)
    longest = int(np.argmax([len(s) for s in sentences]))
    repeats = rng.integers(0, 20, size=6)
    for rows in (np.r_[repeats, repeats[:3]], rng.permutation(20)[:7], rng.integers(0, 20, 1),
                 np.array([longest]), np.r_[rng.integers(0, 20, 4), longest]):
        ids = [vocab.encode(sentences[i]) for i in rows]
        for got, want in zip((*table.batch(rows), *table.forcing_batch(rows)),
                             (*pad_batch(ids)[:2], *teacher_forcing_loop(ids))):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestNonFiniteParameters:
    """Parameters are checked once, before step 0; a NaN planted later surfaces
    in the first op output that reads it, in the step that reads it."""

    INPUTS = [["w1", "w2", "w3"], ["w4", "w5"]]

    @staticmethod
    def _fit(vocab, enc, dec, plant, steps=4, at=2):
        def step(i):
            if i == at:
                plant()
            batch = IdTable(TestNonFiniteParameters.INPUTS, vocab)
            loss, tensors = seq2seq_loss(batch, batch, np.arange(2), enc, dec)
            return loss, tensors, []
        return fit([enc, dec], steps, 1e-3, step)

    @pytest.mark.parametrize("planted, op", [
        (lambda vocab, enc, dec: (enc.fwd.w_rec, (0, 0)), "lstm_scan"),
        (lambda vocab, enc, dec: (dec.w_out, (0, 0)), "matmul"),
        (lambda vocab, enc, dec: (enc.embeddings, (vocab.encode(["w4"])[0], 1)), "gather"),
    ], ids=["w_rec", "w_out", "embedding_row"])
    def test_nan_planted_mid_training_fails_that_step(self, small_setup, planted, op):
        vocab, enc, dec = small_setup
        array, index = planted(vocab, enc, dec)

        def plant():
            array[index] = np.nan
        with pytest.raises(ad.NonFiniteError, match=rf"^step 2: .*op '{op}'"):
            self._fit(vocab, enc, dec, plant)

    def test_nan_before_training_is_named_before_step_0(self, small_setup):
        vocab, enc, dec = small_setup
        dec.cell.w_rec[1, 2] = np.inf
        with pytest.raises(ad.NonFiniteError, match=r"parameter 'dec\.cell\.w_rec' before step 0"):
            self._fit(vocab, enc, dec, lambda: None)


class TestGradientChecks:
    """`backward` leaves a `ParamSet` parameter's gradient unscanned; under
    `fit`, the global-norm clip of the same step rejects a non-finite one."""

    @staticmethod
    def _nan_into(tensor):
        """A scalar loss node whose backward sends NaN to `tensor` (finite values only)."""
        def bwd(g):
            ad._accum(tensor, np.full(tensor.data.shape, np.nan, dtype=tensor.data.dtype))
        return ad.Tensor(np.zeros((), dtype=tensor.data.dtype), op="plant", parents=(tensor,),
                         backward=bwd)

    def test_nan_parameter_gradient_under_fit_names_the_step(self, small_setup):
        vocab, enc, dec = small_setup

        def step(i):
            loss, tensors = seq2seq_loss(IdTable([["w1", "w2"]], vocab), IdTable([["w3"]], vocab),
                                         np.arange(1), enc, dec)
            if i < 1:
                return loss, tensors, []
            return ad.add(loss, self._nan_into(tensors[1]["w_out"])), tensors, []
        with pytest.raises(ad.NonFiniteError, match=r"^step 1: non-finite global gradient norm"):
            fit([enc, dec], 3, 1e-3, step)

    def test_backward_leaves_parameter_gradients_to_fit(self, small_setup):
        _, _, dec = small_setup
        tensors = ad.ParamSet(dec)
        ad.backward(self._nan_into(tensors["w_out"]))
        assert np.isnan(tensors["w_out"].grad).all()

    def test_backward_rejects_a_nan_gradient_on_a_leaf(self, small_setup):
        _, _, dec = small_setup
        with pytest.raises(ad.NonFiniteError, match="non-finite gradient for a leaf"):
            ad.backward(self._nan_into(ad.leaf(dec.w_out)))


class TestSeq2SeqLoss:
    def test_matches_per_token_ce_oracle(self, small_setup):
        vocab, enc, dec = small_setup
        enc, dec = as_float64(enc), as_float64(dec)  # oracles in float64
        inputs = [["w1", "w2", "w3"], ["w4", "w5"]]
        targets = [["w2", "w3"], ["w4", "w5", "w6"]]
        loss, _ = seq2seq_loss(IdTable(inputs, vocab), IdTable(targets, vocab), np.arange(2),
                               enc, dec)
        oracle = seq2seq_loss_oracle(inputs, targets, enc, dec, vocab, vocab)
        assert abs(float(loss.data) - oracle) < 1e-10

    def test_float32_matches_ce_oracle_and_float64_gradients(self, small_setup):
        # the float32 forward and backward production runs, against the float64
        # oracle and the float64 graph (which criterion 1 checks by finite
        # differences) on the same, exactly widened parameters
        vocab, enc, dec = small_setup
        enc64, dec64 = as_float64(enc), as_float64(dec)
        inputs = [["w1", "w2", "w3"], ["w4", "w5"]]
        targets = [["w2", "w3"], ["w4", "w5", "w6"]]
        batch = IdTable(inputs, vocab), IdTable(targets, vocab), np.arange(2)
        loss, tensors = seq2seq_loss(*batch, enc, dec)
        loss64, tensors64 = seq2seq_loss(*batch, enc64, dec64)
        oracle = seq2seq_loss_oracle(inputs, targets, enc64, dec64, vocab, vocab)
        assert loss.data.dtype == np.float32
        assert abs(float(loss.data) - oracle) < 1e-6 * oracle
        ad.backward(loss)
        ad.backward(loss64)
        for ps, ps64 in zip(tensors, tensors64):
            grads, grads64 = ps.gradients(), ps64.gradients()
            assert grads.keys() == grads64.keys()
            for name, g in grads.items():
                assert g.dtype == np.float32
                assert max_relative_error(g, grads64[name]) < 1e-4, name

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
        enc, dec = as_float64(enc), as_float64(dec)  # oracles in float64
        dec.w_out[...] = 0.0
        dec.b_out[...] = 0.0
        loss, _ = seq2seq_loss(IdTable([["w1", "w2"]], vocab), IdTable([["w3", "w4"]], vocab),
                               np.arange(1), enc, dec)
        assert abs(float(loss.data) - np.log(len(vocab))) < 1e-9

    def test_uniform_logits_log_v_for_any_batch(self, small_setup, rng):
        vocab, enc, dec = small_setup
        enc, dec = as_float64(enc), as_float64(dec)  # oracles in float64
        dec.w_out[...] = 0.0
        dec.b_out[...] = 0.0
        words = [w for w in vocab.id_to_token[4:]]
        batch = [[words[i] for i in rng.integers(0, len(words), size=3)] for _ in range(4)]
        table = IdTable(batch, vocab)
        loss, _ = seq2seq_loss(table, table, np.arange(len(batch)), enc, dec)
        assert abs(float(loss.data) - np.log(len(vocab))) < 1e-9

    def test_vocab_mismatch_rejected(self, small_setup):
        vocab, enc, _ = small_setup
        rng = np.random.default_rng(0)
        tiny = DecoderParams(rng.normal(size=(len(vocab), 4)),
                             LSTMParams(rng.normal(size=(10, 12)), rng.normal(size=(3, 12)),
                                        np.zeros(12)),
                             rng.normal(size=(3, 5)), np.zeros(5), "en")
        with pytest.raises(ValueError, match="vocabulary mismatch"):
            seq2seq_loss(IdTable([["w1"]], vocab), IdTable([["w6"]], vocab), np.arange(1),
                         enc, tiny)

    def test_denoised_encoder_input_clean_target(self, small_setup):
        # with p_swap=1 the corruption is deterministic: every adjacent
        # bigram swaps; the loss must equal feeding the swapped input
        # explicitly while still predicting the clean sentence
        vocab, enc, dec = small_setup
        clean = [["w1", "w2", "w3", "w4"]]
        swapped = [["w2", "w1", "w4", "w3"]]
        clean, swapped, rows = IdTable(clean, vocab), IdTable(swapped, vocab), np.arange(1)
        noisy, _ = seq2seq_loss(clean, clean, rows, enc, dec,
                                denoise=NoiseParams(p_del=0.0, p_swap=1.0, seed=3))
        manual, _ = seq2seq_loss(swapped, clean, rows, enc, dec)
        assert float(noisy.data) == pytest.approx(float(manual.data), abs=1e-12)

    def test_gradients_flow_to_both_parameter_sets(self, small_setup):
        vocab, enc, dec = small_setup
        loss, (enc_tensors, dec_tensors) = seq2seq_loss(
            IdTable([["w1", "w2"]], vocab), IdTable([["w3"]], vocab), np.arange(1), enc, dec)
        ad.backward(loss)
        assert enc_tensors.gradients()
        assert set(dec_tensors.gradients()) == set(dec.named_arrays())


class TestJointSeq2Seq:
    def _corpus(self, n=40, vocab_size=20, seed=5):
        cc = gen_cipher_corpus(vocab_size, n, (3, 6), seed=seed)
        split = cc.corpus
        vb = build_vocab(split["lb"], 1)
        va = build_vocab(split["la"], 1)
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

    def test_each_language_reads_its_own_rows(self, monkeypatch):
        base = gen_cipher_corpus(20, 40, (3, 6), seed=5).corpus
        lc = [["c" + t[1:] for t in s] for s in base["la"]]  # a second renaming of la
        corpus = ParallelCorpus(zip(base["lb"], lc, base["la"]), "lb", "lc", "la")
        vocabs = {lang: build_vocab(corpus[lang], 1) for lang in corpus.langs}
        encs = {lang: new_encoder(len(vocabs[lang]), 8, 8, lang, seed=21 + i)
                for i, lang in enumerate(corpus.langs)}
        dec = new_decoder(len(vocabs["la"]), 8, 16, 8, "la", seed=23)
        calls = []
        real = objectives.seq2seq_loss

        def spy(src, tgt, rows, enc, *args, **kwargs):  # the id tables' sentences, as token ids
            calls.append((enc.lang, [src.ids[i] for i in rows], [tgt.ids[i] for i in rows]))
            return real(src, tgt, rows, enc, *args, **kwargs)
        monkeypatch.setattr(objectives, "seq2seq_loss", spy)
        train_joint_seq2seq(corpus, encs, dec, vocabs, "la",
                            TrainSchedule(4, 6, 1e-3, ["la", "lb", "lc"], seed=1),
                            NoiseParams(seed=1))
        assert [lang for lang, _, _ in calls] == ["la", "lb", "lc"] * 2
        # every batch row is one corpus row: the language's sentence, then the pivot's
        ids = {lang: [tuple(vocabs[lang].encode(s)) for s in corpus[lang]] for lang in corpus.langs}
        rows = {lang: set(zip(ids[lang], ids["la"])) for lang in corpus.langs}
        for lang, inputs, targets in calls:
            assert set(zip(map(tuple, inputs), map(tuple, targets))) <= rows[lang], lang

    def test_trace_and_parameters_equal_stepping_the_token_level_loss(self):
        # the loop slices id tables built once; the reference re-encodes every
        # batch from tokens and corrupts the pivot's tokens, not its ids
        split, va, vb = self._corpus(n=60)
        vocabs = {"la": va, "lb": vb}
        sched, noise = TrainSchedule(5, 8, 1e-2, ["la", "lb"], seed=3), NoiseParams(0.2, 0.3, 4)
        encs, dec = self._models(va, vb)
        trace = train_joint_seq2seq(split, encs, dec, vocabs, "la", sched, noise).trace
        ref_encs, ref_dec = self._models(va, vb)
        noise_rng = Xorshift64Star(noise.seed ^ 0x5DEECE66D)
        rng = np.random.default_rng(sched.seed)

        def step(i):
            lang = sched.language_order[i % 2]
            idx = rng.integers(0, len(split), size=sched.batch_size)
            inputs = [split[lang][j] for j in idx]
            if lang == "la":
                inputs = [corrupt(s, noise, noise_rng) for s in inputs]
            loss, tensors = seq2seq_loss(IdTable(inputs, vocabs[lang]),
                                         IdTable([split["la"][j] for j in idx], va),
                                         np.arange(len(idx)), ref_encs[lang], ref_dec)
            return (loss, tensors,
                    [(i, "sdae" if lang == "la" else "nmt", f"{lang}>la", float(loss.data))])
        assert trace == fit([ref_dec, *ref_encs.values()], sched.steps, sched.lr, step)
        assert_same_bytes(optimizer_params(dec, *encs.values()),
                          optimizer_params(ref_dec, *ref_encs.values()))

    def test_trace_csv_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, [(0, "sdae", "la>la", 3.5)])
        assert path.read_text().splitlines() == ["step,objective,language_pair,value",
                                                 "0,sdae,la>la,3.5"]


def assert_same_bytes(params, ref):
    assert params.keys() == ref.keys()
    for name, array in params.items():
        assert array.dtype == ref[name].dtype and array.tobytes() == ref[name].tobytes(), name


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

    @staticmethod
    def _logits(u, v, head):
        return head_logits(ad.constant(u), ad.constant(v), ad.ParamSet(head)).data

    def test_matches_affine_softmax_oracle(self, rng):
        head = new_head(sentence_dim=4, hidden=5, seed=3)
        u, v = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        feats = np.concatenate([u, v, np.abs(u - v), u * v], axis=1)
        hidden = np.tanh(feats @ head.w1 + head.b1)
        np.testing.assert_allclose(self._logits(u, v, head), hidden @ head.w2 + head.b2,
                                   atol=1e-12)

    def test_logit_shift_invariance(self, rng):
        head = new_head(sentence_dim=4, hidden=5, seed=3)
        u, v = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        base = self._logits(u, v, head)
        head.b2[...] += 11.0
        shifted = self._logits(u, v, head)
        np.testing.assert_allclose(shifted, base + 11.0, atol=1e-12)
        np.testing.assert_array_equal(shifted.argmax(axis=1), base.argmax(axis=1))


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

    def test_trace_and_parameters_equal_stepping_the_token_level_loss(self):
        datasets, encs, vocabs = self._datasets()
        head = new_head(16, hidden=8, seed=1)
        sched = TrainSchedule(4, 8, 1e-2, [], seed=5)
        trace = train_joint_infersent(datasets, encs, head, vocabs, sched).trace
        _, ref_encs, _ = self._datasets()
        ref_head = new_head(16, hidden=8, seed=1)
        rng = np.random.default_rng(sched.seed)
        langs = sorted(datasets)

        def step(i):
            p, h = objectives.draw_language_pair(rng, langs)
            idx = rng.integers(0, len(datasets[p].premises), size=sched.batch_size)
            labels = np.array([datasets[p].labels[j] for j in idx])
            loss, tensors, logits = infersent_loss(
                IdTable([datasets[p].premises[j] for j in idx], vocabs[p]),
                IdTable([datasets[h].hypotheses[j] for j in idx], vocabs[h]),
                np.arange(len(idx)), labels, ref_encs[p], ref_encs[h], ref_head)
            acc = float((logits.data.argmax(axis=1) == labels).mean())
            return (loss, tensors, [(i, "infersent_loss", f"{p}|{h}", float(loss.data)),
                                    (i, "infersent_acc", f"{p}|{h}", acc)])
        assert trace == fit([ref_head, *ref_encs.values()], sched.steps, sched.lr, step)
        assert_same_bytes(optimizer_params(head, *encs.values()),
                          optimizer_params(ref_head, *ref_encs.values()))

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
        vocab = build_vocab(corpus["la"], 1)
        pivot = new_encoder(len(vocab), 6, 5, "la", seed=2)
        clone = copy.deepcopy(pivot)
        same = ParallelCorpus(zip(corpus["la"]), "la")  # new and pivot encoder read la
        res = train_transfer(same, pivot, clone, vocab, vocab,
                             TrainSchedule(4, 5, 1e-3, [], seed=3))
        assert all(v == 0.0 for _, _, _, v in res.trace)
        for name, arr in clone.named_arrays().items():
            np.testing.assert_array_equal(arr, pivot.named_arrays()[name])

    def test_pivot_parameters_bit_identical(self, tmp_path):
        corpus = self._pair_corpus()
        va = build_vocab(corpus["la"], 1)
        vb = build_vocab(corpus["lb"], 1)
        pivot = new_encoder(len(va), 6, 5, "la", seed=2)
        before = {k: v.copy() for k, v in pivot.named_arrays().items()}
        new = new_encoder(len(vb), 6, 5, "lb", seed=4)
        train_transfer(corpus, pivot, new, vb, va, TrainSchedule(4, 20, 1e-2, [], seed=3))
        for name, arr in pivot.named_arrays().items():
            assert np.array_equal(arr, before[name]), name

    def test_trace_and_parameters_equal_stepping_the_token_level_loss(self):
        corpus = self._pair_corpus(n=50)
        va = build_vocab(corpus["la"], 1)
        vb = build_vocab(corpus["lb"], 1)
        pivot = new_encoder(len(va), 6, 5, "la", seed=2)
        sched = TrainSchedule(4, 8, 1e-2, [], seed=3)
        new = new_encoder(len(vb), 6, 5, "lb", seed=4)
        trace = train_transfer(corpus, pivot, new, vb, va, sched).trace
        ref = new_encoder(len(vb), 6, 5, "lb", seed=4)
        targets = encode_sentences(corpus["la"], va, pivot)
        rng = np.random.default_rng(sched.seed)

        def step(i):
            idx = rng.integers(0, len(corpus), size=sched.batch_size)
            loss, tensors = transfer_l1_loss(IdTable([corpus["lb"][j] for j in idx], vb),
                                             np.arange(len(idx)), targets[idx], ref)
            return loss, tensors, [(i, "transfer_l1", "lb>la", float(loss.data))]
        assert trace == fit([ref], sched.steps, sched.lr, step)
        assert_same_bytes(optimizer_params(new), optimizer_params(ref))

    def test_new_encoder_actually_moves(self):
        corpus = self._pair_corpus()
        va = build_vocab(corpus["la"], 1)
        vb = build_vocab(corpus["lb"], 1)
        pivot = new_encoder(len(va), 6, 5, "la", seed=2)
        new = new_encoder(len(vb), 6, 5, "lb", seed=4)
        before = {k: v.copy() for k, v in new.named_arrays().items()}
        train_transfer(corpus, pivot, new, vb, va, TrainSchedule(4, 10, 1e-2, [], seed=3))
        assert any(not np.array_equal(arr, before[name])
                   for name, arr in new.named_arrays().items())

    def test_dimension_mismatch_rejected(self):
        corpus = self._pair_corpus()
        va = build_vocab(corpus["la"], 1)
        vb = build_vocab(corpus["lb"], 1)
        pivot = new_encoder(len(va), 6, 5, "la", seed=2)
        new = new_encoder(len(vb), 6, 4, "lb", seed=4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            train_transfer(corpus, pivot, new, vb, va, TrainSchedule(4, 2, 1e-3, [], seed=3))

    def test_converges_on_cipher_corpus(self):
        cc = gen_cipher_corpus(40, 500, (3, 8), seed=31)
        corpus = cc.corpus
        va = build_vocab(corpus["la"], 1)
        vb = build_vocab(corpus["lb"], 1)
        pivot = new_encoder(len(va), 16, 16, "la", seed=2)
        new = new_encoder(len(vb), 16, 16, "lb", seed=4)
        res = train_transfer(corpus, pivot, new, vb, va,
                             TrainSchedule(16, 1000, 1e-3, [], seed=3))
        vals = [v for _, _, _, v in res.trace]
        assert np.mean(vals[-20:]) < 0.3 * vals[0]

    def test_deterministic_trace(self):
        corpus = self._pair_corpus()
        va = build_vocab(corpus["la"], 1)
        vb = build_vocab(corpus["lb"], 1)
        pivot = new_encoder(len(va), 6, 5, "la", seed=2)
        traces = []
        for _ in range(2):
            new = new_encoder(len(vb), 6, 5, "lb", seed=4)
            traces.append(train_transfer(corpus, pivot, new, vb, va,
                                         TrainSchedule(4, 8, 1e-3, [], seed=3)).trace)
        assert traces[0] == traces[1]
