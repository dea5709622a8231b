"""Training and encoding keep `ad.DTYPE` (float32) end to end.

numpy promotes float32 with a float64 array or numpy scalar to float64, so one
float64 constant, head or factor anywhere in a step would silently run the
rest of it in float64. These tests pin the dtype of every parameter, gradient
and Adam moment of one step of each learner, of every array the LSTM scan
reads and writes, of inference encoding and of a checkpoint round trip.
"""

import numpy as np
import pytest

from xlalign import autodiff as ad
from xlalign.encoders import encode_sentences, new_encoder
from xlalign.objectives import (DecoderParams, IdTable, infersent_loss, new_decoder, new_head,
                                seq2seq_loss, transfer_l1_loss)
from xlalign.optim import Adam, clip_global_norm, optimizer_params
from xlalign.pipeline import load_encoder, load_params, save_params
from xlalign.text import NoiseParams, build_vocab

from conftest import as_float64

BATCH = [["w1", "w2", "w3"], ["w4", "w5"], ["w6"]]
TARGETS = [["w2", "w3"], ["w4", "w5", "w6"], ["w1"]]
ROWS = np.arange(len(BATCH))


@pytest.fixture
def vocab():
    return build_vocab([[f"w{i}" for i in range(1, 7)]], min_count=1)


@pytest.fixture
def scan_dtypes(monkeypatch):
    """The dtype of every float array each `lstm_steps` call, the LSTM time loop
    of training and inference, reads or returns, its kept cache included, as
    (what, dtype) pairs. Its input is context-extended, and its weights are
    the stacked ones, halved."""
    seen = []
    inner = ad.lstm_steps

    def spy(x, cells, mask, reverse, keep=False):
        hs, dead, kept = inner(x, cells, mask, reverse, keep)
        named = {"x": x, "hs": hs, **dict(zip(("w_in", "w_rec", "bias", "half"), cells))}
        if kept is not None:
            named.update(zip(("acts", "c_prev", "tanh_c"), kept))
        seen.extend((what, a.dtype) for what, a in named.items())
        return hs, dead, kept
    monkeypatch.setattr(ad, "lstm_steps", spy)
    return seen


def _assert_dtype(named, what):
    bad = {name: str(a.dtype) for name, a in named.items() if a.dtype != ad.DTYPE}
    assert not bad, f"{what} not in {np.dtype(ad.DTYPE)}: {bad}"


def _check_step(loss, param_sets, parts, scan_dtypes):
    """One `optim.fit` step by hand, checking the dtype of the loss, the scan
    arrays, every gradient before and after clipping, every parameter and
    every Adam moment."""
    assert loss.data.dtype == ad.DTYPE
    ad.backward(loss)
    grads = {}
    for tensors in param_sets:
        grads.update(tensors.gradients())
    _assert_dtype(grads, "gradient")
    _assert_dtype(clip_global_norm(grads, 1e-6), "clipped gradient")  # a norm this small scales
    opt = Adam(1e-3)
    opt.apply(param_sets)
    _assert_dtype(optimizer_params(*parts), "parameter")
    _assert_dtype({f"{name}.{k}": moment for name, (m, v, _) in opt.state.items()
                   for k, moment in (("m", m), ("v", v))}, "Adam moment")
    assert scan_dtypes and all(dtype == ad.DTYPE for _, dtype in scan_dtypes), scan_dtypes


def test_joint_seq2seq_step(vocab, scan_dtypes):
    enc = new_encoder(len(vocab), 4, 3, "la", seed=1)
    dec = new_decoder(len(vocab), 4, 6, 3, "la", seed=2)
    batch = IdTable(BATCH, vocab)
    loss, tensors = seq2seq_loss(batch, batch, ROWS, enc, dec, denoise=NoiseParams(0.1, 0.5, 3))
    _check_step(loss, tensors, (dec, enc), scan_dtypes)


def test_transfer_step(vocab, scan_dtypes):
    pivot = new_encoder(len(vocab), 4, 3, "la", seed=1)
    new = new_encoder(len(vocab), 4, 3, "lb", seed=2)
    targets = encode_sentences(TARGETS, vocab, pivot)
    loss, tensors = transfer_l1_loss(IdTable(BATCH, vocab), ROWS, targets, new)
    _check_step(loss, tensors, (new,), scan_dtypes)


def test_joint_infersent_step(vocab, scan_dtypes):
    enc_p = new_encoder(len(vocab), 4, 3, "la", seed=1)
    enc_h = new_encoder(len(vocab), 4, 3, "lb", seed=2)
    head = new_head(6, hidden=5, seed=3)
    loss, tensors, _ = infersent_loss(IdTable(BATCH, vocab), IdTable(TARGETS, vocab), ROWS,
                                      [0, 2, 1], enc_p, enc_h, head)
    _check_step(loss, tensors, (head, enc_p, enc_h), scan_dtypes)


def test_encode_sentences(vocab, scan_dtypes):
    out = encode_sentences(BATCH, vocab, new_encoder(len(vocab), 4, 3, "la", seed=1))
    assert out.dtype == ad.DTYPE
    assert scan_dtypes and all(dtype == ad.DTYPE for _, dtype in scan_dtypes), scan_dtypes


def test_checkpoint_round_trip_keeps_dtype_and_bits(tmp_path, vocab):
    dec = new_decoder(len(vocab), 4, 6, 3, "la", seed=2)
    save_params(tmp_path / "dec.ckpt", dec)
    loaded = load_params(tmp_path / "dec.ckpt", DecoderParams)
    _assert_dtype(loaded.named_arrays(), "loaded parameter")
    for name, arr in dec.named_arrays().items():
        assert loaded.named_arrays()[name].tobytes() == arr.tobytes(), name


def test_float64_checkpoint_loads_rounded(tmp_path, vocab):
    enc = as_float64(new_encoder(len(vocab), 4, 3, "la", seed=1))
    enc.embeddings += 1e-12  # a value float32 cannot hold
    save_params(tmp_path / "enc.ckpt", enc)
    loaded = load_encoder(tmp_path / "enc.ckpt")
    _assert_dtype(loaded.named_arrays(), "loaded parameter")
    for name, arr in enc.named_arrays().items():
        np.testing.assert_array_equal(loaded.named_arrays()[name], arr.astype(ad.DTYPE))
