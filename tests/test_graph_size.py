"""Guards on how much graph the fused kernels build."""

import numpy as np
import pytest

from xlalign import autodiff as ad
from xlalign.cipher import gen_cipher_corpus
from xlalign.encoders import encode_batch, encode_sentences, new_encoder, pad_batch
from xlalign.objectives import (IdTable, infersent_loss, new_decoder, new_head, seq2seq_loss,
                                transfer_l1_loss)
from xlalign.text import build_vocab


def _setup():
    corpus = gen_cipher_corpus(30, 40, (3, 8), seed=3).corpus
    vb = build_vocab(corpus["lb"], 1)
    va = build_vocab(corpus["la"], 1)
    enc = new_encoder(len(vb), 8, 8, "lb", seed=1)
    dec = new_decoder(len(va), 8, 16, 8, "la", seed=2)
    return corpus, vb, va, enc, dec


ROWS = np.arange(16)


def test_seq2seq_loss_at_batch_16_builds_at_most_32_nodes():
    corpus, vb, va, enc, dec = _setup()
    loss, _ = seq2seq_loss(IdTable(corpus["lb"][:16], vb), IdTable(corpus["la"][:16], va), ROWS,
                           enc, dec)
    assert len(ad.topo_order(loss)) <= 32


def test_transfer_l1_loss_at_batch_16_builds_at_most_15_nodes():
    corpus, vb, _, enc, _ = _setup()
    loss, _ = transfer_l1_loss(IdTable(corpus["lb"][:16], vb), ROWS, np.zeros((16, 16)), enc)
    assert len(ad.topo_order(loss)) <= 15


@pytest.mark.parametrize("shared, bound", [(False, 35), (True, 28)], ids=["two", "one"])
def test_infersent_loss_at_batch_16_builds_at_most_35_nodes(shared, bound):
    corpus, vb, _, enc, _ = _setup()
    enc_h = enc if shared else new_encoder(len(vb), 8, 8, "lb", seed=4)
    table = IdTable(corpus["lb"][:16], vb)
    loss, _, _ = infersent_loss(table, table, ROWS, np.zeros(16), enc, enc_h, new_head(16, 8))
    assert len(ad.topo_order(loss)) <= bound


def test_encode_batch_runs_both_directions_in_one_scan_node():
    corpus, vb, _, enc, _ = _setup()
    ids, mask, _ = pad_batch([vb.encode(s) for s in corpus["lb"][:16]])
    ops = [node.op for node in ad.topo_order(encode_batch(ids, mask, ad.ParamSet(enc)))]
    assert ops.count("lstm_scan") == 1
    assert ops.count("masked_maxpool") == 1
    assert len(ops) == 10  # 7 parameter leaves, the gather, the scan and the pool


def test_encode_sentences_constructs_no_tensor(monkeypatch):
    corpus, vb, _, enc, _ = _setup()
    made = []
    init = ad.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        made.append(kwargs.get("op", "leaf"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    out = encode_sentences(corpus["lb"], vb, enc)
    assert out.shape == (len(corpus), enc.output_dim)
    assert made == []
