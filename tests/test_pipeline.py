import numpy as np
import pytest

from xlalign.config import ConfigError, parse_config
from xlalign.encoders import encode_sentences, new_encoder
from xlalign.objectives import new_decoder, new_head
from xlalign.pipeline import (Experiment, load_decoder, load_encoder, load_head,
                              materialize, save_decoder, save_encoder, save_head)
from xlalign.text import build_vocab

TOY = """
framework=transfer
cipher_vocab=30
cipher_sentences=200
dim=10
hidden=10
steps=40
pivot_steps=40
batch=8
splits=40,80
test_size=50
seed=3
"""


def test_materialize_holds_out_test_tail():
    cfg = parse_config(TOY)
    data = materialize(cfg)
    assert len(data.train_corpus) == 200
    assert len(data.test_pairs) == 50
    train_keys = {(tuple(s), tuple(t)) for s, t in data.train_corpus.pairs}
    assert all((tuple(s), tuple(t)) not in train_keys for s, t in data.test_pairs)


def test_materialize_rejects_too_small_corpus(tmp_path):
    src, tgt = tmp_path / "b.txt", tmp_path / "a.txt"
    src.write_text("\n".join(f"k{i}" for i in range(30)) + "\n")
    tgt.write_text("\n".join(f"w{i}" for i in range(30)) + "\n")
    cfg = parse_config(TOY + f"corpus=files\nsrc_path={src}\ntgt_path={tgt}\ntest_size=40\n")
    with pytest.raises(ConfigError, match="cannot spare"):
        materialize(cfg)


def test_factory_caches_by_size():
    cfg = parse_config(TOY)
    data = materialize(cfg)
    exp = Experiment(cfg, data)
    a = exp.factory(data.train_corpus.pairs[:40])
    b = exp.factory(data.train_corpus.pairs[:40])
    assert a is b


def test_encoder_checkpoint_round_trip(tmp_path):
    enc = new_encoder(12, 6, 5, "de", seed=9)
    path = tmp_path / "enc.ckpt"
    save_encoder(path, enc)
    loaded = load_encoder(path)
    assert loaded.lang == "de"
    for name, arr in enc.named_arrays().items():
        np.testing.assert_array_equal(loaded.named_arrays()[name], arr)
    vocab = build_vocab(["w0 w1 w2 w3 w4 w5 w6 w7"], min_count=1)
    sents = [["w1", "w5", "w0"]]
    np.testing.assert_array_equal(encode_sentences(sents, vocab, loaded),
                                  encode_sentences(sents, vocab, enc))


def test_decoder_checkpoint_round_trip(tmp_path):
    dec = new_decoder(11, 6, 10, 5, "en", seed=2)
    path = tmp_path / "dec.ckpt"
    save_decoder(path, dec)
    loaded = load_decoder(path)
    assert loaded.lang == "en"
    for name, arr in dec.named_arrays().items():
        np.testing.assert_array_equal(loaded.named_arrays()[name], arr)


def test_head_checkpoint_round_trip(tmp_path):
    head = new_head(8, hidden=6, seed=1)
    path = tmp_path / "head.ckpt"
    save_head(path, head)
    loaded = load_head(path)
    for name, arr in head.named_arrays().items():
        np.testing.assert_array_equal(loaded.named_arrays()[name], arr)


def test_word_table_ingests_embedding_file(tmp_path):
    from xlalign.text import save_word2vec

    cfg = parse_config(TOY)
    data = materialize(cfg)
    vocab = data.vocabs["la"]
    word = vocab.id_to_token[5]
    path = tmp_path / "vecs.txt"
    custom = np.arange(cfg.dim, dtype=float)
    save_word2vec(path, [word], custom[None, :])
    cfg2 = parse_config(TOY + f"embeddings_tgt={path}\n")
    data2 = materialize(cfg2)
    np.testing.assert_array_equal(data2.tables["la"][vocab.token_to_id[word]], custom)
