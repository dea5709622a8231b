import numpy as np
import pytest

from xlalign.checkpoint import load_checkpoint, save_checkpoint
from xlalign.config import ConfigError, parse_config
from xlalign.encoders import EncoderParams, encode_sentences, new_encoder
from xlalign.objectives import ClassifierHead, DecoderParams, new_decoder, new_head
from xlalign.pipeline import (Experiment, load_encoder, load_params, materialize,
                              save_encoder, save_params)
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


PARAM_SETS = {
    "encoder": (EncoderParams, lambda: new_encoder(12, 6, 5, "de", seed=9)),
    "decoder": (DecoderParams, lambda: new_decoder(11, 6, 10, 5, "en", seed=2)),
    "head": (ClassifierHead, lambda: new_head(8, hidden=6, seed=1)),
}


@pytest.mark.parametrize("kind", PARAM_SETS)
def test_checkpoint_round_trip(tmp_path, kind):
    cls, make = PARAM_SETS[kind]
    params = make()
    path = tmp_path / f"{kind}.ckpt"
    save_params(path, params)
    loaded = load_params(path, cls)
    assert type(loaded) is cls
    assert getattr(loaded, "lang", None) == getattr(params, "lang", None)
    assert list(loaded.named_arrays()) == list(params.named_arrays())
    for name, arr in params.named_arrays().items():
        np.testing.assert_array_equal(loaded.named_arrays()[name], arr)


def test_loaded_encoder_embeds_like_the_saved_one(tmp_path):
    enc = new_encoder(12, 6, 5, "de", seed=9)
    path = tmp_path / "enc.ckpt"
    save_encoder(path, enc)
    loaded = load_encoder(path)
    vocab = build_vocab([[f"w{i}" for i in range(8)]], min_count=1)
    sents = [["w1", "w5", "w0"]]
    np.testing.assert_array_equal(encode_sentences(sents, vocab, loaded),
                                  encode_sentences(sents, vocab, enc))


@pytest.mark.parametrize("saved, cls", [("decoder", EncoderParams), ("encoder", ClassifierHead)])
def test_load_rejects_a_checkpoint_of_another_kind(tmp_path, saved, cls):
    path = tmp_path / f"{saved}.ckpt"
    save_params(path, PARAM_SETS[saved][1]())
    with pytest.raises(ValueError, match=f"{path.name} is not a {cls.__name__} checkpoint"):
        load_params(path, cls)


def _rewrite(path, edit, comments=None):
    tensors, old_comments = load_checkpoint(path)
    edit(tensors)
    save_checkpoint(path, tensors, old_comments if comments is None else comments)


def test_load_rejects_a_missing_tensor(tmp_path):
    path = tmp_path / "enc.ckpt"
    save_params(path, PARAM_SETS["encoder"][1]())
    _rewrite(path, lambda t: t.pop("enc.bwd.bias"))
    with pytest.raises(ValueError, match=r"enc\.ckpt .*missing tensors \['enc\.bwd\.bias'\]"):
        load_params(path, EncoderParams)


def test_load_rejects_an_extra_tensor(tmp_path):
    path = tmp_path / "head.ckpt"
    save_params(path, PARAM_SETS["head"][1]())
    _rewrite(path, lambda t: t.update({"head.w3": np.zeros(2)}))
    with pytest.raises(ValueError, match=r"head\.ckpt .*extra \['head\.w3'\]"):
        load_params(path, ClassifierHead)


@pytest.mark.parametrize("kind", ["encoder", "decoder"])
def test_load_rejects_a_missing_lang(tmp_path, kind):
    cls, make = PARAM_SETS[kind]
    path = tmp_path / f"{kind}.ckpt"
    save_params(path, make())
    _rewrite(path, lambda t: None, comments=[])
    with pytest.raises(ValueError, match=f"{path.name} has no lang= comment"):
        load_params(path, cls)


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
