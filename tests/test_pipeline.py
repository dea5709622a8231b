import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xlalign
from xlalign import pipeline
from xlalign.checkpoint import load_checkpoint, save_checkpoint
from xlalign.cli import main
from xlalign.config import ConfigError, parse_config
from xlalign.encoders import EncoderParams, encode_sentences, encode_sif_matrix, new_encoder
from xlalign.objectives import ClassifierHead, DecoderParams, new_decoder, new_head
from xlalign.pipeline import load_encoder, load_params, materialize, save_encoder, save_params
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


def _row_keys(corpus):
    return [tuple(tuple(s) for s in row) for row in corpus.rows()]


def test_materialize_holds_out_test_tail():
    cfg = parse_config(TOY)
    data = materialize(cfg)
    assert len(data.train_corpus) == 200
    assert len(data.heldout) == 50
    assert data.heldout.rows() == data.source.corpus.rows()[-50:]
    assert not set(_row_keys(data.heldout)) & set(_row_keys(data.train_corpus))


def test_training_rows_repeating_a_heldout_row_are_dropped(tmp_path, capsys):
    # at seed 7 a row of the default 1200-row training corpus repeats a held-out row
    args = ["--set", "framework=sentence_map", "--set", "encoder=sif",
            "--set", "splits=100,200,500,1000", "--set", "seed=7"]
    assert main(["run", *args, "--out-dir", str(tmp_path)]) == 0
    data = materialize(parse_config("", [a for a in args if a != "--set"]))
    assert len(data.heldout) == 200
    assert len(data.train_corpus) == 1199
    assert not set(_row_keys(data.heldout)) & set(_row_keys(data.train_corpus))


def _readme_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("text", [_readme_config(), ""], ids=["readme", "defaults"])
def test_documented_and_default_configs_materialize(text):
    cfg = parse_config(text)
    data = materialize(cfg)
    assert len(data.train_corpus) >= cfg.splits[-1]


def test_materialize_rejects_too_small_corpus(tmp_path):
    (tmp_path / "lb.txt").write_text("\n".join(f"k{i}" for i in range(30)) + "\n")
    (tmp_path / "la.txt").write_text("\n".join(f"w{i}" for i in range(30)) + "\n")
    cfg = parse_config(TOY + f"corpus_dir={tmp_path}\ntest_size=40\n")
    with pytest.raises(ConfigError, match="cannot spare"):
        materialize(cfg)


SIF_MAP = ("framework=sentence_map\nencoder=sif\ncipher_vocab=40\n"
           "cipher_sentences=300\ndim=16\nsplits=100,200\ntest_size=60\nseed=4\n")


@pytest.mark.parametrize("command, evaluated_splits", [("run", 2), ("curve", 2), ("neighbors", 1)])
def test_heldout_rows_are_embedded_once_per_evaluated_split(tmp_path, monkeypatch, command,
                                                            evaluated_splits):
    embedded = []

    def recording(sentences, **kwargs):
        embedded.append(sentences)
        return encode_sif_matrix(sentences, **kwargs)
    monkeypatch.setattr(pipeline, "encode_sif_matrix", recording)
    cfg = tmp_path / "map.cfg"
    cfg.write_text(SIF_MAP)
    assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    heldout = materialize(parse_config(SIF_MAP)).heldout
    assert {lang: sum(s == sentences for s in embedded) for lang, sentences in heldout.items()} \
        == {"la": evaluated_splits, "lb": evaluated_splits}


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


@pytest.mark.parametrize("kind, record, edited, message", [
    ("encoder", "enc.emb 2 12 6", "enc.emb 2 6 12", "(6, 12), expected (V, D) with H=5, D=6"),
    ("encoder", "enc.bwd.w_rec 2 5 20", "enc.bwd.w_rec 2 4 25",
     "(4, 25), expected (H, 4H) with H=5, D=6"),
    ("decoder", "dec.b_out 1 11", "dec.b_out 2 1 11", "(1, 11), expected (V) with H=5, N=16, "
                                                      "V=11, D=6"),
    ("head", "head.w2 2 6 3", "head.w2 2 3 6", "(3, 6), expected (K, C) with I=32, K=6"),
], ids=["transposed-embeddings", "other-hidden-size", "two-dim-bias", "unchained-layers"])
def test_load_rejects_a_shape_record_the_other_tensors_contradict(tmp_path, kind, record, edited,
                                                                  message):
    cls, make = PARAM_SETS[kind]
    path = tmp_path / f"{kind}.ckpt"
    save_params(path, make())
    text = path.read_text()
    assert f"\n{record}\n" in text
    path.write_text(text.replace(f"\n{record}\n", f"\n{edited}\n"))
    with pytest.raises(ConfigError) as err:
        load_params(path, cls)
    assert str(err.value) == f"{path}: tensor {edited.split()[0]!r} has shape {message}"


@pytest.mark.parametrize("kind", ["encoder", "decoder"])
def test_load_rejects_a_missing_lang(tmp_path, kind):
    cls, make = PARAM_SETS[kind]
    path = tmp_path / f"{kind}.ckpt"
    save_params(path, make())
    _rewrite(path, lambda t: None, comments=[])
    with pytest.raises(ValueError, match=f"{path.name} has no lang= comment"):
        load_params(path, cls)


def test_word_table_ingests_embedding_file(tmp_path):
    from xlalign.cipher import write_corpus_files
    from xlalign.text import save_word2vec

    sif = TOY + "framework=sentence_map\nencoder=sif\n"  # only SIF reads word tables
    cfg = parse_config(sif)
    data = materialize(cfg)
    write_corpus_files(tmp_path, data.source)
    from_files = parse_config(sif + f"corpus_dir={tmp_path}\n")
    np.testing.assert_array_equal(materialize(from_files).tables["la"], data.tables["la"])
    vocab = data.vocabs["la"]
    word = vocab.id_to_token[5]
    custom = np.arange(cfg.dim, dtype=float)
    save_word2vec(tmp_path / "la.vec", [word], custom[None, :])
    tables = materialize(from_files).tables
    expected = data.tables["la"].copy()
    expected[vocab.token_to_id[word]] = custom
    np.testing.assert_array_equal(tables["la"], expected)
    np.testing.assert_array_equal(tables["lb"], data.tables["lb"])


def test_pipeline_demo_leaves_no_temporary_directory(tmp_path):
    demo = Path(__file__).resolve().parents[1] / "demos" / "08_experiment_pipeline.py"
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PYTHONPATH": os.path.dirname(os.path.dirname(xlalign.__file__))}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert f"files in {tmp_path}{os.sep}xlalign_demo_" in proc.stdout  # it wrote there
    assert list(tmp_path.glob("xlalign_demo_*")) == []


def test_load_rejects_a_repeated_lang(tmp_path):
    path = tmp_path / "enc.ckpt"
    save_params(path, PARAM_SETS["encoder"][1]())
    _rewrite(path, lambda t: None, comments=["lang=la lang=lb"])
    with pytest.raises(ConfigError, match=f"{path.name}: repeated comment key 'lang'"):
        load_params(path, EncoderParams)
