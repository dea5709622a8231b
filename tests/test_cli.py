import os
import subprocess
import sys

import numpy as np
import pytest

import xlalign
from xlalign import cli
from xlalign.checkpoint import save_checkpoint
from xlalign.cli import main
from xlalign.mapping import AlignmentMap, save_map

from conftest import write_dump

TOY_TRANSFER = """
framework=transfer
cipher_vocab=30
cipher_sentences=200
dim=10
hidden=10
steps=60
pivot_steps=60
batch=8
splits=40,80
test_size=50
seed=3
"""


def run_cli(cwd, *args):
    """`python -m xlalign.cli *args` in a fresh interpreter, run in `cwd`."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(xlalign.__file__))}
    return subprocess.run([sys.executable, "-m", "xlalign.cli", *args],
                          capture_output=True, text=True, timeout=60, cwd=cwd, env=env)


@pytest.fixture
def toy_cfg(tmp_path):
    path = tmp_path / "transfer_toy.cfg"
    path.write_text(TOY_TRANSFER)
    return str(path)


def test_gen_corpus_writes_files(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen-corpus", "--out-dir", str(out), "--vocab-size", "20",
                 "--sentences", "25", "--nli-size", "9"]) == 0
    assert (out / "la.txt").exists() and (out / "lb.txt").exists()
    assert len((out / "la.txt").read_text().splitlines()) == 25
    assert (out / "dict.la-lb.txt").exists()
    assert (out / "nli.labels.txt").exists()


def test_run_smoke_produces_curve_csv(toy_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", toy_cfg, "--out-dir", str(out)]) == 0
    assert (out / "curve.csv").exists()
    assert (out / "manifest.txt").exists()
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "size,model,direction,accuracy"
    assert len(lines) == 1 + 2 * 2  # two splits x two directions
    manifest = (out / "manifest.txt").read_text().splitlines()
    listed = set(manifest[manifest.index("# files") + 1:])
    for name in ("curve.csv", "retrieval.csv", "neighbors.txt", "manifest.txt"):
        assert name in listed


def test_unknown_framework_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("framework=foo\n")
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "framework" in err and "foo" in err


def test_missing_config_file_is_validation_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_non_utf8_config_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes("seed=7  # r\xe9sum\xe9\n".encode("latin-1"))
    assert main(["run", "--config", str(bad)]) == 1
    assert "UTF-8" in capsys.readouterr().err


def test_missing_corpus_file_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("corpus=files\nsrc_path=/nonexistent/a\ntgt_path=/nonexistent/b\n")
    assert main(["run", "--config", str(cfg)]) == 1


def test_corpus_files_round_trip(tmp_path):
    corpus_dir = tmp_path / "corpus"
    assert main(["gen-corpus", "--out-dir", str(corpus_dir), "--vocab-size", "30",
                 "--sentences", "150", "--seed", "5"]) == 0
    cfg = tmp_path / "files.cfg"
    cfg.write_text(
        "framework=sentence_map\nencoder=sif\ncorpus=files\n"
        f"src_path={corpus_dir / 'lb.txt'}\ntgt_path={corpus_dir / 'la.txt'}\n"
        "dim=12\nsplits=40,80\ntest_size=40\nseed=2\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "map.ckpt").exists()


def test_train_rejects_wrong_framework(toy_cfg, capsys):
    assert main(["train", "--config", toy_cfg]) == 1
    assert "train expects framework" in capsys.readouterr().err


def test_curve_subcommand(toy_cfg, tmp_path, capsys):
    out = tmp_path / "curve_out"
    assert main(["curve", "--config", toy_cfg, "--out-dir", str(out),
                 "--set", "steps=30", "--set", "pivot_steps=30"]) == 0
    assert (out / "curve.csv").exists()


def test_neighbors_subcommand(toy_cfg, tmp_path, capsys):
    out = tmp_path / "nn_out"
    assert main(["neighbors", "--config", toy_cfg, "--out-dir", str(out),
                 "--set", "steps=30", "--set", "pivot_steps=30", "-k", "2"]) == 0
    text = (out / "neighbors.txt").read_text()
    assert text.startswith("Query:")
    assert "[la]" in text and "[lb]" in text


def test_eval_retrieval_from_dumps(tmp_path, capsys, rng):
    x = rng.normal(size=(12, 6))
    w, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    src, tgt = tmp_path / "src.vec", tmp_path / "tgt.vec"
    write_dump(src, x)
    write_dump(tgt, x @ w)
    map_path = tmp_path / "map.ckpt"
    save_map(map_path, AlignmentMap(w, "lb", "la", 12, 0.0))
    out = tmp_path / "out"
    assert main(["eval-retrieval", "--src-emb", str(src), "--tgt-emb", str(tgt),
                 "--map", str(map_path), "--out-dir", str(out),
                 "--direction", "lb>la"]) == 0
    assert "accuracy=1.0000" in capsys.readouterr().out
    assert (out / "retrieval.csv").read_text().splitlines()[1].startswith("lb>la,1.0")


def test_eval_cldc_subcommand(tmp_path, capsys):
    cfg = tmp_path / "map.cfg"
    cfg.write_text("framework=sentence_map\nencoder=sif\ncipher_vocab=40\n"
                   "cipher_sentences=300\ndim=16\nsplits=100,200\ntest_size=60\nseed=4\n")
    out = tmp_path / "out"
    assert main(["eval-cldc", "--config", str(cfg), "--out-dir", str(out),
                 "--docs", "80"]) == 0
    lines = (out / "cldc.csv").read_text().splitlines()
    assert lines[0] == "train_lang,test_lang,accuracy"
    assert len(lines) == 3


def test_eval_cldc_embeds_each_side_in_one_batched_call(tmp_path, monkeypatch):
    calls = []
    final_embedders = cli._final_embedders

    def counting(cfg):
        data, exp, embed_src, embed_tgt = final_embedders(cfg)

        def counted(side, embed):
            def batched(sentences):
                calls.append((side, len(sentences)))
                return embed(sentences)
            return batched
        return data, exp, counted("src", embed_src), counted("tgt", embed_tgt)
    monkeypatch.setattr(cli, "_final_embedders", counting)
    cfg = tmp_path / "map.cfg"
    cfg.write_text("framework=sentence_map\nencoder=sif\ncipher_vocab=40\n"
                   "cipher_sentences=300\ndim=16\nsplits=100,200\ntest_size=60\nseed=4\n")
    assert main(["eval-cldc", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
                 "--docs", "40"]) == 0
    assert sorted(side for side, _ in calls) == ["src", "tgt"]
    assert all(n > 40 for _, n in calls)  # every distinct sentence of 40 documents at once


def test_numeric_failure_exits_2(tmp_path, capsys):
    x = np.zeros((4, 3))  # zero-norm rows make the cosine undefined
    src, tgt = tmp_path / "src.vec", tmp_path / "tgt.vec"
    write_dump(src, x)
    write_dump(tgt, x)
    assert main(["eval-retrieval", "--src-emb", str(src), "--tgt-emb", str(tgt)]) == 2
    assert "zero-norm" in capsys.readouterr().err


def test_empty_embedding_file_fails_without_traceback(tmp_path, rng):
    empty, ok = tmp_path / "empty.vec", tmp_path / "ok.vec"
    empty.write_text("")
    write_dump(ok, rng.normal(size=(4, 3)))
    proc = run_cli(tmp_path, "eval-retrieval", "--src-emb", str(empty), "--tgt-emb", str(ok))
    assert proc.returncode != 0
    assert "empty.vec" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_map_without_metadata_fails_without_traceback(tmp_path, rng):
    x = rng.normal(size=(4, 3))
    write_dump(tmp_path / "a.vec", x)
    write_dump(tmp_path / "b.vec", x)
    save_checkpoint(tmp_path / "bare.ckpt", {"W": np.eye(3)})
    proc = run_cli(tmp_path, "eval-retrieval", "--src-emb", "a.vec", "--tgt-emb", "b.vec",
                   "--map", "bare.ckpt")
    assert proc.returncode == 2
    assert "bare.ckpt has no src= comment" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_free_text_map_comment_fails_without_traceback(tmp_path, rng):
    x = rng.normal(size=(4, 3))
    src, tgt = tmp_path / "a.vec", tmp_path / "b.vec"
    write_dump(src, x)
    write_dump(tgt, x)
    save_map(tmp_path / "handmade.ckpt", AlignmentMap(np.eye(3), "lb", "la", 4, 0.0))
    lines = (tmp_path / "handmade.ckpt").read_text().splitlines(keepends=True)
    lines[1] = "# made by hand\n"
    (tmp_path / "handmade.ckpt").write_text("".join(lines))
    proc = run_cli(tmp_path, "eval-retrieval", "--src-emb", str(src), "--tgt-emb", str(tgt),
                   "--map", str(tmp_path / "handmade.ckpt"))
    assert proc.returncode == 2
    assert "handmade.ckpt" in proc.stderr and "'made'" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("record, message", [
    ("W", "bad shape record for tensor 'W': ''"),
    ("W two 3 3", "bad shape record for tensor 'W': 'two 3 3'"),
    ("W 2 3 3.0", "bad shape record for tensor 'W': '2 3 3.0'"),
    ("W 2 -3 -3", "bad shape record for tensor 'W': '2 -3 -3'"),
    ("W 2 3", "bad shape record for tensor 'W': '2 3'"),
    ("W 2 3 3\n1.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 one", "tensor 'W': could not convert string "
                                                     "to float: 'one'")],
    ids=["no-ndim", "non-integer-ndim", "non-integer-dim", "negative-dim", "too-few-dims",
         "non-numeric-value"])
def test_malformed_map_record_fails_without_traceback(tmp_path, rng, record, message):
    x = rng.normal(size=(4, 3))
    write_dump(tmp_path / "a.vec", x)
    write_dump(tmp_path / "b.vec", x)
    (tmp_path / "bad.ckpt").write_text(
        "XLALIGN-CKPT 1\n# src=lb tgt=la pairs=4 residual=0.0\n" + record + "\n")
    proc = run_cli(tmp_path, "eval-retrieval", "--src-emb", "a.vec", "--tgt-emb", "b.vec",
                   "--map", "bad.ckpt")
    assert proc.returncode == 2
    assert f"bad.ckpt: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_map_that_apply_map_cannot_invert_fails_without_traceback(tmp_path, rng):
    x = rng.normal(size=(4, 3))
    write_dump(tmp_path / "a.vec", x)
    write_dump(tmp_path / "b.vec", x)
    save_checkpoint(tmp_path / "bad.ckpt", {"W": 2.0 * np.eye(3)},
                    comments=["src=lb tgt=la pairs=-5 residual=-1.0"])
    proc = run_cli(tmp_path, "eval-retrieval", "--src-emb", "a.vec", "--tgt-emb", "b.vec",
                   "--map", "bad.ckpt")
    assert proc.returncode == 2
    assert "bad.ckpt: W is not orthogonal" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_finite_dump_fails_without_traceback(tmp_path, rng):
    x = rng.normal(size=(5, 3))
    write_dump(tmp_path / "a.vec", x)
    x[3, 1] = np.nan
    write_dump(tmp_path / "b.vec", x)
    proc = run_cli(tmp_path, "eval-retrieval", "--src-emb", "a.vec", "--tgt-emb", "b.vec")
    assert proc.returncode == 2
    assert "non-finite norm at target row 3" in proc.stderr
    assert "accuracy=" not in proc.stdout
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("setting", [
    "dim=0", "hidden=-1", "batch=0", "steps=0", "min_count=0", "splits=0", "p_del=2", "lr=nan",
    "languages=la,la", "cipher_vocab=9", "cipher_min_len=5 cipher_max_len=3",
    "framework=joint_infersent cipher_vocab=10", "splits=5000 cipher_sentences=300"])
def test_out_of_range_setting_is_validation_error(setting, tmp_path):
    """`setting` holds one or more space-separated KEY=VALUE overrides."""
    overrides = [arg for item in setting.split() for arg in ("--set", item)]
    proc = run_cli(tmp_path, "run", *overrides)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
