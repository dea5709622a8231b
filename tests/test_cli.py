import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xlalign
from xlalign import cli, optim, pipeline
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


def set_flags(*items):
    """`--set` flags for the KEY=VALUE `items`."""
    return [arg for item in items for arg in ("--set", item)]


def gen_corpus(tmp_path, *items):
    """`gen-corpus` of 150 rows of a 30-word cipher, as `items` change it, into
    `tmp_path`/corpus."""
    corpus_dir = tmp_path / "corpus"
    assert main(["gen-corpus", *set_flags("cipher_vocab=30", "cipher_sentences=100",
                                         "test_size=50", *items),
                 "--out-dir", str(corpus_dir)]) == 0
    return corpus_dir


def test_gen_corpus_writes_files(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen-corpus", "--out-dir", str(out), *set_flags(
        "framework=joint_infersent", "cipher_vocab=20", "cipher_sentences=20", "test_size=5",
        "nli_size=9")]) == 0
    assert (out / "la.txt").exists() and (out / "lb.txt").exists()
    assert len((out / "la.txt").read_text().splitlines()) == 25
    assert (out / "dict.la-lb.txt").exists()
    assert (out / "nli.labels.txt").exists()


@pytest.mark.parametrize("items, message", [
    (["cipher_vocab=5"], "vocab_size must be >= 10"),
    (["languages=la,la"], "distinct languages"),
    (["cipher_sentences=0"], "cipher_sentences must be at least 1"),
    (["framework=joint_infersent", "cipher_vocab=10"], "NLI generation needs"),
    (["nli_size=-1"], "nli_size must be at least 1"),
], ids=["vocab-5", "same-languages", "sentences-0", "nli-vocab-10", "nli-negative"])
def test_bad_gen_corpus_flag_is_validation_error(tmp_path, capsys, items, message):
    out = tmp_path / "corpus"
    assert main(["gen-corpus", "--out-dir", str(out), *set_flags(*items)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


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


def test_a_nul_character_in_a_config_value_is_a_validation_error(tmp_path, capsys):
    cfg = tmp_path / "nul.cfg"
    cfg.write_bytes(b"out_dir=o\x00t\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: bad value for 'out_dir': 'o\\x00t' (a NUL character)\n")


def test_a_two_row_heldout_pool_reports_both_neighbours(tmp_path):
    out = tmp_path / "out"
    assert main(["run", *(arg for item in ("framework=sentence_map", "encoder=sif",
                                           "cipher_sentences=100", "splits=20", "test_size=2")
                          for arg in ("--set", item)), "--out-dir", str(out)]) == 0
    # two queries, each against two pools of two neighbours
    assert sum(line.startswith("    ") for line in
               (out / "neighbors.txt").read_text().splitlines()) == 2 * 2 * 2


def test_missing_corpus_file_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"corpus_dir={tmp_path / 'nonexistent'}\n")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert str(tmp_path / "nonexistent" / "lb.txt") in capsys.readouterr().err


def test_corpus_files_round_trip(tmp_path):
    corpus_dir = gen_corpus(tmp_path, "seed=5")
    cfg = tmp_path / "files.cfg"
    cfg.write_text(
        f"framework=sentence_map\nencoder=sif\ncorpus_dir={corpus_dir}\n"
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


SIF_MAP = ("framework=sentence_map\nencoder=sif\ncipher_vocab=40\n"
           "cipher_sentences=300\ndim=16\nsplits=100,200\ntest_size=60\nseed=4\n")


def test_eval_cldc_subcommand(tmp_path, capsys):
    cfg = tmp_path / "map.cfg"
    cfg.write_text(SIF_MAP)
    out = tmp_path / "out"
    assert main(["eval-cldc", "--config", str(cfg), "--out-dir", str(out),
                 "--docs", "80"]) == 0
    lines = (out / "cldc.csv").read_text().splitlines()
    assert lines[0] == "train_lang,test_lang,accuracy"
    assert len(lines) == 3


def test_eval_cldc_embeds_each_side_in_one_batched_call(tmp_path, monkeypatch):
    calls = []
    final_embedders = cli._final_embedders

    def counting(cfg, data):
        exp, embedders = final_embedders(cfg, data)

        def counted(lang, embed):
            def batched(sentences):
                calls.append((lang, len(sentences)))
                return embed(sentences)
            return batched
        return exp, {lang: counted(lang, embed) for lang, embed in embedders.items()}
    monkeypatch.setattr(cli, "_final_embedders", counting)
    cfg = tmp_path / "map.cfg"
    cfg.write_text(SIF_MAP)
    assert main(["eval-cldc", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
                 "--docs", "40"]) == 0
    assert sorted(lang for lang, _ in calls) == ["la", "lb"]
    assert all(n > 40 for _, n in calls)  # every distinct sentence of 40 documents at once


@pytest.mark.parametrize("languages", ["la,lb", "lb,la"])
def test_reports_list_other_to_pivot_first(tmp_path, languages):
    pivot, other = languages.split(",")
    forward, backward = f"{other}>{pivot}", f"{pivot}>{other}"
    cfg = tmp_path / "map.cfg"
    cfg.write_text(SIF_MAP + f"languages={languages}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert main(["eval-cldc", "--config", str(cfg), "--out-dir", str(out), "--docs", "40"]) == 0

    def rows(name):
        return [line.split(",") for line in (out / name).read_text().splitlines()[1:]]
    assert [r[0] for r in rows("retrieval.csv")] == [forward, backward]
    assert [(r[0], r[2]) for r in rows("curve.csv")] == [
        (size, direction) for size in ("100", "200") for direction in (forward, backward)]
    assert [r[:2] for r in rows("cldc.csv")] == [[pivot, other], [other, pivot]]
    queries = (out / "neighbors.txt").read_text().split("\n\n")
    other_lines = set((out / "corpus" / f"{other}.txt").read_text().splitlines())
    assert len(queries) == 5
    for block in queries:
        lines = block.splitlines()
        assert lines[0].removeprefix("Query: ") in other_lines
        assert [line for line in lines if line.startswith("  [")] == ["  [la]", "  [lb]"]


@pytest.mark.parametrize("args, flag", [
    (["neighbors", "-k", "-1"], "-k"),
    (["neighbors", "-k", "0"], "-k"),
    (["neighbors", "--queries", "0"], "--queries"),
    (["neighbors", "--queries", "-2"], "--queries"),
    (["eval-cldc", "--docs", "0"], "--docs"),
    (["eval-cldc", "--docs", "3"], "--docs"),
    (["eval-cldc", "--docs", "7"], "--docs"),
], ids=["k-negative", "k-zero", "queries-zero", "queries-negative", "docs-zero", "docs-3",
        "docs-7"])
def test_out_of_range_flag_is_validation_error(tmp_path, capsys, args, flag):
    cfg = tmp_path / "map.cfg"
    cfg.write_text(SIF_MAP)
    out = tmp_path / "out"
    assert main([*args, "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} must be at least ")
    assert not out.exists()


def test_smallest_accepted_flags_run(tmp_path, capsys):
    cfg = tmp_path / "map.cfg"
    cfg.write_text(SIF_MAP)
    out = tmp_path / "out"
    assert main(["neighbors", "-k", "1", "--queries", "1", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    assert (out / "neighbors.txt").read_text().count("Query:") == 1
    assert main(["eval-cldc", "--docs", "8", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert len((out / "cldc.csv").read_text().splitlines()) == 3


def test_k_above_heldout_pool_is_validation_error(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "map.cfg"
    cfg.write_text(SIF_MAP)  # test_size=60
    out = tmp_path / "out"
    assert main(["neighbors", "-k", "60", "--queries", "1", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    monkeypatch.setattr(cli, "materialize", lambda cfg: pytest.fail("trained before the -k check"))
    assert main(["neighbors", "-k", "61", "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: -k 61 exceeds the held-out pool (test_size=60)\n"


TINY = ["cipher_vocab=30", "cipher_sentences=120", "test_size=30", "dim=8", "hidden=8",
        "batch=8", "steps=20", "pivot_steps=20", "splits=40,80", "nli_size=30", "seed=5"]


def _tree(root):
    """{relative path: bytes} of every file under `root`."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command, settings", [
    ("run", ["framework=transfer"]),
    ("run", ["framework=joint_seq2seq"]),
    ("run", ["framework=joint_infersent"]),
    ("run", ["framework=sentence_map", "encoder=sif"]),
    ("run", ["framework=word_dict_map", "encoder=sif"]),
    ("eval-cldc", ["framework=sentence_map", "encoder=sif"]),
], ids=["transfer", "joint_seq2seq", "joint_infersent", "sentence_map-sif", "word_dict_map",
        "eval-cldc"])
def test_reading_a_runs_corpus_files_gives_its_bytes(tmp_path, command, settings):
    """A command on the generated corpus and the same command on the `corpus/`
    files that `run` wrote for it write the same bytes, apart from the
    manifest and the corpus files."""
    sets = [a for s in TINY + settings for a in ("--set", s)]
    extra = ["--docs", "40"] if command == "eval-cldc" else []
    run_dir, read = tmp_path / "run", tmp_path / "read"
    assert main(["run", *sets, "--out-dir", str(run_dir)]) == 0
    generated = run_dir
    if command != "run":
        generated = tmp_path / "generated"
        assert main([command, *sets, *extra, "--out-dir", str(generated)]) == 0
    assert main([command, *sets, *extra, "--set", f"corpus_dir={run_dir / 'corpus'}",
                 "--out-dir", str(read)]) == 0
    expected = {name: data for name, data in _tree(generated).items()
                if name != "manifest.txt" and not name.startswith("corpus")}
    assert expected and _tree(read).keys() - {"manifest.txt"} == expected.keys()
    for name, data in expected.items():
        assert (read / name).read_bytes() == data, name


@pytest.mark.parametrize("framework", ["transfer", "joint_infersent"])
def test_gen_corpus_writes_the_corpus_files_run_writes(tmp_path, capsys, framework):
    run_dir, generated = tmp_path / "run", tmp_path / "generated"
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("\n".join([*TINY, f"framework={framework}", f"out_dir={run_dir}"]) + "\n")
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["gen-corpus", "--config", str(cfg), "--out-dir", str(generated)]) == 0
    files = _tree(generated)
    assert files == _tree(run_dir / "corpus")
    assert sorted(capsys.readouterr().out.splitlines()) == [str(generated / n) for n in files]
    assert ("nli.labels.txt" in files) == (framework == "joint_infersent")


def test_gen_corpus_with_a_corpus_dir_is_validation_error(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen-corpus", "--set", f"corpus_dir={tmp_path}", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: gen-corpus generates a corpus; corpus_dir={tmp_path} is set\n")
    assert not out.exists()


@pytest.mark.parametrize("command, framework, missing", [
    ("eval-cldc", "sentence_map", "dict.la-lb.txt"),
    ("run", "word_dict_map", "dict.la-lb.txt"),
    ("run", "joint_infersent", "nli.lb.premises.txt"),
], ids=["eval-cldc", "word_dict_map", "joint_infersent"])
def test_corpus_dir_without_a_needed_file_exits_before_training(tmp_path, capsys, monkeypatch,
                                                                 command, framework, missing):
    corpus_dir = gen_corpus(tmp_path, "framework=joint_infersent", "nli_size=30")
    (corpus_dir / missing).unlink()
    for module in (cli, pipeline):
        monkeypatch.setattr(module, "Experiment",
                            lambda *a: pytest.fail("trained before the corpus check"))
    encoder = "bilstm_maxpool" if framework == "joint_infersent" else "sif"
    assert main([command, "--set", f"framework={framework}", "--set", f"encoder={encoder}",
                 "--set", f"corpus_dir={corpus_dir}", "--set", "splits=40,80",
                 "--set", "test_size=40", "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(corpus_dir / missing) in err


@pytest.mark.parametrize("command, framework", [
    ("run", "word_dict_map"),
    ("eval-cldc", "sentence_map"),
], ids=["word_dict_map", "eval-cldc"])
def test_a_corpus_dir_serves_either_language_as_pivot(tmp_path, command, framework):
    corpus_dir = gen_corpus(tmp_path)  # writes dict.la-lb.txt
    extra = ["--docs", "40"] if command == "eval-cldc" else []
    for languages in ("la,lb", "lb,la"):
        assert main([command, *extra, "--set", f"framework={framework}", "--set", "encoder=sif",
                     "--set", f"languages={languages}", "--set", f"corpus_dir={corpus_dir}",
                     "--set", "splits=40,80", "--set", "test_size=40",
                     "--out-dir", str(tmp_path / languages)]) == 0, languages


@pytest.mark.parametrize("framework, name, edit, message", [
    ("sentence_map", "lb.txt", lambda b: b + b"k001\n", "line counts differ"),
    ("word_dict_map", "dict.la-lb.txt", lambda b: b"w000 k001 k002\n" + b, "expected two words"),
    ("sentence_map", "la.vec", lambda b: b"2 12\nw000" + b" 0.5" * 12 + b"\nw001 0.5\n",
     ":3: expected a word and 12 values"),
    ("sentence_map", "lb.txt", lambda b: b"\xff" + b, ": not UTF-8 text"),
], ids=["line-count-mismatch", "three-word-dictionary-line", "short-vec-row", "non-utf8"])
def test_bad_corpus_file_is_validation_error_naming_it(tmp_path, capsys, framework, name, edit,
                                                       message):
    corpus_dir = gen_corpus(tmp_path)
    path = corpus_dir / name
    path.write_bytes(edit(path.read_bytes() if path.exists() else b""))
    assert main(["run", "--set", f"framework={framework}", "--set", "encoder=sif",
                 "--set", f"corpus_dir={corpus_dir}", "--set", "dim=12", "--set", "splits=40,80",
                 "--set", "test_size=40", "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and message in err
    assert "Traceback" not in err


def test_only_the_sif_encoder_reads_vec_files(tmp_path, capsys):
    corpus_dir = gen_corpus(tmp_path)
    out = tmp_path / "out"
    settings = [arg for item in (f"corpus_dir={corpus_dir}", "dim=12", "hidden=8", "steps=20",
                                 "pivot_steps=20", "splits=40", "test_size=40")
                for arg in ("--set", item)]

    def transfer_files():
        assert main(["run", "--set", "framework=transfer", *settings, "--out-dir", str(out)]) == 0
        files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        shutil.rmtree(out)
        return files
    without_vec = transfer_files()
    bad = corpus_dir / "lb.vec"
    bad.write_text("2 12\nw000" + " 0.5" * 12 + "\nw001 0.5\n")
    assert transfer_files() == without_vec
    capsys.readouterr()
    assert main(["run", "--set", "framework=sentence_map", "--set", "encoder=sif", *settings,
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{bad}:3: expected a word and 12 values" in err


# every subcommand, with the flags it needs to get past its own checks
SUBCOMMAND_FLAGS = {
    "gen-corpus": [], "train": ["--set", "framework=joint_seq2seq"], "transfer": [],
    "fit-map": ["--set", "framework=sentence_map", "--set", "encoder=sif"], "run": [],
    "curve": [], "neighbors": [], "eval-retrieval": ["--src-emb", "src.vec", "--tgt-emb", "tgt.vec"],
    "eval-cldc": [],
}


@pytest.mark.parametrize("command, flags", SUBCOMMAND_FLAGS.items(), ids=list(SUBCOMMAND_FLAGS))
def test_an_existing_file_as_out_dir_exits_1_before_any_work(tmp_path, capsys, monkeypatch,
                                                            command, flags):
    def no_work(*args, **kwargs):
        pytest.fail("worked before creating the output directory")
    for module in (cli, pipeline):
        monkeypatch.setattr(module, "materialize", no_work)
        monkeypatch.setattr(module, "Experiment", no_work)
    monkeypatch.setattr(cli, "load_word2vec", no_work)
    out = tmp_path / "taken"
    out.write_text("a file\n")
    assert main([command, *flags, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
    assert out.read_text() == "a file\n"


@pytest.mark.parametrize("args", [
    ["run", "--out-dir", "{file}/out"],
    ["curve", "--config", "{file}/run.cfg"],
    ["gen-corpus", "--out-dir", "{file}/corpus"],
], ids=["out-dir", "config", "gen-corpus"])
def test_a_path_through_a_file_exits_1(tmp_path, capsys, args):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([arg.format(file=blocker) for arg in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Not a directory" in err and "Traceback" not in err


@pytest.mark.parametrize("source", ["cipher_vocab=10", "cipher_vocab=11", "corpus_dir"])
def test_eval_cldc_rejects_a_vocabulary_too_small_before_training(tmp_path, capsys, monkeypatch,
                                                                  source):
    if source == "corpus_dir":
        source = f"corpus_dir={gen_corpus(tmp_path, 'cipher_vocab=11')}"
        capsys.readouterr()
    for module in (cli, pipeline):
        monkeypatch.setattr(module, "Experiment",
                            lambda *a: pytest.fail("trained before the document check"))
    assert main(["eval-cldc", "--set", source, "--set", "cipher_sentences=150",
                 "--set", "splits=40,80", "--set", "test_size=40",
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: vocabulary too small for 4 topic bands\n"


def test_svd_that_does_not_converge_is_numeric_failure(tmp_path, capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    cfg = tmp_path / "map.cfg"
    cfg.write_text(SIF_MAP)
    assert main(["fit-map", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "numeric failure: SVD did not converge\n"


def test_numeric_failure_exits_2(tmp_path, capsys):
    x = np.zeros((4, 3))  # zero-norm rows make the cosine undefined
    src, tgt = tmp_path / "src.vec", tmp_path / "tgt.vec"
    write_dump(src, x)
    write_dump(tgt, x)
    assert main(["eval-retrieval", "--src-emb", str(src), "--tgt-emb", str(tgt)]) == 2
    assert "zero-norm" in capsys.readouterr().err


@pytest.mark.parametrize("body, line", [
    ("2 2\na 0.1 0.2\nb 0.3 zz\n", 3),
    ("2 2\na 0.1 0.2\nb 0.3\n", 3),
    ("3 2\na 0.1 0.2\nb 0.3 0.4\n", 1),
], ids=["non-numeric", "too-few-values", "count-mismatch"])
def test_malformed_embedding_file_exits_1_naming_file_and_line(tmp_path, capsys, rng, body,
                                                               line):
    bad, ok = tmp_path / "bad.vec", tmp_path / "ok.vec"
    bad.write_text(body)
    write_dump(ok, rng.normal(size=(2, 2)))
    assert main(["eval-retrieval", "--src-emb", str(ok), "--tgt-emb", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{line}: ")
    assert "Traceback" not in err


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
    assert proc.returncode == 1
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
    assert proc.returncode == 1
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
    assert proc.returncode == 1
    assert f"error: bad.ckpt: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_map_that_apply_map_cannot_invert_fails_without_traceback(tmp_path, rng):
    x = rng.normal(size=(4, 3))
    write_dump(tmp_path / "a.vec", x)
    write_dump(tmp_path / "b.vec", x)
    save_checkpoint(tmp_path / "bad.ckpt", {"W": 2.0 * np.eye(3)},
                    comments=["src=lb tgt=la pairs=-5 residual=-1.0"])
    proc = run_cli(tmp_path, "eval-retrieval", "--src-emb", "a.vec", "--tgt-emb", "b.vec",
                   "--map", "bad.ckpt")
    assert proc.returncode == 1
    assert "error: bad.ckpt: W is not orthogonal" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_numeric_failure_in_training_names_the_step_and_the_op(toy_cfg, tmp_path, monkeypatch,
                                                                 capsys):
    # a NaN written into a parameter after the second Adam update (as an
    # overflowing update would) fails step 2's forward pass at the scan
    apply, updates = optim.Adam.apply, []

    def poisoned(self, params, grads):
        apply(self, params, grads)
        updates.append(1)
        if len(updates) == 2:
            next(a for name, a in params.items() if name.endswith("fwd.w_rec"))[0, 0] = np.nan
    monkeypatch.setattr(optim.Adam, "apply", poisoned)
    assert main(["run", "--config", toy_cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "numeric failure: step 2: non-finite values in tensor produced by op 'lstm_scan'" in err
    assert "Traceback" not in err


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


def test_an_inf_dump_row_through_a_map_prints_only_the_diagnosis(tmp_path, rng):
    x = rng.normal(size=(4, 3))
    write_dump(tmp_path / "b.vec", x)
    x[1, 0] = np.inf
    write_dump(tmp_path / "a.vec", x)
    save_map(tmp_path / "map.ckpt", AlignmentMap(np.eye(3), "lb", "la", 4, 0.0))
    proc = run_cli(tmp_path, "eval-retrieval", "--src-emb", "a.vec", "--tgt-emb", "b.vec",
                   "--map", "map.ckpt")
    assert proc.returncode == 2
    assert proc.stderr == ("numeric failure: non-finite norm at source row 1: the embedding "
                           "holds nan or inf, or overflows\n")


def sif_map_run(corpus_dir, out):
    """`run` of a SIF sentence map, which trains nothing, on the files of `corpus_dir`."""
    return ["run", *(arg for item in ("framework=sentence_map", "encoder=sif",
                                      f"corpus_dir={corpus_dir}", "dim=12", "splits=40,80",
                                      "test_size=40") for arg in ("--set", item)),
            "--out-dir", str(out)]


@pytest.mark.parametrize("reader", ["corpus_dir", "eval-retrieval"])
def test_a_short_vec_row_exits_1_naming_file_and_line_whichever_reader_reads_it(tmp_path, capsys,
                                                                               reader):
    bad = gen_corpus(tmp_path) / "la.vec"
    bad.write_text("2 12\nw000" + " 0.5" * 12 + "\nw001 0.5\n")
    capsys.readouterr()
    assert main(sif_map_run(bad.parent, tmp_path / "out") if reader == "corpus_dir" else
                ["eval-retrieval", "--src-emb", str(bad), "--tgt-emb", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}:3: expected a word and 12 values, got 1 values after 'w001'\n"


@pytest.mark.parametrize("reader, message", [
    ("corpus_dir", "svd input contains non-finite values"),
    ("eval-retrieval", "non-finite norm at source row 0: the embedding holds nan or inf, "
                       "or overflows"),
])
def test_a_nan_vec_value_is_a_numeric_failure_whichever_reader_reads_it(tmp_path, capsys,
                                                                        reader, message):
    bad = gen_corpus(tmp_path) / "la.vec"
    bad.write_text("2 12\nw000 nan" + " 0.5" * 11 + "\nw001" + " 0.5" * 12 + "\n")
    capsys.readouterr()
    assert main(sif_map_run(bad.parent, tmp_path / "out") if reader == "corpus_dir" else
                ["eval-retrieval", "--src-emb", str(bad), "--tgt-emb", str(bad)]) == 2
    assert capsys.readouterr().err == f"numeric failure: {message}\n"


def test_a_header_only_vec_file_is_an_empty_table(tmp_path, capsys):
    corpus_dir = gen_corpus(tmp_path)
    assert main(sif_map_run(corpus_dir, tmp_path / "without")) == 0
    empty = corpus_dir / "la.vec"
    empty.write_text("0 12\n")
    assert main(sif_map_run(corpus_dir, tmp_path / "with")) == 0
    for name in ("curve.csv", "retrieval.csv", "map.ckpt"):
        assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()
    capsys.readouterr()
    assert main(["eval-retrieval", "--src-emb", str(empty), "--tgt-emb", str(empty)]) == 1
    assert capsys.readouterr().err == (
        f"error: {empty} and {empty} cannot be paired: shapes (0, 12) and (0, 12); "
        "retrieval needs one shape of two rows or more\n")


@pytest.mark.parametrize("rows", [(4, 3), (1, 1)], ids=["different-shapes", "one-row"])
def test_dumps_that_cannot_be_paired_exit_1_naming_both_before_scoring(tmp_path, capsys,
                                                                       monkeypatch, rng, rows):
    src, tgt = tmp_path / "src.vec", tmp_path / "tgt.vec"
    write_dump(src, rng.normal(size=(rows[0], 3)))
    write_dump(tgt, rng.normal(size=(rows[1], 3)))
    monkeypatch.setattr(cli, "retrieval_accuracy", lambda *a, **k: pytest.fail("scored"))
    assert main(["eval-retrieval", "--src-emb", str(src), "--tgt-emb", str(tgt)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {src} and {tgt} cannot be paired: shapes ({rows[0]}, 3) and ({rows[1]}, 3); ")


@pytest.mark.parametrize("width, edit, message", [
    (3, lambda b: b.replace(b"src=lb", b"src=l\xff"), "not UTF-8 text ('utf-8' codec can't decode"),
    (4, lambda b: b, "map dim 4, {src} has dim 3"),
], ids=["non-utf8-byte", "other-dim"])
def test_a_map_file_fault_exits_1_naming_the_map(tmp_path, capsys, rng, width, edit, message):
    x = rng.normal(size=(4, 3))
    src, tgt, map_path = tmp_path / "a.vec", tmp_path / "b.vec", tmp_path / "map.ckpt"
    write_dump(src, x)
    write_dump(tgt, x)
    save_map(map_path, AlignmentMap(np.eye(width), "lb", "la", 4, 0.0))
    map_path.write_bytes(edit(map_path.read_bytes()))
    assert main(["eval-retrieval", "--src-emb", str(src), "--tgt-emb", str(tgt),
                 "--map", str(map_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {map_path}: {message.format(src=src)}")


@pytest.mark.parametrize("setting", [
    "dim=0", "hidden=-1", "batch=0", "steps=0", "min_count=0", "splits=0", "p_del=2", "lr=nan",
    "languages=la,la", "cipher_vocab=9",
    "framework=joint_infersent cipher_vocab=10", "splits=5000 cipher_sentences=300", "seed=-5"])
def test_out_of_range_setting_is_validation_error(setting, tmp_path):
    """`setting` holds one or more space-separated KEY=VALUE overrides."""
    overrides = [arg for item in setting.split() for arg in ("--set", item)]
    proc = run_cli(tmp_path, "run", *overrides)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_every_readme_command_line_parses(monkeypatch):
    """Each `xlalign` line of the README's Command line block reaches its command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("xlalign ")]
    called = []
    for name in dir(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, lambda args: called.append(args.command) or 0)
    for argv in lines:
        assert main(argv) == 0, argv
    assert lines and called == [argv[0] for argv in lines]
