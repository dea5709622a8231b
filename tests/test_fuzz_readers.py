"""Mutations of valid files that xlalign's own writers produce.

Every reader either returns a value that passes its own checks or raises
`ConfigError` with the file's path in its message. Through the command line
no mutated file prints "runtime failure:" (the last-resort branch of
`cli.main`) or escapes `main` as an exception: a bad file exits 1, a
non-finite value is a numeric failure and exits 2.

The mutations are truncation, a flipped bit (which can make a byte that is
not UTF-8), an inserted byte that is not UTF-8, a dropped or duplicated line,
two swapped fields of a line, and a field replaced by `nan` or `inf`.
Hypothesis runs derandomized with a bounded number of examples, so the suite
stays deterministic and takes a few seconds.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xlalign.cipher import gen_cipher_corpus, read_corpus_files, write_corpus_files
from xlalign.cli import main
from xlalign.config import ConfigError, ExperimentConfig, load_config
from xlalign.encoders import EncoderParams, new_encoder
from xlalign.mapping import AlignmentMap, load_map, save_map
from xlalign.pipeline import load_params, save_params
from xlalign.text import load_word2vec, save_word2vec

from conftest import write_dump

FUZZ = settings(derandomize=True, deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
CLI_FUZZ = settings(FUZZ, max_examples=50)


@st.composite
def mutated(draw, data):
    """`data` (the bytes of a valid file) after one mutation."""
    kind = draw(st.sampled_from(["truncate", "flip", "non-utf8", "drop-line", "duplicate-line",
                                 "swap-fields", "non-finite"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ 1 << draw(st.integers(0, 7))]) + data[i + 1:]
    if kind == "non-utf8":
        i = draw(st.integers(0, len(data)))
        return data[:i] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[i:]
    lines = data.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop-line":
        del lines[i]
    elif kind == "duplicate-line":
        lines.insert(i, lines[i])
    else:
        parts = re.split(rb"([ =\n])", lines[i])  # fields at even positions
        fields = parts[::2]
        j, k = (draw(st.integers(0, len(fields) - 1)) for _ in range(2))
        if kind == "swap-fields":
            fields[j], fields[k] = fields[k], fields[j]
        else:
            fields[j] = draw(st.sampled_from([b"nan", b"inf", b"-inf"]))
        parts[::2] = fields
        lines[i] = b"".join(parts)
    return b"".join(lines)


def _word_vectors(path):
    save_word2vec(path, ["w000", "w001", "w002"], np.random.default_rng(1).normal(size=(3, 4)))


def _alignment_map(path):
    w, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(3, 3)))
    save_map(path, AlignmentMap(w, "lb", "la", 5, 0.25))


def _encoder(path):
    save_params(path, new_encoder(6, 3, 2, "la", seed=3))


def _config(path):
    cfg = ExperimentConfig(framework="sentence_map", encoder="sif", splits=(40, 80))
    path.write_text("\n".join(cfg.as_lines()) + "\n", encoding="utf-8")


# file name -> (writer, reader, a check of what the reader returns)
READERS = {
    "words.vec": (_word_vectors, load_word2vec,
                  lambda value: value[1].ndim == 2 and len(value[1]) == len(value[0])),
    "map.ckpt": (_alignment_map, load_map,
                 lambda m: m.w.shape == (m.dim, m.dim) and m.n_pairs >= 1 and m.residual >= 0),
    "encoder.ckpt": (_encoder, lambda path: load_params(path, EncoderParams),
                     lambda enc: isinstance(enc, EncoderParams)),
    "run.cfg": (_config, load_config, lambda cfg: isinstance(cfg, ExperimentConfig)),
}


def _value_or_config_error_naming(path, read):
    """read()'s value, or None once its ConfigError is seen to name `path`."""
    try:
        return read()
    except ConfigError as exc:
        assert str(path) in str(exc)
        return None


@pytest.mark.parametrize("name", READERS)
@FUZZ
@given(data=st.data())
def test_a_mutated_file_reads_to_a_checked_value_or_a_config_error_naming_it(tmp_path, name,
                                                                              data):
    write, read, check = READERS[name]
    path = tmp_path / name
    write(path)
    path.write_bytes(data.draw(mutated(path.read_bytes())))
    value = _value_or_config_error_naming(path, lambda: read(path))
    assert value is None or check(value)


CORPUS_FILES = ["la.txt", "lb.txt", "dict.la-lb.txt", "nli.la.premises.txt", "nli.labels.txt"]


@FUZZ
@given(data=st.data())
def test_a_mutated_corpus_file_reads_to_a_corpus_or_a_config_error_naming_it(tmp_path, data):
    write_corpus_files(tmp_path, gen_cipher_corpus(12, 8, (3, 5), seed=2, nli_size=6))
    path = tmp_path / data.draw(st.sampled_from(CORPUS_FILES))
    path.write_bytes(data.draw(mutated(path.read_bytes())))
    cc = _value_or_config_error_naming(
        path, lambda: read_corpus_files(tmp_path, ("lb", "la"), nli=True, dictionary=True))
    assert cc is None or all(set(nli.labels) <= {0, 1, 2} for nli in cc.nli.values())


PREFIXES = {0: "", 1: "error: ", 2: "numeric failure: "}


def _exits_cleanly(capsys, argv):
    """(exit code, stderr) of main(argv), checked to be success, a bad input or
    a numeric failure."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code in PREFIXES and err.startswith(PREFIXES[code])
    assert "runtime failure:" not in err and "Traceback" not in err
    return code, err


@pytest.mark.parametrize("mutated_side", ["src", "map"])
@CLI_FUZZ
@given(data=st.data())
def test_eval_retrieval_on_a_mutated_dump_or_map_exits_1_naming_it_or_2(tmp_path, capsys,
                                                                        mutated_side, data):
    x = np.random.default_rng(4).normal(size=(5, 3))
    paths = {side: tmp_path / name for side, name in
             (("src", "src.vec"), ("tgt", "tgt.vec"), ("map", "map.ckpt"))}
    write_dump(paths["src"], x)
    write_dump(paths["tgt"], x)
    _alignment_map(paths["map"])
    path = paths[mutated_side]
    path.write_bytes(data.draw(mutated(path.read_bytes())))
    code, err = _exits_cleanly(capsys, [
        "eval-retrieval", "--src-emb", str(paths["src"]), "--tgt-emb", str(paths["tgt"]),
        "--map", str(paths["map"])])
    assert code != 1 or str(path) in err


@CLI_FUZZ
@given(data=st.data())
def test_run_on_a_mutated_config_exits_0_1_or_2(tmp_path, capsys, data):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(ExperimentConfig(
        framework="sentence_map", encoder="sif", cipher_vocab=30, dim=8, hidden=4, splits=(40,),
        test_size=30, seed=3).as_lines()) + "\n")
    cfg.write_bytes(data.draw(mutated(cfg.read_bytes())))
    # the overrides bound the work of any config the mutation leaves valid, the
    # defaults of a truncated one included
    _exits_cleanly(capsys, ["run", "--config", str(cfg), "--set", "cipher_sentences=120",
                            "--set", "steps=1", "--set", "pivot_steps=1",
                            "--out-dir", str(tmp_path / "out")])


@CLI_FUZZ
@given(data=st.data())
def test_run_on_a_mutated_corpus_dir_exits_0_1_or_2(tmp_path, capsys, data):
    corpus_dir = tmp_path / "corpus"
    write_corpus_files(corpus_dir, gen_cipher_corpus(30, 120, (3, 6), seed=5))
    save_word2vec(corpus_dir / "la.vec", [f"w{i:03d}" for i in range(6)],
                  np.random.default_rng(6).normal(size=(6, 8)))
    path = corpus_dir / data.draw(st.sampled_from(["la.txt", "dict.la-lb.txt", "la.vec"]))
    path.write_bytes(data.draw(mutated(path.read_bytes())))
    overrides = ("framework=word_dict_map", "encoder=sif", f"corpus_dir={corpus_dir}", "dim=8",
                 "splits=40", "test_size=30")
    _exits_cleanly(capsys, ["run", *(arg for item in overrides for arg in ("--set", item)),
                            "--out-dir", str(tmp_path / "out")])
