import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xlalign
from xlalign.config import (_FIELD_TYPES, ENCODER_KINDS, FRAMEWORKS, ConfigError,
                            parse_config, validate_config)


def test_defaults_are_valid():
    cfg = parse_config("")
    assert cfg.framework == "transfer"
    assert cfg.splits == (100, 200, 500, 1000)


def test_parse_and_override():
    cfg = parse_config("framework=sentence_map\nencoder=sif\nsplits=10,20\n# comment\n",
                       overrides=["seed=9", "dim=8"])
    assert cfg.framework == "sentence_map"
    assert cfg.splits == (10, 20)
    assert cfg.seed == 9 and cfg.dim == 8


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_config("no_such_key=1")


def test_unknown_framework_names_field():
    with pytest.raises(ConfigError, match="framework 'foo'"):
        parse_config("framework=foo")


def test_unknown_encoder_rejected():
    with pytest.raises(ConfigError, match="encoder"):
        parse_config("encoder=bag_of_chars")


def test_framework_encoder_combination_checked():
    with pytest.raises(ConfigError, match="requires encoder bilstm_maxpool"):
        parse_config("framework=transfer\nencoder=sif")
    with pytest.raises(ConfigError, match="requires encoder sif"):
        parse_config("framework=word_dict_map\nencoder=bilstm_maxpool")


def test_splits_must_increase():
    with pytest.raises(ConfigError, match="increasing"):
        parse_config("splits=100,50")


def test_bad_line_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("framework transfer")


def test_digest_stable_and_sensitive():
    a = parse_config("seed=1")
    b = parse_config("seed=1")
    c = parse_config("seed=2")
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_languages_pivot_first():
    pivot, other = parse_config("languages=en,de").languages
    assert (pivot, other) == ("en", "de")


KEYS = sorted(_FIELD_TYPES)
VALUES = st.one_of(
    st.integers(-10**4, 10**4).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "nan", "inf", "-inf", "1e309", "9" * 5000, "la,la", "10,5", "0"]),
    st.sampled_from(FRAMEWORKS + ENCODER_KINDS + ("corpus", "/nonexistent/corpus")),
    st.text(max_size=12))
OVERRIDES = st.lists(st.builds("{}={}".format, st.sampled_from(KEYS) | st.text(max_size=8),
                               VALUES), max_size=6)


@settings(max_examples=400, deadline=None)
@given(OVERRIDES)
def test_fuzzed_overrides_raise_only_config_error(overrides):
    try:
        cfg = parse_config("", overrides)
    except ConfigError:
        return
    validate_config(cfg)


# each sample holds at least one invalid override, so no run starts training
CLI_SAMPLES = [["dim=-3"], ["lr=inf"], ["p_del=nan", "seed=2"], ["splits="], ["languages="],
               ["framework="], ["test_size=1"], ["p_swap=-0.5"], ["nope=1"], ["=5"],
               ["batch=1e309"], ["cipher_sentences=" + "9" * 5000]]


def test_invalid_overrides_exit_cleanly_from_the_cli(tmp_path):
    script = ("import json, sys\nfrom xlalign.cli import main\n"
              "print(json.dumps([main(['run', *[a for o in s for a in ('--set', o)]])"
              " for s in json.loads(sys.argv[1])]))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(xlalign.__file__))}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(CLI_SAMPLES)],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env)
    assert "Traceback" not in proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert len(codes) == len(CLI_SAMPLES) and set(codes) <= {0, 1}
