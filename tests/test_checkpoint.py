import numpy as np
import pytest

from xlalign.checkpoint import HEADER, load_checkpoint, save_checkpoint


def test_round_trip_exact_float64(tmp_path, rng):
    tensors = {
        "enc.emb": rng.normal(size=(5, 3)),
        "bias": rng.normal(size=4),
        "scalar": np.array(3.14159),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tensors)
    loaded, comments = load_checkpoint(path)
    assert comments == []
    assert set(loaded) == set(tensors)
    for name in tensors:
        np.testing.assert_array_equal(loaded[name], tensors[name])


def test_round_trip_float32_within_precision(tmp_path, rng):
    arr = rng.normal(size=(4, 4)).astype(np.float32)
    path = tmp_path / "f32.ckpt"
    save_checkpoint(path, {"w": arr})
    loaded, _ = load_checkpoint(path)
    np.testing.assert_array_equal(loaded["w"].astype(np.float32), arr)


def test_comments_round_trip(tmp_path):
    path = tmp_path / "meta.ckpt"
    save_checkpoint(path, {"W": np.eye(2)}, comments=["src=de tgt=en pairs=10 residual=0.5"])
    _, comments = load_checkpoint(path)
    assert comments == ["src=de tgt=en pairs=10 residual=0.5"]


def test_header_line(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, {"a": np.zeros(2)})
    assert path.read_text().splitlines()[0] == HEADER == "XLALIGN-CKPT 1"


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("NOT-A-CKPT\n")
    with pytest.raises(ValueError, match="header"):
        load_checkpoint(path)


def test_truncated_rejected(tmp_path):
    path = tmp_path / "trunc.ckpt"
    path.write_text(HEADER + "\nw 1 4\n1.0 2.0\n")
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_whitespace_name_rejected(tmp_path):
    with pytest.raises(ValueError, match="whitespace"):
        save_checkpoint(tmp_path / "x.ckpt", {"bad name": np.zeros(1)})


def test_repeated_name_rejected(tmp_path):
    path = tmp_path / "dup.ckpt"
    path.write_text(HEADER + "\nw 1 2\n1.0 2.0\nw 1 2\n3.0 4.0\n")
    with pytest.raises(ValueError, match="repeated tensor name 'w'"):
        load_checkpoint(path)


def test_failed_save_keeps_earlier_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.arange(3.0)})
    before = path.read_bytes()
    with pytest.raises(ValueError, match="whitespace"):
        save_checkpoint(path, {"ok": np.ones(2), "bad name": np.zeros(1)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_saved_bytes_are_the_plain_text_layout(tmp_path):
    path = tmp_path / "layout.ckpt"
    save_checkpoint(path, {"m": np.array([[1.0, 0.5], [-2.0, 0.1]]), "b": np.array([3.0]),
                           "s": np.array(0.25)}, comments=["k=v"])
    assert path.read_bytes() == (b"XLALIGN-CKPT 1\n# k=v\nm 2 2 2\n1.0 0.5\n-2.0 0.1\n"
                                 b"b 1 1\n3.0\ns 0\n0.25\n")
    assert [p.name for p in tmp_path.iterdir()] == ["layout.ckpt"]


@pytest.mark.parametrize("record", ["w", "w x", "w 1.0 2", "w 2 2", "w 1 -2", "w 2 2 -1",
                                    "w -1", "w 1 2 3"])
def test_bad_shape_record_names_file_and_tensor(tmp_path, record):
    path = tmp_path / "shape.ckpt"
    path.write_text(f"{HEADER}\n{record}\n1.0 2.0\n")
    with pytest.raises(ValueError, match=r"shape\.ckpt: bad shape record for tensor 'w'"):
        load_checkpoint(path)


def test_non_numeric_value_names_file_tensor_and_token(tmp_path):
    path = tmp_path / "value.ckpt"
    path.write_text(f"{HEADER}\nw 1 3\n1.0 two 3.0\n")
    with pytest.raises(ValueError, match=r"value\.ckpt: tensor 'w': .*'two'"):
        load_checkpoint(path)
