import numpy as np
import pytest

from xlalign.checkpoint import save_checkpoint
from xlalign.mapping import (AlignmentMap, apply_map, fit_orthogonal_map,
                             fit_word_dictionary_map, load_map, save_map)


def random_orthogonal(d, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    return q * np.sign(np.diag(r))


class TestFit:
    def test_identity_when_spaces_match(self, rng):
        x = rng.normal(size=(12, 4))
        m = fit_orthogonal_map(x, x)
        np.testing.assert_allclose(m.w, np.eye(4), atol=1e-8)
        assert m.n_pairs == 12
        assert m.residual < 1e-7

    def test_recovers_planted_rotation(self, rng):
        d = 6
        r = random_orthogonal(d, seed=21)
        x = rng.normal(size=(3 * d, d))
        m = fit_orthogonal_map(x, x @ r)
        assert np.max(np.abs(m.w - r)) < 1e-6

    def test_one_dimensional_sign(self):
        m = fit_orthogonal_map(np.array([[1.0], [2.0]]), np.array([[-1.0], [-2.0]]))
        np.testing.assert_allclose(m.w, [[-1.0]], atol=1e-12)

    def test_orthogonality_invariant(self, rng):
        for seed in range(8):
            g = np.random.default_rng(seed)
            x = g.normal(size=(30, 5))
            y = g.normal(size=(30, 5))
            m = fit_orthogonal_map(x, y)
            assert np.max(np.abs(m.w.T @ m.w - np.eye(5))) < 1e-6

    def test_beats_random_orthogonal_candidates(self, rng):
        # Monte-Carlo lower bound: the closed form is at least as good as
        # a thousand random rotations.
        x = rng.normal(size=(40, 6))
        y = rng.normal(size=(40, 6))
        m = fit_orthogonal_map(x, y)
        for seed in range(1000):
            cand = random_orthogonal(6, seed=seed + 1000)
            assert m.residual <= np.linalg.norm(x @ cand - y) + 1e-9

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="shape"):
            fit_orthogonal_map(rng.normal(size=(5, 3)), rng.normal(size=(5, 4)))


class TestApply:
    def test_identity_map(self, rng):
        e = rng.normal(size=5)
        m = AlignmentMap(np.eye(5), "a", "b", 1, 0.0)
        np.testing.assert_array_equal(apply_map(e, m), e)

    def test_norm_preserved(self, rng):
        w = random_orthogonal(7, seed=4)
        m = AlignmentMap(w, "a", "b", 1, 0.0)
        for _ in range(20):
            e = rng.normal(size=7)
            assert abs(np.linalg.norm(apply_map(e, m)) - np.linalg.norm(e)) < 1e-10

    def test_cosines_preserved(self, rng):
        w = random_orthogonal(6, seed=9)
        m = AlignmentMap(w, "a", "b", 1, 0.0)
        for _ in range(100):
            u, v = rng.normal(size=6), rng.normal(size=6)
            cos = lambda a, b: a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert abs(cos(apply_map(u, m), apply_map(v, m)) - cos(u, v)) < 1e-10

    def test_reverse_is_inverse(self, rng):
        w = random_orthogonal(5, seed=13)
        m = AlignmentMap(w, "a", "b", 1, 0.0)
        e = rng.normal(size=5)
        np.testing.assert_allclose(apply_map(apply_map(e, m), m, reverse=True), e, atol=1e-10)

    def test_dim_mismatch_rejected(self, rng):
        m = AlignmentMap(np.eye(4), "a", "b", 1, 0.0)
        with pytest.raises(ValueError, match="dim"):
            apply_map(rng.normal(size=5), m)

    def test_matrix_input(self, rng):
        w = random_orthogonal(4, seed=2)
        m = AlignmentMap(w, "a", "b", 1, 0.0)
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(apply_map(x, m), x @ w, atol=1e-14)


class TestPersistence:
    def test_round_trip(self, tmp_path, rng):
        x = rng.normal(size=(20, 4))
        m = fit_orthogonal_map(x, x @ random_orthogonal(4, seed=3), "de", "en")
        path = tmp_path / "map.ckpt"
        save_map(path, m)
        text = path.read_text()
        assert "src=de tgt=en pairs=20" in text
        loaded = load_map(path)
        np.testing.assert_array_equal(loaded.w, m.w)
        assert (loaded.src_space, loaded.tgt_space) == ("de", "en")
        assert loaded.n_pairs == 20
        assert loaded.residual == m.residual

    @pytest.mark.parametrize("comment, key", [
        ("", "src"),
        ("tgt=en pairs=20 residual=0.5", "src"),
        ("src=de pairs=20 residual=0.5", "tgt"),
        ("src=de tgt=en residual=0.5", "pairs"),
        ("src=de tgt=en pairs=20", "residual"),
        ("src=de tgt=en pairs=abc residual=0.5", "pairs"),
        ("src=de tgt=en pairs=2.5 residual=0.5", "pairs"),
        ("src=de tgt=en pairs=20 residual=small", "residual"),
        ("src=de tgt=en pairs=0 residual=0.5", "pairs"),
        ("src=de tgt=en pairs=-5 residual=0.5", "pairs"),
        ("src=de tgt=en pairs=20 residual=-1.0", "residual"),
        ("src=de tgt=en pairs=20 residual=nan", "residual"),
        ("src=de tgt=en pairs=20 residual=inf", "residual")])
    def test_bad_metadata_names_file_and_key(self, tmp_path, comment, key):
        path = tmp_path / "map.ckpt"
        save_checkpoint(path, {"W": np.eye(3)}, comments=[comment] if comment else [])
        with pytest.raises(ValueError, match=f"map.ckpt.*{key}="):
            load_map(path)

    @pytest.mark.parametrize("tensors", [{}, {"V": np.eye(3)}, {"W": np.eye(3), "b": np.ones(3)}])
    def test_tensors_other_than_w_rejected(self, tmp_path, tensors):
        path = tmp_path / "map.ckpt"
        save_checkpoint(path, tensors, comments=["src=de tgt=en pairs=3 residual=0.0"])
        with pytest.raises(ValueError, match="map.ckpt is not a map checkpoint"):
            load_map(path)

    @pytest.mark.parametrize("shape", [(3, 2), (3,), (2, 2, 2)])
    def test_non_square_w_rejected(self, tmp_path, shape):
        path = tmp_path / "map.ckpt"
        save_checkpoint(path, {"W": np.ones(shape)},
                        comments=["src=de tgt=en pairs=3 residual=0.0"])
        with pytest.raises(ValueError, match="map.ckpt: W must be a square 2-D matrix"):
            load_map(path)

    @pytest.mark.parametrize("w", [2.0 * np.eye(3), np.full((3, 3), np.nan),
                                   np.diag([1.0, 1.0, 1.0 + 1e-6])])
    def test_non_orthogonal_w_rejected(self, tmp_path, w):
        path = tmp_path / "map.ckpt"
        save_checkpoint(path, {"W": w}, comments=["src=de tgt=en pairs=3 residual=0.0"])
        with pytest.raises(ValueError, match="map.ckpt: W is not orthogonal"):
            load_map(path)


class TestWordDictionary:
    def test_same_code_path_two_data_sources(self, rng):
        d = 5
        r = random_orthogonal(d, seed=5)
        src_words = [f"s{i}" for i in range(20)]
        tgt_words = [f"t{i}" for i in range(20)]
        src_table = rng.normal(size=(20, d))
        tgt_table = src_table @ r
        pairs = [(f"s{i}", f"t{i}") for i in range(20)] + [("missing", "t0")]
        m = fit_word_dictionary_map(pairs, src_words, src_table, tgt_words, tgt_table)
        assert m.n_pairs == 20  # uncovered pair dropped
        assert np.max(np.abs(m.w - r)) < 1e-6

    def test_no_coverage_rejected(self, rng):
        with pytest.raises(ValueError, match="dictionary"):
            fit_word_dictionary_map([("a", "b")], ["x"], rng.normal(size=(1, 3)),
                                    ["y"], rng.normal(size=(1, 3)))
