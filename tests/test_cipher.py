import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import scalar_gen_cipher_corpus, scalar_gen_cldc_docs
from xlalign import cipher
from xlalign.cipher import (_sample_weighted, _weighted_ids, apply_cipher, gen_cipher_corpus,
                            gen_cldc_docs, nli_label, read_corpus_files, write_corpus_files)
from xlalign.config import ConfigError


class TestCipher:
    def test_double_application_with_inverse_is_identity(self):
        cc = gen_cipher_corpus(20, 30, (3, 6), seed=1)
        inverse = {v: k for k, v in cc.cipher.items()}
        for src, tgt in cc.corpus.rows():
            assert apply_cipher(src, inverse) == tgt
            assert apply_cipher(tgt, cc.cipher) == src

    def test_generated_corpus_keeps_its_bytes(self):
        """Rows, cipher and NLI sets of one seed keep their exact bytes."""
        cc = gen_cipher_corpus(60, 2000, (3, 8), seed=5, nli_size=60)
        payload = json.dumps({
            "rows": cc.corpus.rows(), "langs": cc.corpus.langs,
            "cipher": sorted(cc.cipher.items()),
            "nli": {lang: [d.premises, d.hypotheses, d.labels] for lang, d in sorted(cc.nli.items())}})
        assert hashlib.sha256(payload.encode()).hexdigest() == \
            "548447c9f0c6af507f726b654c1dac0f28f492eca36682cb55e45715324fc709"

    @pytest.mark.parametrize("u", [0.0, 0.1, 0.25, 0.5, 0.6, 0.75, 1.0 - 2**-53])
    def test_weighted_sample_is_the_first_index_reaching_the_draw(self, u):
        class Fixed:
            def uniform(self):
                return u
        cumulative = [1.0, 2.0, 3.0, 4.0]  # u = 0.25, 0.5, 0.75 land exactly on a weight
        first = next(i for i, c in enumerate(cumulative) if c >= u * cumulative[-1])
        assert _sample_weighted(Fixed(), cumulative) == first
        assert _weighted_ids(np.array([u]), cumulative).tolist() == [first]  # the bulk rule

    def test_cardinality_and_nonempty(self):
        cc = gen_cipher_corpus(15, 100, (2, 5), seed=2)
        assert len(cc.corpus) == 100
        assert all(s and t for s, t in cc.corpus.rows())
        assert all(2 <= len(t) <= 5 for t in cc.corpus["la"])

    def test_seeded_generation_reproducible(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cc = gen_cipher_corpus(25, 60, (3, 7), seed=9, nli_size=12)
            write_corpus_files(out, cc)
        for name in sorted(p.name for p in out_a.iterdir()):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_different_seeds_differ(self):
        a = gen_cipher_corpus(25, 60, (3, 7), seed=1)
        b = gen_cipher_corpus(25, 60, (3, 7), seed=2)
        assert a.corpus.rows() != b.corpus.rows()

    def test_cipher_is_bijection(self):
        cc = gen_cipher_corpus(30, 5, (3, 4), seed=3)
        assert len(set(cc.cipher.values())) == len(cc.cipher) == 30

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError, match="vocab_size"):
            gen_cipher_corpus(5, 10, (2, 4), seed=0)
        with pytest.raises(ValueError, match="length range"):
            gen_cipher_corpus(20, 10, (5, 2), seed=0)
        with pytest.raises(ValueError, match="n_sentences"):
            gen_cipher_corpus(20, 0, (2, 4), seed=0)

    def test_nli_needs_lengths_reaching_the_premise_minimum(self):
        # raised before the generator is made, so before any draw
        with mock.patch.object(cipher, "Xorshift64Star", side_effect=AssertionError("drew")):
            with pytest.raises(ConfigError, match=r"at least 4 tokens, the premise minimum; "
                                                  r"got length range \(2, 2\)"):
                gen_cipher_corpus(12, 5, (2, 2), nli_size=3)
        assert gen_cipher_corpus(12, 5, (2, 3), nli_size=0).nli is None
        assert len(gen_cipher_corpus(12, 5, (2, 4), nli_size=3).nli["la"].labels) == 3


def generated(gen, *args, **kwargs):
    """The output of gen, or the type and text of the error it raised."""
    try:
        return gen(*args, **kwargs)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def corpus_payload(cc):
    if isinstance(cc, tuple):
        return cc
    nli = cc.nli and {lang: (d.premises, d.hypotheses, d.labels) for lang, d in cc.nli.items()}
    return cc.corpus.langs, cc.corpus.rows(), cc.cipher, nli


@settings(max_examples=80, deadline=None)
@given(vocab=st.sampled_from([10, 11, 16, 60]), n=st.integers(1, 300),
       lo=st.integers(1, 6), extra=st.integers(0, 4), seed=st.integers(0, 2**64 - 1),
       nli_size=st.sampled_from([0, 0, 1, 7]), n_docs=st.sampled_from([0, 1, 9, 40]),
       block_draws=st.sampled_from([1, 16, 100, cipher._BLOCK_DRAWS]))
def test_bulk_generation_equals_the_scalar_draws(vocab, n, lo, extra, seed, nli_size, n_docs,
                                                 block_draws):
    """Rows, cipher, NLI sets and CLDC documents are those of one scalar draw
    a length or token, for lo == hi, n = 1 and any block size too. Lengths
    too short for an NLI premise are a ConfigError, which the oracle skips."""
    args = (vocab, n, (lo, lo + extra))
    with mock.patch.object(cipher, "_BLOCK_DRAWS", block_draws):
        bulk = generated(gen_cipher_corpus, *args, seed=seed, nli_size=nli_size)
        docs = None if isinstance(bulk, tuple) else generated(gen_cldc_docs, bulk, n_docs, seed)
    assume(not (isinstance(bulk, tuple) and bulk[0] is ConfigError))  # the oracle skips validation
    scalar = generated(scalar_gen_cipher_corpus, *args, seed=seed, nli_size=nli_size)
    assert corpus_payload(bulk) == corpus_payload(scalar)
    if isinstance(docs, dict):  # 12 words or more, 3 a topic band
        assert docs == scalar_gen_cldc_docs(bulk, n_docs, seed=seed)


class TestNliToy:
    def test_label_rules(self):
        assert nli_label(["a", "b", "c"], ["b"]) == 0          # containment
        assert nli_label(["a", "b", "c"], ["x", "y"]) == 1     # disjoint
        assert nli_label(["a", "b", "c"], ["a", "x"]) == 2     # partial overlap

    def test_generated_labels_consistent_with_rules(self):
        cc = gen_cipher_corpus(30, 5, (4, 7), seed=4, nli_size=90)
        for lang, data in cc.nli.items():
            for p, h, l in zip(data.premises, data.hypotheses, data.labels):
                assert nli_label(p, h) == l, (lang, p, h)

    def test_labels_balanced(self):
        cc = gen_cipher_corpus(30, 5, (4, 7), seed=4, nli_size=90)
        labels = cc.nli["la"].labels
        assert labels.count(0) == labels.count(1) == labels.count(2) == 30

    def test_both_languages_are_translations(self):
        cc = gen_cipher_corpus(30, 5, (4, 7), seed=4, nli_size=30)
        for pa, pb in zip(cc.nli["la"].premises, cc.nli["lb"].premises):
            assert apply_cipher(pa, cc.cipher) == pb
        assert cc.nli["la"].labels == cc.nli["lb"].labels

    def test_nli_files_round_trip(self, tmp_path):
        cc = gen_cipher_corpus(30, 5, (4, 7), seed=4, nli_size=30)
        write_corpus_files(tmp_path, cc)

        def read(name):
            return (tmp_path / name).read_text(encoding="utf-8").splitlines()
        for lang in ("la", "lb"):
            assert [p.split() for p in read(f"nli.{lang}.premises.txt")] == cc.nli[lang].premises
            assert [h.split() for h in read(f"nli.{lang}.hypotheses.txt")] == \
                cc.nli[lang].hypotheses
            assert [int(l) for l in read("nli.labels.txt")] == cc.nli[lang].labels


class TestCorpusFiles:
    def test_reading_the_written_files_gives_the_generated_corpus(self, tmp_path):
        cc = gen_cipher_corpus(30, 40, (3, 7), seed=4, nli_size=30, langs=("lb", "la"))
        write_corpus_files(tmp_path, cc)
        back = read_corpus_files(tmp_path, ("lb", "la"), nli=True, dictionary=True)
        assert back.corpus.langs == cc.corpus.langs
        assert back.corpus.rows() == cc.corpus.rows()
        assert sorted(back.cipher.items()) == sorted(cc.cipher.items())
        assert list(back.nli) == list(cc.nli)
        for lang, data in cc.nli.items():
            assert (back.nli[lang].premises, back.nli[lang].hypotheses, back.nli[lang].labels) \
                == (data.premises, data.hypotheses, data.labels)
        bare = read_corpus_files(tmp_path, ("lb", "la"))
        assert bare.cipher is None and bare.nli is None

    def test_both_language_orders_read_inverse_dictionaries(self, tmp_path):
        write_corpus_files(tmp_path, gen_cipher_corpus(30, 10, (3, 7), seed=4))
        assert [p.name for p in tmp_path.glob("dict.*")] == ["dict.la-lb.txt"]
        la_pivot = read_corpus_files(tmp_path, ("lb", "la"), dictionary=True).cipher
        lb_pivot = read_corpus_files(tmp_path, ("la", "lb"), dictionary=True).cipher
        assert len(la_pivot) == 30 and lb_pivot == {b: a for a, b in la_pivot.items()}

    @pytest.mark.parametrize("name, edit, message", [
        ("nli.labels.txt", lambda t: t[:1] + ["3"] + t[2:],
         "nli.labels.txt:2: expected one label 0, 1 or 2, got '3'"),
        ("nli.labels.txt", lambda t: t[:2] + ["0 1"] + t[3:],
         "nli.labels.txt:3: expected one label 0, 1 or 2, got '0 1'"),
        ("nli.labels.txt", lambda t: t[:3] + ["2 0"] + t[4:],
         "nli.labels.txt:4: expected one label 0, 1 or 2, got '2 0'"),
        ("nli.lb.premises.txt", lambda t: t[:4], "nli.lb.premises.txt has 4"),
    ], ids=["bad-label", "two-labels", "two-labels-joined-out-of-range", "short-file"])
    def test_malformed_nli_file_is_named(self, tmp_path, name, edit, message):
        write_corpus_files(tmp_path, gen_cipher_corpus(30, 10, (3, 7), seed=4, nli_size=6))
        path = tmp_path / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ConfigError, match=message):
            read_corpus_files(tmp_path, ("lb", "la"), nli=True)


class TestCldcDocs:
    def test_structure_and_translation(self):
        cc = gen_cipher_corpus(40, 5, (3, 6), seed=6)
        docs = gen_cldc_docs(cc, 40, seed=7)
        assert set(docs) == {"la", "lb"}
        assert len(docs["la"]) == len(docs["lb"]) == 40
        labels = [l for _, l in docs["la"]]
        assert sorted(set(labels)) == [0, 1, 2, 3]
        for (doc_a, la), (doc_b, lb) in zip(docs["la"], docs["lb"]):
            assert la == lb
            assert [apply_cipher(s, cc.cipher) for s in doc_a] == doc_b

    def test_topic_bands_are_disjoint(self):
        cc = gen_cipher_corpus(40, 5, (3, 6), seed=6)
        docs = gen_cldc_docs(cc, 80, seed=7)
        tokens_by_class = {}
        for doc, label in docs["la"]:
            tokens_by_class.setdefault(label, set()).update(t for s in doc for t in s)
        classes = sorted(tokens_by_class)
        for i in classes:
            for j in classes:
                if i < j:
                    assert not (tokens_by_class[i] & tokens_by_class[j])
