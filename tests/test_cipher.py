import pytest

from xlalign.cipher import (apply_cipher, gen_cipher_corpus, gen_cldc_docs, nli_label,
                            write_corpus_files)


class TestCipher:
    def test_double_application_with_inverse_is_identity(self):
        cc = gen_cipher_corpus(20, 30, (3, 6), seed=1)
        inverse = {v: k for k, v in cc.cipher.items()}
        for src, tgt in cc.corpus.pairs:
            assert apply_cipher(src, inverse) == tgt
            assert apply_cipher(tgt, cc.cipher) == src

    def test_cardinality_and_nonempty(self):
        cc = gen_cipher_corpus(15, 100, (2, 5), seed=2)
        assert len(cc.corpus) == 100
        assert all(s and t for s, t in cc.corpus.pairs)
        assert all(2 <= len(t) <= 5 for _, t in cc.corpus.pairs)

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
        assert a.corpus.pairs != b.corpus.pairs

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
