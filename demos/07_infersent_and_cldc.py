#!/usr/bin/env python3
"""The inference-classifier objective and the document-classification harness.

Joint cross-lingual inference training samples the premise and hypothesis
languages independently per batch and shares one softmax head. Document
classification trains a small MLP on mean sentence embeddings in one language
and tests it in another.
"""

from xlalign import autodiff as ad
from xlalign.cipher import gen_cipher_corpus, gen_cldc_docs, nli_label
from xlalign.encoders import encode_sentences, new_encoder
from xlalign.evaluation import N_CLDC_CLASSES, cldc_train_eval
from xlalign.objectives import (TrainSchedule, head_logits, infersent_accuracy, new_head,
                                train_joint_infersent)
from xlalign.text import build_vocab

D = H = 24
cc = gen_cipher_corpus(vocab_size=40, n_sentences=50, length_range=(4, 8),
                       seed=5, nli_size=240)

# Toy 3-way labels from token overlap: contained -> entailment, disjoint ->
# contradiction, partial -> neutral.
data = cc.nli["la"]
for i in (0, 1, 2):
    print(f"{['entail', 'contra', 'neutral'][data.labels[i]]:<8s} "
          f"premise: {' '.join(data.premises[i])}  hyp: {' '.join(data.hypotheses[i])}")
    assert nli_label(data.premises[i], data.hypotheses[i]) == data.labels[i]

vocabs = {lang: build_vocab(d.premises + d.hypotheses, 1) for lang, d in cc.nli.items()}
encoders = {lang: new_encoder(len(vocabs[lang]), D, H, lang, seed=i)
            for i, lang in enumerate(sorted(cc.nli))}
head = new_head(2 * H, hidden=128, seed=20)

result = train_joint_infersent(cc.nli, encoders, head, vocabs,
                               TrainSchedule(16, 400, 3e-3, [], seed=30))
combos = sorted(set(result.language_draws))
print("\nlanguage pairings drawn during training:", combos)
for p_lang in sorted(cc.nli):
    for h_lang in sorted(cc.nli):
        acc = infersent_accuracy(cc.nli, encoders, head, vocabs, p_lang, h_lang)
        print(f"  accuracy premise={p_lang} hypothesis={h_lang}: {acc:.3f}")

# Single-pair classification with the shared head: the class of the largest logit.
u, v = encode_sentences([data.premises[0], data.hypotheses[0]], vocabs["la"], encoders["la"])
logits = head_logits(ad.constant(u), ad.constant(v), ad.ParamSet(head))
print("logits:", logits.data.round(3), "-> class",
      ["entail", "contra", "neutral"][int(logits.data.argmax())])

# --- cross-lingual document classification --------------------------------------
# Topic-banded documents in both languages; train on one side, test on the
# ciphered side using the encoders aligned by the shared objective above.
docs = gen_cldc_docs(cc, n_docs=320, seed=40)
embedders = {lang: (lambda l: (lambda s: encode_sentences([s], vocabs[l], encoders[l])[0]))(lang)
             for lang in encoders}
report = cldc_train_eval(docs["la"][:160], docs["lb"][160:], embedders,
                         train_lang="la", test_lang="lb", seed=41)
print(f"\nCLDC train la -> test lb: accuracy {report.accuracy:.3f} "
      f"({N_CLDC_CLASSES} classes, chance {1 / N_CLDC_CLASSES:.2f})")
