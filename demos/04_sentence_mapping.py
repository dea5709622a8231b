#!/usr/bin/env python3
"""Post-hoc orthogonal alignment ("sentence mapping").

Two monolingual embedding spaces are built independently, then aligned with
one closed-form Procrustes fit using parallel sentences as the dictionary.
The same routine aligns word spaces from a static dictionary.
"""

import numpy as np

from xlalign.cipher import gen_cipher_corpus
from xlalign.encoders import encode_sif_matrix
from xlalign.evaluation import retrieval_accuracy
from xlalign.mapping import apply_map, fit_orthogonal_map, fit_word_dictionary_map
from xlalign.text import build_vocab

cc = gen_cipher_corpus(vocab_size=40, n_sentences=700, length_range=(3, 8), seed=11)
train, test = cc.corpus[:500], cc.corpus[500:]

vb = build_vocab(train["lb"], 1)
va = build_vocab(train["la"], 1)

# Near-one-hot word tables: each token owns a coordinate direction, so the two
# sentence spaces are near-orthogonal to each other until rotated.
g = np.random.default_rng(7)
table_b = np.eye(len(vb)) + 0.01 * g.normal(size=(len(vb), len(vb)))
table_a = np.eye(len(va)) + 0.01 * g.normal(size=(len(va), len(va)))

x_test = encode_sif_matrix(test["lb"], table_b, vb)
y_test = encode_sif_matrix(test["la"], table_a, va)
print("retrieval before mapping:", retrieval_accuracy(x_test, y_test).accuracy)

# --- fit on the parallel training sentences -----------------------------------
m = fit_orthogonal_map(encode_sif_matrix(train["lb"], table_b, vb),
                       encode_sif_matrix(train["la"], table_a, va),
                       src_space="lb", tgt_space="la")
print(f"fitted on {m.n_pairs} pairs, residual {m.residual:.2f}, "
      f"orthogonality error {np.max(np.abs(m.w.T @ m.w - np.eye(m.dim))):.1e}")

mapped = retrieval_accuracy(apply_map(x_test, m), y_test)
print("retrieval after mapping: ", mapped.accuracy)

# The map is an isometry: cosines (hence monolingual rankings) are untouched.
u, v = x_test[0], x_test[1]
cos = lambda a, b: a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
print(f"cosine preserved: {cos(u, v):.6f} -> {cos(apply_map(u, m), apply_map(v, m)):.6f}")

# --- the word-dictionary baseline: same fit, different rows --------------------
dict_pairs = [(c, b) for b, c in sorted(cc.cipher.items())]
wm = fit_word_dictionary_map(dict_pairs, vb.id_to_token, table_b,
                             va.id_to_token, table_a)
word_mapped = retrieval_accuracy(apply_map(x_test, wm), y_test)
print("retrieval with the word-dictionary map:", word_mapped.accuracy)
