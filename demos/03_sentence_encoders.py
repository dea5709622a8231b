#!/usr/bin/env python3
"""The two sentence embedding routes.

Top-down: a bidirectional LSTM with temporal max-pooling (dimension 2H).
Bottom-up: inverse-frequency weighted word averaging (dimension D).
"""

import numpy as np

from xlalign.cipher import gen_cipher_corpus
from xlalign.encoders import encode_sentences, encode_sif, new_encoder
from xlalign.text import build_vocab

cc = gen_cipher_corpus(vocab_size=30, n_sentences=50, length_range=(3, 7), seed=2)
sentences = cc.corpus["la"]
vocab = build_vocab(sentences, min_count=1)

# --- BiLSTM + max-pool -------------------------------------------------------
enc = new_encoder(vocab_size=len(vocab), dim=16, hidden=12, lang="la", seed=7)
emb = encode_sentences([sentences[0]], vocab, enc)[0]
print(f"'{' '.join(sentences[0])}'")
print(f"  bilstm embedding: dim {emb.shape[0]} (= 2 x hidden)")

# Word order matters to the recurrent encoder...
swapped = list(sentences[0])
swapped[0], swapped[1] = swapped[1], swapped[0]
delta = np.max(np.abs(encode_sentences([swapped], vocab, enc)[0] - emb))
print(f"  swapping two tokens moves the embedding by {delta:.4f}")

# --- SIF averaging -----------------------------------------------------------
table = np.random.default_rng(0).normal(size=(len(vocab), 16)) * 0.3
sif = encode_sif(sentences[0], table, vocab, a=1e-3)
sif_swapped = encode_sif(swapped, table, vocab, a=1e-3)
print(f"  sif embedding: dim {sif.shape[0]}; permutation moves it by "
      f"{np.max(np.abs(sif - sif_swapped)):.1e} (bag of words)")

# --- batched encoding is order- and padding-safe ------------------------------
batch = sentences[:6]
mat = encode_sentences(batch, vocab, enc)
singles = np.stack([encode_sentences([s], vocab, enc)[0] for s in batch])
print(f"\nbatched vs one-by-one encodings agree within {np.max(np.abs(mat - singles)):.1e}")
