#!/usr/bin/env python3
"""Text plumbing: tokenization, vocabularies, denoising, inverse-frequency
weights, and the synthetic cipher corpus used throughout the demos.
"""

from xlalign.cipher import apply_cipher, gen_cipher_corpus
from xlalign.text import NoiseParams, build_vocab, corrupt, sif_weight

# --- tokenization: lowercase, whitespace split, punctuation isolated --------
from xlalign.text import tokenize

print(tokenize("All birds fly."))
print(tokenize("Don't stop -- it's fine!"))

# --- a bilingual corpus with a known perfect alignment ----------------------
# Language "lb" is language "la" under a fixed token cipher, so the gold
# correspondence is recoverable by construction.
cc = gen_cipher_corpus(vocab_size=30, n_sentences=80, length_range=(3, 6), seed=1)
# Row i of every language is a translation of row i of the others.
lb, la = cc.corpus["lb"], cc.corpus["la"]
for src, tgt in zip(lb[:3], la[:3]):
    print(" ".join(src), " <-> ", " ".join(tgt))
assert all(apply_cipher(t, cc.cipher) == s for s, t in zip(lb, la))

# --- vocabulary with frequency bookkeeping ----------------------------------
vocab = build_vocab(la, min_count=1)
print(f"\n{len(vocab)} ids (4 reserved), {vocab.total_count} tokens total")
common = max(vocab.token_to_id, key=lambda t: vocab.frequencies[vocab.token_to_id[t]])
common_freq = vocab.frequencies[vocab.token_to_id[common]]
print(f"most frequent token: {common} (p={common_freq / vocab.total_count:.3f})")

# Inverse-frequency weighting damps frequent words during averaging:
for freq in (0, 1, 20, common_freq):
    print(f"  freq={freq:>4d}  weight={sif_weight(freq, vocab.total_count, a=1e-3):.4f}")

# --- denoising corruption ----------------------------------------------------
# Adjacent bigrams may swap, tokens may drop; at least one token survives.
sentence = la[0]
noise = NoiseParams(p_del=0.3, p_swap=0.5, seed=8)
print("\nclean:    ", " ".join(sentence))
print("corrupted:", " ".join(corrupt(sentence, noise)))
