#!/usr/bin/env python3
"""Text plumbing: tokenization, vocabularies, denoising, inverse-frequency
weights, and the synthetic cipher corpus used throughout the demos.
"""

from xlalign.cipher import apply_cipher, gen_cipher_corpus
from xlalign.text import NoiseParams, build_vocab, corrupt, make_splits, sif_weight

# --- tokenization: lowercase, whitespace split, punctuation isolated --------
from xlalign.text import tokenize

print(tokenize("All birds fly."))
print(tokenize("Don't stop -- it's fine!"))

# --- a bilingual corpus with a known perfect alignment ----------------------
# Language "lb" is language "la" under a fixed token cipher, so the gold
# correspondence is recoverable by construction.
cc = gen_cipher_corpus(vocab_size=30, n_sentences=80, length_range=(3, 6), seed=1)
for (src, tgt) in cc.corpus.pairs[:3]:
    print(" ".join(src), " <-> ", " ".join(tgt))
assert all(apply_cipher(t, cc.cipher) == s for s, t in cc.corpus.pairs)

# --- vocabulary with frequency bookkeeping ----------------------------------
vocab = build_vocab(cc.corpus.target_sentences(), min_count=1)
print(f"\n{len(vocab)} ids (4 reserved), {vocab.total_count} tokens total")
common = max(vocab.token_to_id, key=lambda t: vocab.frequencies[vocab.token_to_id[t]])
print(f"most frequent token: {common} (p={vocab.probability(common):.3f})")

# Inverse-frequency weighting damps frequent words during averaging:
for freq in (0, 1, 20, vocab.frequencies[vocab.token_to_id[common]]):
    print(f"  freq={freq:>4d}  weight={sif_weight(freq, vocab.total_count, a=1e-3):.4f}")

# --- denoising corruption ----------------------------------------------------
# Adjacent bigrams may swap, tokens may drop; at least one token survives.
sentence = cc.corpus.target_sentences()[0]
noise = NoiseParams(p_del=0.3, p_swap=0.5, seed=8)
print("\nclean:    ", " ".join(sentence))
print("corrupted:", " ".join(corrupt(sentence, noise)))

# --- nested evaluation splits -------------------------------------------------
sizes = make_splits(1_000_000, [s * 1000 for s in (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)])
print("\nsplit sizes:", sizes[:4], "... each a prefix of the next")
