"""Synthetic bilingual corpora with a known perfect alignment.

The second language is a bijective token renaming of the first, so an exact
cross-lingual correspondence exists by construction and desk-scale runs have
a recoverable gold standard. Token frequencies follow a 1/(rank+2) curve so
inverse-frequency weighting has something to bite on.

Also provides a 3-class inference toy set with deterministic labels:
hypothesis tokens contained in the premise -> entailment (0), disjoint from
the premise -> contradiction (1), partial overlap -> neutral (2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .evaluation import N_CLDC_CLASSES
from .objectives import NLIDataset
from .rand import Xorshift64Star
from .text import ParallelCorpus

ENTAILMENT, CONTRADICTION, NEUTRAL = 0, 1, 2


@dataclass
class CipherCorpus:
    corpus: ParallelCorpus      # source = ciphered language "lb", target = base language "la"
    cipher: dict                # base token -> ciphered token
    nli: dict | None            # lang -> NLIDataset, when requested


def apply_cipher(tokens, mapping):
    return [mapping[t] for t in tokens]


def nli_label(premise, hypothesis):
    p, h = set(premise), set(hypothesis)
    if h <= p:
        return ENTAILMENT
    if not (h & p):
        return CONTRADICTION
    return NEUTRAL


def _sample_weighted(rng, cumulative):
    u = rng.uniform() * cumulative[-1]
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


def gen_cipher_corpus(vocab_size, n_sentences, length_range=(3, 8), seed=0,
                      nli_size=0, src_lang="lb", tgt_lang="la"):
    """Base-language sentences plus their token-ciphered translations.

    The ParallelCorpus is oriented ciphered -> base, matching the usual
    "align the new language to the pivot" direction.
    """
    if vocab_size < 10:
        raise ValueError(f"vocab_size must be >= 10, got {vocab_size}")
    if n_sentences < 1:
        raise ValueError(f"n_sentences must be >= 1, got {n_sentences}")
    lo, hi = length_range
    if not 1 <= lo <= hi:
        raise ValueError(f"degenerate length range {length_range}")
    if nli_size and hi >= vocab_size - 2:
        raise ValueError("NLI generation needs sentence lengths well below the vocabulary size")

    rng = Xorshift64Star(seed)
    base = [f"w{i:03d}" for i in range(vocab_size)]
    perm = list(range(vocab_size))
    rng.shuffle(perm)
    cipher = {base[i]: f"k{perm[i]:03d}" for i in range(vocab_size)}

    cumulative = []
    acc = 0.0
    for i in range(vocab_size):
        acc += 1.0 / (i + 2)
        cumulative.append(acc)

    def sample_sentence(length):
        return [base[_sample_weighted(rng, cumulative)] for _ in range(length)]

    pairs = []
    for _ in range(n_sentences):
        sent = sample_sentence(lo + rng.randint(hi - lo + 1))
        pairs.append((apply_cipher(sent, cipher), sent))
    corpus = ParallelCorpus(pairs, src_lang, tgt_lang)

    nli = _gen_nli(rng, base, cipher, nli_size, lo, hi, cumulative,
                   src_lang, tgt_lang) if nli_size else None
    return CipherCorpus(corpus, cipher, nli)


def _gen_nli(rng, base, cipher, n, lo, hi, cumulative, src_lang, tgt_lang):
    premises, hypotheses, labels = [], [], []
    min_len = max(lo, 4)
    for i in range(n):
        premise = []
        seen = set()
        while len(premise) < min_len + rng.randint(hi - min_len + 1):
            tok = base[_sample_weighted(rng, cumulative)]
            premise.append(tok)
            seen.add(tok)
        label = i % 3
        outside = [t for t in base if t not in seen]
        h_len = 2 + rng.randint(3)
        if label == ENTAILMENT:
            keep = sorted(rng.randint(len(premise)) for _ in range(h_len))
            hyp = [premise[j] for j in keep]
        elif label == CONTRADICTION:
            hyp = [outside[rng.randint(len(outside))] for _ in range(h_len)]
        else:
            hyp = [premise[rng.randint(len(premise))],
                   outside[rng.randint(len(outside))]]
            for _ in range(h_len - 2):
                hyp.append(base[_sample_weighted(rng, cumulative)])
            rng.shuffle(hyp)
            if nli_label(premise, hyp) != NEUTRAL:  # sampling collapsed the overlap
                hyp = [premise[0], outside[0]]
        assert nli_label(premise, hyp) == label
        premises.append(premise)
        hypotheses.append(hyp)
        labels.append(label)
    base_set = NLIDataset(premises, hypotheses, labels)
    ciphered = NLIDataset([apply_cipher(p, cipher) for p in premises],
                          [apply_cipher(h, cipher) for h in hypotheses], list(labels))
    return {tgt_lang: base_set, src_lang: ciphered}


# ---------------------------------------------------------------------------
# synthetic labeled documents for the classification harness
# ---------------------------------------------------------------------------

def gen_cldc_docs(cipher_corpus, n_docs, seed=0):
    """Topic-labeled documents of 2-4 sentences of 3-6 tokens: each of the
    N_CLDC_CLASSES classes draws its sentences from one band of the
    vocabulary, in both languages of the cipher corpus.

    Returns {lang: [(doc, label), ...]} with docs as lists of token lists.
    """
    rng = Xorshift64Star(seed)
    base = sorted(cipher_corpus.cipher)
    band = len(base) // N_CLDC_CLASSES
    if band < 3:
        raise ValueError(f"vocabulary too small for {N_CLDC_CLASSES} topic bands")
    docs = {cipher_corpus.corpus.tgt_lang: [], cipher_corpus.corpus.src_lang: []}
    for i in range(n_docs):
        label = i % N_CLDC_CLASSES
        vocab_band = base[label * band:(label + 1) * band]
        doc = []
        for _ in range(2 + rng.randint(3)):
            length = 3 + rng.randint(4)
            doc.append([vocab_band[rng.randint(len(vocab_band))] for _ in range(length)])
        docs[cipher_corpus.corpus.tgt_lang].append((doc, label))
        docs[cipher_corpus.corpus.src_lang].append(
            ([apply_cipher(s, cipher_corpus.cipher) for s in doc], label))
    return docs


# ---------------------------------------------------------------------------
# on-disk form
# ---------------------------------------------------------------------------

def write_corpus_files(out_dir, cc):
    """Write line-aligned sentence files, the token dictionary, and any NLI
    toy files. Returns the list of paths written.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    corpus = cc.corpus
    paths = []

    def emit(name, lines):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        paths.append(path)

    emit(f"{corpus.src_lang}.txt", (" ".join(s) for s, _ in corpus.pairs))
    emit(f"{corpus.tgt_lang}.txt", (" ".join(t) for _, t in corpus.pairs))
    emit(f"dict.{corpus.tgt_lang}-{corpus.src_lang}.txt",
         (f"{b} {c}" for b, c in sorted(cc.cipher.items())))
    if cc.nli:
        for lang, data in sorted(cc.nli.items()):
            emit(f"nli.{lang}.premises.txt", (" ".join(p) for p in data.premises))
            emit(f"nli.{lang}.hypotheses.txt", (" ".join(h) for h in data.hypotheses))
        emit("nli.labels.txt", (str(l) for l in cc.nli[corpus.tgt_lang].labels))
    return paths
