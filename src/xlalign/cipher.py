"""Synthetic bilingual corpora with a known perfect alignment.

The ciphered language is a bijective token renaming of the base language,
so an exact cross-lingual correspondence exists by construction and
desk-scale runs have a recoverable gold standard. Token frequencies follow a
1/(rank+2) curve so inverse-frequency weighting has something to bite on.

Also provides a 3-class inference toy set with deterministic labels:
hypothesis tokens contained in the premise -> entailment (0), disjoint from
the premise -> contradiction (1), partial overlap -> neutral (2).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, read_file
from .evaluation import N_CLDC_CLASSES
from .objectives import NLIDataset
from .rand import Xorshift64Star
from .text import ParallelCorpus, tokenize

ENTAILMENT, CONTRADICTION, NEUTRAL = 0, 1, 2
_PREMISE_MIN = 4  # tokens of the shortest NLI premise

# Most draws of one bulk call: its 64 KiB arrays stay under glibc's default
# 128 KiB mmap threshold. Freeing a larger array raises that threshold for
# the rest of the process, and the heap then keeps memory that no object
# holds (about 1 MB of peak RSS in a benchmark process).
_BLOCK_DRAWS = 1 << 13


@dataclass
class CipherCorpus:
    corpus: ParallelCorpus      # language order: ciphered ("lb"), then base ("la")
    cipher: dict | None         # base token -> ciphered token; None when not read
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
    """The first index whose cumulative weight reaches a uniform draw."""
    return bisect.bisect_left(cumulative, rng.uniform() * cumulative[-1])


def _weighted_ids(u, cumulative):
    """`_sample_weighted` of each uniform draw in the array u."""
    return np.searchsorted(cumulative, u * cumulative[-1], side="left")


def gen_cipher_corpus(vocab_size, n_sentences, length_range=(3, 8), seed=0,
                      nli_size=0, langs=("lb", "la")):
    """Base-language sentences plus their token-ciphered translations.

    `langs` names the corpus languages in order: the ciphered language, then
    the base language, matching the usual "align the new language to the
    pivot" direction. An argument out of range is a ConfigError.
    """
    if vocab_size < 10:
        raise ConfigError(f"vocab_size must be >= 10, got {vocab_size}")
    if n_sentences < 1:
        raise ConfigError(f"n_sentences must be >= 1, got {n_sentences}")
    lo, hi = length_range
    if not 1 <= lo <= hi:
        raise ConfigError(f"degenerate length range {length_range}")
    if nli_size and hi < _PREMISE_MIN:
        raise ConfigError(f"NLI generation needs a longest sentence length of at least "
                          f"{_PREMISE_MIN} tokens, the premise minimum; got length range "
                          f"{length_range}")
    if nli_size and hi >= vocab_size - 2:
        raise ConfigError("NLI generation needs sentence lengths well below the vocabulary size")

    rng = Xorshift64Star(seed)
    base = [f"w{i:03d}" for i in range(vocab_size)]
    perm = list(range(vocab_size))
    rng.shuffle(perm)
    cipher = {base[i]: f"k{perm[i]:03d}" for i in range(vocab_size)}

    cumulative = list(itertools.accumulate(1.0 / (i + 2) for i in range(vocab_size)))

    # A sentence is a length draw, then that many token draws.
    coded_words = [cipher[w] for w in base]
    rows = []

    def read(u, count):
        drawn_length = (lo + (u * (hi - lo + 1)).astype(np.int64)).tolist()
        lengths = []
        pos = 0
        for _ in range(count):
            lengths.append(drawn_length[pos])
            pos += 1 + drawn_length[pos]
        tokens = _token_positions(lengths, np.arange(1, count + 1))
        ids = _weighted_ids(u[tokens], cumulative)
        rows.extend(zip(_sentences(ids, lengths, coded_words), _sentences(ids, lengths, base)))
        return pos

    _read_in_blocks(rng, n_sentences, hi + 1, read)
    corpus = ParallelCorpus(rows, *langs)

    nli = _gen_nli(rng, base, cipher, nli_size, lo, hi, cumulative, langs) if nli_size else None
    return CipherCorpus(corpus, cipher, nli)


def _read_in_blocks(rng, n, most_draws, read):
    """Read n records of at most `most_draws` draws each from rng's stream,
    drawn in bulk a block of records at a time: `read(u, count)` reads
    `count` records from the draws `u` and returns how many draws they used,
    and the generator resumes after the last of them."""
    block = max(1, _BLOCK_DRAWS // most_draws)
    for start in range(0, n, block):
        count = min(block, n - start)
        u, states = rng.uniforms(count * most_draws)
        rng.state = int(states[read(u, count) - 1])


def _token_positions(lengths, skipped):
    """The stream positions of the token draws of sentences of `lengths`,
    where `skipped[i]` draws that are not token draws precede sentence i's."""
    return np.arange(sum(lengths)) + np.repeat(skipped, lengths)


def _sentences(ids, lengths, words):
    """The words of `ids`, cut into consecutive token lists of `lengths`."""
    flat = np.array(words, dtype=object)[ids].tolist()
    return [flat[a:b] for a, b in itertools.pairwise(itertools.accumulate(lengths, initial=0))]


def _gen_nli(rng, base, cipher, n, lo, hi, cumulative, langs):
    premises, hypotheses, labels = [], [], []
    min_len = max(lo, _PREMISE_MIN)
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
    return dict(zip(langs, (ciphered, base_set)))


# ---------------------------------------------------------------------------
# synthetic labeled documents for the classification harness
# ---------------------------------------------------------------------------

def gen_cldc_docs(cipher_corpus, n_docs, seed=0):
    """Topic-labeled documents of 2-4 sentences of 3-6 tokens: each of the
    N_CLDC_CLASSES classes draws its sentences from one band of the
    vocabulary, in both languages of the cipher corpus.

    Returns {lang: [(doc, label), ...]} with docs as lists of token lists. A
    vocabulary of fewer than 3 words a band is a ConfigError.
    """
    base = sorted(cipher_corpus.cipher)
    band = len(base) // N_CLDC_CLASSES
    if band < 3:
        raise ConfigError(f"vocabulary too small for {N_CLDC_CLASSES} topic bands")
    ciphered_lang, base_lang = cipher_corpus.corpus.langs
    docs = {base_lang: [], ciphered_lang: []}
    coded_words = [cipher_corpus.cipher[w] for w in base]

    # A document draws its sentence count (2-4), a sentence its length (3-6),
    # a token its index in the document's band.
    def read(u, count):
        drawn_count = (2 + (u * 3).astype(np.int64)).tolist()
        drawn_length = (3 + (u * 4).astype(np.int64)).tolist()
        doc_sizes, lengths = [], []
        pos = 0
        for _ in range(count):
            doc_sizes.append(drawn_count[pos])
            pos += 1
            for _ in range(doc_sizes[-1]):
                lengths.append(drawn_length[pos])
                pos += 1 + drawn_length[pos]
        # before a sentence's tokens: its own and earlier length draws, and
        # the count draws of its document and the earlier ones
        skipped = np.arange(1, len(lengths) + 1) + np.repeat(np.arange(1, count + 1), doc_sizes)
        labels = np.arange(len(docs[base_lang]), len(docs[base_lang]) + count) % N_CLDC_CLASSES
        band_starts = np.repeat(np.repeat(labels * band, doc_sizes), lengths)
        ids = (u[_token_positions(lengths, skipped)] * band).astype(np.int64) + band_starts
        sentences = _sentences(ids, lengths, base)
        coded = _sentences(ids, lengths, coded_words)
        bounds = itertools.pairwise(itertools.accumulate(doc_sizes, initial=0))
        for (a, b), label in zip(bounds, labels.tolist()):
            docs[base_lang].append((sentences[a:b], label))
            docs[ciphered_lang].append((coded[a:b], label))
        return pos

    _read_in_blocks(Xorshift64Star(seed), n_docs, 1 + 4 * (1 + 6), read)
    return docs


# ---------------------------------------------------------------------------
# on-disk form
# ---------------------------------------------------------------------------

def write_corpus_files(out_dir, cc):
    """Write one sentence file per language, in language order and
    line-aligned, then the token dictionary and any NLI toy files. Returns the
    list of paths written.
    """
    os.makedirs(out_dir, exist_ok=True)
    corpus = cc.corpus
    paths = []

    def emit(name, lines):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        paths.append(path)

    for lang, sentences in corpus.items():
        emit(f"{lang}.txt", (" ".join(s) for s in sentences))
    ciphered_lang, base_lang = corpus.langs
    emit(f"dict.{base_lang}-{ciphered_lang}.txt",
         (f"{b} {c}" for b, c in sorted(cc.cipher.items())))
    if cc.nli:
        for lang, data in sorted(cc.nli.items()):
            emit(f"nli.{lang}.premises.txt", (" ".join(p) for p in data.premises))
            emit(f"nli.{lang}.hypotheses.txt", (" ".join(h) for h in data.hypotheses))
        emit("nli.labels.txt", (str(l) for l in cc.nli[base_lang].labels))
    return paths


def read_corpus_files(corpus_dir, langs, nli=False, dictionary=False):
    """The inverse of `write_corpus_files`: the `CipherCorpus` of the files in
    `corpus_dir`, its languages in `langs` order (the other language, then
    the pivot).

    Row i holds line i of each `<lang>.txt`; a row with an empty line is
    skipped. The dictionary `dict.<pivot>-<other>.txt` (or, when only it
    exists, `dict.<other>-<pivot>.txt` read reversed) is read only with
    `dictionary`, the NLI files only with `nli`. A missing file raises
    `FileNotFoundError`, a malformed one a `ConfigError` naming it.
    """
    other, pivot = langs
    path = functools.partial(os.path.join, corpus_dir)
    rows = [row for _, row in _read_rows([path(f"{lang}.txt") for lang in langs])]
    names = [path(f"dict.{a}-{b}.txt") for a, b in ((pivot, other), (other, pivot))]
    flip = not os.path.exists(names[0]) and os.path.exists(names[1])
    cipher = _read_pairs(names[flip], flip) if dictionary else None
    return CipherCorpus(ParallelCorpus(rows, *langs), cipher,
                        _read_nli(path, langs) if nli else None)


def _read_rows(paths):
    """(1-based line number, row) over the line-aligned files `paths`, each
    line tokenized; rows where any line tokenizes to nothing are skipped."""
    texts = [read_file(p, lambda fh: fh.read().splitlines()) for p in paths]
    if len(set(map(len, texts))) > 1:
        raise ConfigError("line counts differ: " + ", ".join(
            f"{p} has {len(t)}" for p, t in zip(paths, texts)))
    return [(ln, row) for ln, row in enumerate(zip(*(map(tokenize, t) for t in texts)), 1)
            if all(row)]


def _read_pairs(path, flip=False):
    """{first word: second word} of a dictionary file of `<word> <word>` lines;
    {second word: first word} with `flip`."""
    rows = _read_rows([path])
    for ln, (words,) in rows:
        if len(words) != 2:
            raise ConfigError(f"{path}:{ln}: expected two words a line, got {' '.join(words)!r}")
    return dict(words[::-1] if flip else words for _, (words,) in rows)


def _read_nli(path, langs):
    """{lang: NLIDataset} from `nli.<lang>.{premises,hypotheses}.txt` and the
    shared `nli.labels.txt`, all line-aligned; a label line holds one label,
    0, 1 or 2."""
    labels_path = path("nli.labels.txt")
    rows = _read_rows([path(f"nli.{lang}.{part}.txt") for lang in langs
                       for part in ("premises", "hypotheses")] + [labels_path])
    for ln, (*_, label) in rows:
        if label not in (["0"], ["1"], ["2"]):
            raise ConfigError(f"{labels_path}:{ln}: expected one label 0, 1 or 2, "
                              f"got {' '.join(label)!r}")
    labels = [int(row[-1][0]) for _, row in rows]
    return {lang: NLIDataset([row[2 * i] for _, row in rows], [row[2 * i + 1] for _, row in rows],
                             labels) for i, lang in enumerate(langs)}
