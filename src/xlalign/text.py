"""Tokenization, vocabularies, row-aligned corpora, denoising, SIF weights, file I/O."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, read_file
from .rand import Xorshift64Star

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED = ["<pad>", "<unk>", "<bos>", "<eos>"]


def tokenize(line):
    """Lowercase, split on whitespace, then split every punctuation character
    into its own token. A character counts as punctuation when it is neither
    alphanumeric nor whitespace.
    """
    out = []
    for chunk in line.lower().split():
        run = []
        for ch in chunk:
            if ch.isalnum():
                run.append(ch)
            else:
                if run:
                    out.append("".join(run))
                    run = []
                out.append(ch)
        if run:
            out.append("".join(run))
    return out


@dataclass
class Vocabulary:
    token_to_id: dict
    id_to_token: list
    frequencies: list  # per id; UNK carries the pooled below-threshold mass
    total_count: int

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, tokens):
        """The id of each token; unknown tokens are UNK."""
        get = self.token_to_id.get
        return [get(t, UNK) for t in tokens]


def build_vocab(token_seqs, min_count=1):
    """Count the tokens of the token sequences and assign ids; tokens seen
    fewer than min_count times collapse into UNK (their counts pool there for
    SIF weighting).
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    seqs = iter(token_seqs)
    for first in seqs:
        break
    else:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts = Counter(itertools.chain(first, itertools.chain.from_iterable(seqs)))

    id_to_token = list(RESERVED)
    frequencies = [0, 0, 0, 0]
    for token in sorted(counts):
        c = counts[token]
        if c >= min_count:
            id_to_token.append(token)
            frequencies.append(c)
        else:
            frequencies[UNK] += c
    token_to_id = {t: i for i, t in enumerate(id_to_token)}
    return Vocabulary(token_to_id, id_to_token, frequencies, sum(frequencies))


def sif_weight(freq, total, a):
    """Smooth-inverse-frequency weight a / (a + p(w)) with p(w) = freq/total."""
    if total <= 0:
        raise ValueError("total token count must be positive")
    if a <= 0:
        raise ValueError(f"smoothing constant must be positive, got {a}")
    if not 0 <= freq <= total:
        raise ValueError(f"frequency {freq} outside [0, {total}]")
    return a / (a + freq / total)


@dataclass
class NoiseParams:
    p_del: float = 0.1
    p_swap: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.p_del <= 1.0 and 0.0 <= self.p_swap <= 1.0):
            raise ValueError(f"noise probabilities out of range: {self.p_del}, {self.p_swap}")


def corrupt(tokens, noise, rng=None):
    """Denoising corruption: swap then delete, never emptying the sentence.

    Pass 1 walks non-overlapping adjacent bigrams (0,1), (2,3), ... left to
    right and swaps each with probability p_swap (one RNG draw per bigram).
    Pass 2 draws one deletion flag per token with probability p_del; if every
    token got flagged, the final deletion is dropped so one token survives.

    A caller-supplied rng threads one generator through many calls (training);
    otherwise a fresh Xorshift64Star(noise.seed) is used.
    """
    if not tokens:
        raise ValueError("cannot corrupt an empty token sequence")
    rng = rng if rng is not None else Xorshift64Star(noise.seed)
    out = list(tokens)
    for i in range(0, len(out) - 1, 2):
        if rng.uniform() < noise.p_swap:
            out[i], out[i + 1] = out[i + 1], out[i]
    drop = [rng.uniform() < noise.p_del for _ in out]
    if all(drop):
        drop[-1] = False
    return [t for t, d in zip(out, drop) if not d]


class ParallelCorpus:
    """Row-aligned sentences in a fixed language order: row i of every
    language is a translation of row i of the others.

    Built from rows, each a tuple of one token list per language in `langs`
    order; `ParallelCorpus(zip(sentences), lang)` is a one-language corpus.
    `len(corpus)` is the row count, `corpus[lang]` that language's sentences
    and `corpus[a:b]` the corpus of rows a to b.
    """

    def __init__(self, rows, *langs):
        rows = list(rows)
        if not langs or len(set(langs)) != len(langs):
            raise ValueError(f"a corpus needs distinct languages, got {langs}")
        if set(map(len, rows)) - {len(langs)}:
            raise ValueError(f"every row needs one sentence per language of {langs}")
        self.langs, self._n = langs, len(rows)
        self._sentences = {lang: [row[j] for row in rows] for j, lang in enumerate(langs)}

    def __len__(self):
        return self._n

    def __getitem__(self, key):
        if isinstance(key, slice):
            return ParallelCorpus(zip(*(s[key] for s in self._sentences.values())), *self.langs)
        return self._sentences[key]

    def items(self):
        return self._sentences.items()

    def rows(self):
        """Row i as a tuple of its sentences, in language order."""
        return list(zip(*self._sentences.values()))

    def without(self, other):
        """The rows that equal no row of `other` in every language."""
        seen = set(zip(*(map(tuple, other[lang]) for lang in self.langs)))
        keys = zip(*(map(tuple, s) for s in self._sentences.values()))
        return ParallelCorpus((r for r, k in zip(self.rows(), keys) if k not in seen), *self.langs)

    # the names the benchmark calls
    pairs = property(rows)

    def source_sentences(self):
        return self[self.langs[0]]

    def target_sentences(self):
        return self[self.langs[1]]


def load_word2vec(path):
    """word2vec text format: `<count> <dim>` header, then `<word> <v1> ...`.

    A UTF-8 byte-order mark and trailing whitespace on a line (fastText `.vec`
    files end every line with a space) are accepted. Returns (words, matrix),
    the matrix `(count, dim)` even for a header-only file. A malformed or
    non-UTF-8 file is a `ConfigError` naming the file (and line); a `nan` or
    `inf` value is read as it stands.
    """
    lines = read_file(path, list, encoding="utf-8-sig")
    header = lines[0].split() if lines else []
    if len(header) != 2 or not all(h.isascii() and h.isdigit() for h in header):
        raise ConfigError(f"{path}:1: header {' '.join(header)!r} is not '<count> <dim>'")
    count, dim = int(header[0]), int(header[1])
    words, rows = [], []
    for ln, line in enumerate(lines[1:], 2):
        parts = line.rstrip().split(" ")
        if len(parts) != dim + 1:
            raise ConfigError(f"{path}:{ln}: expected a word and {dim} values, "
                              f"got {len(parts) - 1} values after {parts[0]!r}")
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise ConfigError(f"{path}:{ln}: {exc}") from None
        words.append(parts[0])
    if len(words) != count:
        raise ConfigError(f"{path}:1: header says {count} words, found {len(words)}")
    return words, np.array(rows, dtype=np.float64).reshape(count, dim)


def save_word2vec(path, words, matrix):
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n")
        for w, row in zip(words, matrix):
            fh.write(w + " " + " ".join(repr(float(v)) for v in row) + "\n")


def write_csv(path, header, rows):
    """A header line of column names, then one line per row; floats are
    written with repr, so they read back exactly, everything else with str."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in [header, *rows]:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")

