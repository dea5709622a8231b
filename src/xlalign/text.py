"""Tokenization, vocabularies, parallel corpora, denoising, SIF weights, splits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def id_of(self, token):
        return self.token_to_id.get(token, UNK)

    def encode(self, tokens):
        return [self.id_of(t) for t in tokens]

    def probability(self, token):
        """Unigram probability p(w); OOV tokens share the pooled UNK mass."""
        return self.frequencies[self.id_of(token)] / self.total_count


def build_vocab(token_seqs, min_count=1):
    """Count the tokens of the token sequences and assign ids; tokens seen
    fewer than min_count times collapse into UNK (their counts pool there for
    SIF weighting).
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts = {}
    n_seqs = 0
    for tokens in token_seqs:
        n_seqs += 1
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
    if n_seqs == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")

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


@dataclass
class ParallelCorpus:
    pairs: list  # [(source tokens, target tokens), ...]
    src_lang: str
    tgt_lang: str
    skipped: int = 0

    def __len__(self):
        return len(self.pairs)

    def source_sentences(self):
        return [s for s, _ in self.pairs]

    def target_sentences(self):
        return [t for _, t in self.pairs]


def load_parallel(src_path, tgt_path, src_lang, tgt_lang):
    """Pair line i of source with line i of target; skip pairs where either
    side tokenizes to nothing (the skip count is kept on the corpus).
    """
    with open(src_path, encoding="utf-8") as fh:
        src_lines = fh.read().splitlines()
    with open(tgt_path, encoding="utf-8") as fh:
        tgt_lines = fh.read().splitlines()
    if len(src_lines) != len(tgt_lines):
        raise ValueError(
            f"line counts differ: {src_path} has {len(src_lines)}, {tgt_path} has {len(tgt_lines)}")
    pairs, skipped = [], 0
    for s_line, t_line in zip(src_lines, tgt_lines):
        s, t = tokenize(s_line), tokenize(t_line)
        if s and t:
            pairs.append((s, t))
        else:
            skipped += 1
    if not pairs:
        raise ValueError("no usable sentence pairs after skipping empties")
    return ParallelCorpus(pairs, src_lang, tgt_lang, skipped)


def make_splits(n, sizes):
    """The split sizes for a corpus of n pairs, validated: nested prefix
    splits, split k covering pair indices [0, sizes[k])."""
    sizes = list(sizes)
    if not sizes:
        raise ValueError("at least one split size required")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"split sizes must be strictly increasing: {sizes}")
    if sizes[-1] > n:
        raise ValueError(f"largest split {sizes[-1]} exceeds corpus size {n}")
    return sizes


def load_word2vec(path):
    """word2vec text format: `<count> <dim>` header, then `<word> <v1> ...`.

    A UTF-8 byte-order mark and trailing whitespace on a line (fastText `.vec`
    files end every line with a space) are accepted. Returns (words, matrix).
    """
    with open(path, encoding="utf-8-sig") as fh:
        header = fh.readline().split()
        if len(header) != 2 or not all(h.isdigit() for h in header):
            raise ValueError(f"{path}: header {' '.join(header)!r} is not '<count> <dim>'")
        count, dim = int(header[0]), int(header[1])
        words, rows = [], []
        for line in fh:
            parts = line.rstrip().split(" ")
            if len(parts) != dim + 1:
                raise ValueError(f"bad embedding line for {parts[0]!r}: expected {dim} values")
            words.append(parts[0])
            rows.append([float(v) for v in parts[1:]])
    if len(words) != count:
        raise ValueError(f"embedding file header says {count} words, found {len(words)}")
    return words, np.array(rows, dtype=np.float64)


def save_word2vec(path, words, matrix):
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n")
        for w, row in zip(words, matrix):
            fh.write(w + " " + " ".join(repr(float(v)) for v in row) + "\n")


def load_dictionary(path):
    """Word dictionary: one `<source_word> <target_word>` pair per line."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln}: expected two words, got {len(parts)}")
            pairs.append((parts[0], parts[1]))
    return pairs
