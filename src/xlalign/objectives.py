"""Training objectives and loops.

Four procedures share the BiLSTM encoder:

  * denoising reconstruction (noisy input, clean target, same language);
  * translation without attention (source input, pivot-language target);
  * joint training of several encoders against one shared decoder,
    alternating the batch language round-robin;
  * cross-lingual inference classification with a single shared softmax head,
    premise and hypothesis languages drawn independently per batch;
  * frozen-pivot representation transfer with an L1 regression loss.

The decoder is conditioned by concatenating the sentence embedding to the
previous-token embedding at every step; there is no attention. All loops are
deterministic functions of (seed, data, schedule).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .encoders import (EncoderParams, LSTMParams, _cell, encode_batch, encode_sentences,
                       init_lstm, pad_batch, _check_ids)
from .optim import fit
from .rand import Xorshift64Star
from .text import BOS, EOS, PAD, corrupt

TRACE_HEADER = "step,objective,language_pair,value"


@dataclass
class TrainSchedule:
    batch_size: int = 16
    steps: int = 100
    lr: float = 1e-3
    language_order: list = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


def write_trace(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        for step, objective, pair, value in rows:
            fh.write(f"{step},{objective},{pair},{value!r}\n")


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

@dataclass
class DecoderParams(ad.Params):
    embeddings: np.ndarray  # (V, D) previous-token table, untied from encoders
    cell: LSTMParams        # input dim D + sentence_dim
    w_out: np.ndarray       # (H, V)
    b_out: np.ndarray       # (V,)
    lang: str

    kind = "dec"

    @property
    def vocab_size(self):
        return self.w_out.shape[1]


def new_decoder(vocab_size, dim, sentence_dim, hidden, lang, seed):
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(dim)
    emb = rng.uniform(-bound, bound, size=(vocab_size, dim))
    cell = init_lstm(dim + sentence_dim, hidden, rng)
    w_out = rng.uniform(-1.0 / np.sqrt(hidden), 1.0 / np.sqrt(hidden), size=(hidden, vocab_size))
    return DecoderParams(emb, cell, w_out, np.zeros(vocab_size), lang)


def teacher_forcing_arrays(target_ids):
    """Build decoder input/target/mask arrays for a batch of target sentences.

    Step k predicts target token k from [BOS, y_1, .., y_{k-1}]; the final
    step predicts EOS.
    """
    k_max = max(len(s) + 1 for s in target_ids)
    dec_in = np.full((len(target_ids), k_max), PAD, dtype=np.int64)
    targets = np.full((len(target_ids), k_max), PAD, dtype=np.int64)
    mask = np.zeros((len(target_ids), k_max))
    for i, seq in enumerate(target_ids):
        row_in = [BOS] + list(seq)
        row_tgt = list(seq) + [EOS]
        dec_in[i, :len(row_in)] = row_in
        targets[i, :len(row_tgt)] = row_tgt
        mask[i, :len(row_tgt)] = 1.0
    return dec_in, targets, mask


def decode_ce_sum(sent_emb, dec_tensors, dec_in, targets, mask):
    """Teacher-forced cross-entropy summed over unmasked target tokens.

    `dec_tensors` is the decoder's `ParamSet`. The sentence embedding is
    appended to the previous-token embedding at every step; all steps' logits
    come from one output projection.
    """
    x = ad.gather_rows(dec_tensors["emb"], ad.time_major(dec_in))
    states = ad.lstm_scan(x, *_cell(dec_tensors, "cell."), mask, context=sent_emb)
    logits = ad.add(ad.matmul(states, dec_tensors["w_out"]), dec_tensors["b_out"])
    return ad.softmax_cross_entropy_sum(logits, ad.time_major(targets), ad.time_major(mask))


def _encode_for(enc_tensors, enc, vocab, sentences):
    ids, mask, _ = pad_batch([vocab.encode(s) for s in sentences])
    _check_ids(ids, enc.vocab_size)
    return encode_batch(ids, mask, enc_tensors)


@dataclass
class LossGraph:
    loss: ad.Tensor
    enc_tensors: ad.ParamSet
    dec_tensors: ad.ParamSet


def seq2seq_loss(inputs, targets, enc, dec, src_vocab, tgt_vocab,
                 denoise=None, noise_rng=None):
    """Token-level cross-entropy of reconstructing/translating `targets` from
    the sentence embeddings of `inputs`, averaged over non-PAD target tokens.

    With `denoise` set the encoder sees corrupted inputs while the loss still
    targets the clean sentences (inputs and targets are then the same batch).
    """
    if len(inputs) != len(targets):
        raise ValueError(f"batch sides differ: {len(inputs)} inputs vs {len(targets)} targets")
    if denoise is not None:
        rng = noise_rng if noise_rng is not None else Xorshift64Star(denoise.seed)
        inputs = [corrupt(s, denoise, rng) for s in inputs]
    if any(not s for s in targets):
        raise ValueError("cannot decode an empty target sentence")
    tgt_ids = [tgt_vocab.encode(s) for s in targets]
    top = max(max(s) for s in tgt_ids)
    if top >= dec.vocab_size:
        raise ValueError(
            f"target vocabulary mismatch: id {top} outside decoder table of {dec.vocab_size}")

    enc_tensors = ad.ParamSet(enc)
    dec_tensors = ad.ParamSet(dec)
    sent = _encode_for(enc_tensors, enc, src_vocab, inputs)
    dec_in, tgt_arr, mask = teacher_forcing_arrays(tgt_ids)
    ce = decode_ce_sum(sent, dec_tensors, dec_in, tgt_arr, mask)
    return LossGraph(ad.scale(ce, 1.0 / int(mask.sum())), enc_tensors, dec_tensors)


# ---------------------------------------------------------------------------
# joint encoder-decoder training
# ---------------------------------------------------------------------------

@dataclass
class JointResult:
    encoders: dict
    decoder: DecoderParams
    trace: list


def train_joint_seq2seq(parallel, encoders, decoder, vocabs, pivot_lang, sched, noise):
    """Alternate batch languages round-robin against one shared decoder.

    Pivot-language batches run the denoising reconstruction objective, with
    `noise` (a NoiseParams), on the pivot side of the corpus; every other
    language runs translation into the pivot. The decoder parameter arrays
    are updated in place, so a single shared set persists across all steps.
    """
    order = sched.language_order or sorted(encoders)
    for lang in order:
        if lang not in encoders:
            raise ValueError(f"no encoder for scheduled language {lang!r}")
    noise_rng = Xorshift64Star(noise.seed ^ 0x5DEECE66D)
    rng = np.random.default_rng(sched.seed)
    pivot_sents = parallel.target_sentences()
    pairs = parallel.pairs

    def one_step(step):
        lang = order[step % len(order)]
        idx = rng.integers(0, len(pairs), size=sched.batch_size)
        if lang == pivot_lang:
            batch = [pivot_sents[i] for i in idx]
            graph = seq2seq_loss(batch, batch, encoders[lang], decoder,
                                 vocabs[lang], vocabs[pivot_lang],
                                 denoise=noise, noise_rng=noise_rng)
            objective, pair = "sdae", f"{lang}>{lang}"
        else:
            src = [pairs[i][0] for i in idx]
            tgt = [pairs[i][1] for i in idx]
            graph = seq2seq_loss(src, tgt, encoders[lang], decoder,
                                 vocabs[lang], vocabs[pivot_lang])
            objective, pair = "nmt", f"{lang}>{pivot_lang}"
        # clip-norm summation order: encoder, then decoder
        return (graph.loss, (graph.enc_tensors, graph.dec_tensors),
                [(step, objective, pair, float(graph.loss.data))])

    trace = fit([decoder, *encoders.values()], sched.steps, sched.lr, one_step)
    return JointResult(encoders, decoder, trace)


# ---------------------------------------------------------------------------
# inference classifier
# ---------------------------------------------------------------------------

@dataclass
class ClassifierHead(ad.Params):
    """One-hidden-layer tanh MLP: the shared InferSent head over pair
    features, and the CLDC classifier over document vectors."""

    w1: np.ndarray  # (in_dim, hidden)
    b1: np.ndarray
    w2: np.ndarray  # (hidden, n_classes)
    b2: np.ndarray

    kind = "head"

    def predict(self, x):
        """Class id of each row of the plain array x."""
        return mlp_logits(ad.constant(x), ad.ParamSet(self, trainable=False)).data.argmax(axis=1)


def new_mlp(in_dim, hidden, n_classes, seed):
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-1, 1, size=(in_dim, hidden)) / np.sqrt(in_dim)
    w2 = rng.uniform(-1, 1, size=(hidden, n_classes)) / np.sqrt(hidden)
    return ClassifierHead(w1, np.zeros(hidden), w2, np.zeros(n_classes))


def new_head(sentence_dim, hidden=128, seed=0):
    return new_mlp(4 * sentence_dim, hidden, 3, seed)


def mlp_logits(x, head_tensors):
    hidden = ad.tanh(ad.add(ad.matmul(x, head_tensors["w1"]), head_tensors["b1"]))
    return ad.add(ad.matmul(hidden, head_tensors["w2"]), head_tensors["b2"])


def pair_features(u, v):
    """[u; v; |u - v|; u*v] along the last axis."""
    return ad.concat([u, v, ad.absolute(ad.sub(u, v)), ad.mul(u, v)], axis=-1)


@dataclass
class InferSentLossGraph:
    loss: ad.Tensor
    logits: ad.Tensor
    premise_tensors: ad.ParamSet
    hypothesis_tensors: ad.ParamSet
    head_tensors: ad.ParamSet


def infersent_loss(premises, hypotheses, labels, enc_p, enc_h, head, vocab_p, vocab_h):
    """Three-way cross-entropy of the shared classifier over a sentence-pair
    batch; the two sides may use different encoders (and share one when
    enc_p is enc_h).
    """
    labels = np.asarray(labels, dtype=np.int64)
    enc_tensors_p = ad.ParamSet(enc_p)
    enc_tensors_h = enc_tensors_p if enc_h is enc_p else ad.ParamSet(enc_h)
    head_tensors = ad.ParamSet(head)
    u = _encode_for(enc_tensors_p, enc_p, vocab_p, premises)
    v = _encode_for(enc_tensors_h, enc_h, vocab_h, hypotheses)
    logits = head_logits(u, v, head_tensors)
    loss = ad.scale(ad.softmax_cross_entropy_sum(logits, labels), 1.0 / len(labels))
    return InferSentLossGraph(loss, logits, enc_tensors_p, enc_tensors_h, head_tensors)


def head_logits(u, v, head_tensors):
    return mlp_logits(pair_features(u, v), head_tensors)


def infersent_classify(u, v, head):
    """Probability triple over {entailment, contradiction, neutral}."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"embedding dimensions differ: {u.shape} vs {v.shape}")
    if 4 * u.shape[-1] != head.w1.shape[0]:
        raise ValueError(
            f"feature dim {4 * u.shape[-1]} does not match classifier input {head.w1.shape[0]}")
    logits = head_logits(ad.constant(u), ad.constant(v), ad.ParamSet(head, trainable=False))
    return ad.softmax_rows(logits.data)


@dataclass
class NLIDataset:
    premises: list
    hypotheses: list
    labels: list

    def __post_init__(self):
        if not (len(self.premises) == len(self.hypotheses) == len(self.labels)):
            raise ValueError("premises, hypotheses and labels must be index-aligned")
        bad = [l for l in self.labels if l not in (0, 1, 2)]
        if bad:
            raise ValueError(f"labels outside {{0,1,2}}: {sorted(set(bad))[:5]}")


@dataclass
class InferSentResult:
    encoders: dict
    head: ClassifierHead
    trace: list
    language_draws: list  # (premise_lang, hypothesis_lang) per step


def draw_language_pair(rng, langs):
    """Premise and hypothesis languages, independent and uniform."""
    return langs[int(rng.integers(len(langs)))], langs[int(rng.integers(len(langs)))]


def train_joint_infersent(datasets, encoders, head, vocabs, sched):
    """Premise and hypothesis languages are drawn independently and uniformly
    per batch; a single classifier head is shared across all languages.
    """
    langs = sorted(datasets)
    for lang in langs:
        if lang not in encoders:
            raise ValueError(f"no encoder for language {lang!r}")
    n = len(datasets[langs[0]].premises)
    rng = np.random.default_rng(sched.seed)
    draws = []

    def one_step(step):
        p_lang, h_lang = draw_language_pair(rng, langs)
        draws.append((p_lang, h_lang))
        idx = rng.integers(0, n, size=sched.batch_size)
        labels = np.array([datasets[p_lang].labels[i] for i in idx])
        graph = infersent_loss([datasets[p_lang].premises[i] for i in idx],
                               [datasets[h_lang].hypotheses[i] for i in idx],
                               labels, encoders[p_lang], encoders[h_lang], head,
                               vocabs[p_lang], vocabs[h_lang])
        acc = float((graph.logits.data.argmax(axis=1) == labels).mean())
        pair = f"{p_lang}|{h_lang}"
        # clip-norm summation order: head, premise, hypothesis; one ParamSet
        # serves both sides when p_lang == h_lang
        return (graph.loss, (graph.head_tensors, graph.premise_tensors, graph.hypothesis_tensors),
                [(step, "infersent_loss", pair, float(graph.loss.data)),
                 (step, "infersent_acc", pair, acc)])

    trace = fit([head, *encoders.values()], sched.steps, sched.lr, one_step)
    return InferSentResult(encoders, head, trace, draws)


def infersent_accuracy(datasets, encoders, head, vocabs, p_lang, h_lang):
    """Classification accuracy over a full dataset for one language pairing."""
    data_p, data_h = datasets[p_lang], datasets[h_lang]
    u = encode_sentences(data_p.premises, vocabs[p_lang], encoders[p_lang])
    v = encode_sentences(data_h.hypotheses, vocabs[h_lang], encoders[h_lang])
    logits = head_logits(ad.constant(u), ad.constant(v), ad.ParamSet(head, trainable=False))
    return int((logits.data.argmax(axis=1) == np.array(data_p.labels)).sum()) / len(u)


# ---------------------------------------------------------------------------
# representation transfer
# ---------------------------------------------------------------------------

def transfer_l1_loss(sentences, target_embeddings, enc, vocab):
    """Mean (per pair) L1 distance between the encoder's embeddings of the
    sentences and fixed target embeddings. Returns (loss, encoder ParamSet).
    """
    enc_tensors = ad.ParamSet(enc)
    emb = _encode_for(enc_tensors, enc, vocab, sentences)
    diff = ad.absolute(ad.sub(emb, ad.constant(target_embeddings)))
    return ad.scale(ad.tsum(diff), 1.0 / len(sentences)), enc_tensors


@dataclass
class TransferResult:
    new_encoder: EncoderParams
    trace: list


def train_transfer(parallel, pivot_enc, new_enc, src_vocab, tgt_vocab, sched):
    """Regress the new encoder's embeddings onto the frozen pivot encoder's
    embeddings of the parallel translations (L1 loss, Adam).

    The pivot encoder is never touched; its embeddings of the target side are
    precomputed once.
    """
    if pivot_enc.output_dim != new_enc.output_dim:
        raise ValueError(
            f"embedding dimension mismatch: pivot {pivot_enc.output_dim} vs new {new_enc.output_dim}")
    targets = encode_sentences(parallel.target_sentences(), tgt_vocab, pivot_enc)
    rng = np.random.default_rng(sched.seed)
    src_sents = parallel.source_sentences()
    pair = f"{parallel.src_lang}>{parallel.tgt_lang}"

    def one_step(step):
        idx = rng.integers(0, len(src_sents), size=sched.batch_size)
        loss, enc_tensors = transfer_l1_loss([src_sents[i] for i in idx], targets[idx],
                                             new_enc, src_vocab)
        return loss, (enc_tensors,), [(step, "transfer_l1", pair, float(loss.data))]

    trace = fit([new_enc], sched.steps, sched.lr, one_step)
    return TransferResult(new_enc, trace)
