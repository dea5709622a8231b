"""Command-line driver.

Subcommands: gen-corpus, train, transfer, fit-map, eval-retrieval, eval-cldc,
curve, neighbors, run. Exit codes: 0 success, 1 a bad flag, config or input
file (a ConfigError, raised where it is found) or a file-system error, 2 a
numeric failure. Output paths are taken relative to --out-dir.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .autodiff import NonFiniteError
from .cipher import gen_cldc_docs, write_corpus_files
from .config import FRAMEWORKS, ConfigError, load_config, parse_config
from .evaluation import (N_CLDC_CLASSES, CLDCReport, CurvePoint, RetrievalReport,
                         batched_embedder, cldc_train_eval, retrieval_accuracy)
from .mapping import apply_map, load_map
from .pipeline import (Experiment, evaluate_splits, generate_corpus, materialize, run_experiment,
                       write_neighbors)
from .text import load_word2vec, write_csv


def _load_cfg(args):
    overrides = list(args.set or [])
    if args.out_dir:
        overrides.append(f"out_dir={args.out_dir}")
    if args.config:
        return load_config(args.config, overrides)
    return parse_config("", overrides)


def _at_least(flag, value, low):
    if value < low:
        raise ConfigError(f"{flag} must be at least {low}, got {value}")


def _final_embedders(cfg, data):
    exp = Experiment(cfg, data)
    embedders, _ = exp.build(cfg.splits[-1])
    return exp, embedders


def cmd_gen_corpus(args):
    cfg = _load_cfg(args)
    if cfg.corpus_dir:
        raise ConfigError(f"gen-corpus generates a corpus; corpus_dir={cfg.corpus_dir} is set")
    for p in write_corpus_files(cfg.out_dir, generate_corpus(cfg)):
        print(p)
    return 0


# subcommands that run the full pipeline: name -> (help, allowed frameworks, message)
RUN_COMMANDS = {
    "train": ("train a joint model per the config", ("joint_seq2seq", "joint_infersent"),
              "trained {framework}; artifacts in {out_dir}"),
    "transfer": ("frozen-pivot transfer training", ("transfer",),
                 "transfer training done; artifacts in {out_dir}"),
    "fit-map": ("fit an orthogonal alignment map", ("sentence_map", "word_dict_map"),
                "alignment map fitted; artifacts in {out_dir}"),
    "run": ("full train/align/evaluate pipeline", FRAMEWORKS,
            "run complete; {files} files in {out_dir}"),
}


def cmd_run(args):
    _, allowed, message = RUN_COMMANDS[args.command]
    cfg = _load_cfg(args)
    if cfg.framework not in allowed:
        raise ConfigError(
            f"{args.command} expects framework in {allowed}, config says {cfg.framework!r}")
    produced = run_experiment(cfg)
    print(message.format(framework=cfg.framework, out_dir=cfg.out_dir, files=len(produced)))
    return 0


def cmd_curve(args):
    cfg = _load_cfg(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    points, _ = evaluate_splits(Experiment(cfg, materialize(cfg)))
    path = os.path.join(cfg.out_dir, "curve.csv")
    write_csv(path, CurvePoint._fields, points)
    print(path)
    return 0


def cmd_neighbors(args):
    _at_least("-k", args.k, 1)
    _at_least("--queries", args.queries, 1)
    cfg = _load_cfg(args)
    if args.k > cfg.test_size:
        raise ConfigError(f"-k {args.k} exceeds the held-out pool (test_size={cfg.test_size})")
    os.makedirs(cfg.out_dir, exist_ok=True)
    exp = Experiment(cfg, materialize(cfg))
    _, heldout, _ = exp.evaluate(cfg.splits[-1])
    print(write_neighbors(os.path.join(cfg.out_dir, "neighbors.txt"), exp, heldout,
                          queries=args.queries, k=args.k))
    return 0


def cmd_eval_retrieval(args):
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    _, x = load_word2vec(args.src_emb)
    _, y = load_word2vec(args.tgt_emb)
    if x.shape != y.shape or len(x) < 2:
        raise ConfigError(f"{args.src_emb} and {args.tgt_emb} cannot be paired: shapes "
                          f"{x.shape} and {y.shape}; retrieval needs one shape of two rows or more")
    if args.map:
        m = load_map(args.map)
        if m.dim != x.shape[1]:
            raise ConfigError(f"{args.map}: map dim {m.dim}, {args.src_emb} has dim {x.shape[1]}")
        x = apply_map(x, m, reverse=args.reverse_map)
    report = retrieval_accuracy(x, y, direction=args.direction)
    if args.out_dir:
        write_csv(os.path.join(args.out_dir, "retrieval.csv"), RetrievalReport._fields, [report])
    print(f"{report.direction} accuracy={report.accuracy:.4f} n={report.n_queries}")
    return 0


def cmd_eval_cldc(args):
    # each class needs a document in the training half
    _at_least("--docs", args.docs, 2 * N_CLDC_CLASSES)
    cfg = _load_cfg(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    data = materialize(cfg, dictionary=True)  # the documents draw on its word dictionary
    docs = gen_cldc_docs(data.source, args.docs, seed=cfg.seed + 40)
    exp, embedders = _final_embedders(cfg, data)
    split = args.docs // 2
    embedders = {lang: batched_embedder(embed, docs[lang]) for lang, embed in embedders.items()}
    # train on the pool language, test on the query language
    reports = [cldc_train_eval(docs[train_lang][:split], docs[test_lang][split:], embedders,
                               train_lang=train_lang, test_lang=test_lang, seed=cfg.seed + 41)
               for test_lang, train_lang in exp.directions]
    path = os.path.join(cfg.out_dir, "cldc.csv")
    write_csv(path, CLDCReport._fields, reports)
    for r in reports:
        print(f"{r.train_lang}->{r.test_lang} accuracy={r.accuracy:.4f}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="xlalign",
        description="Cross-lingual sentence embedding alignment toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def cfg_command(name, desc, func):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a configuration key")
        p.add_argument("--out-dir", help="output directory (overrides config)")
        p.set_defaults(func=func)
        return p

    cfg_command("gen-corpus", "generate the config's synthetic bilingual corpus", cmd_gen_corpus)
    for name, (desc, _, _) in RUN_COMMANDS.items():
        cfg_command(name, desc, cmd_run)
    cfg_command("curve", "retrieval accuracy vs parallel-corpus size", cmd_curve)
    p = cfg_command("neighbors", "nearest-neighbor inspection report", cmd_neighbors)
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--queries", type=int, default=5)

    p = sub.add_parser("eval-retrieval", help="retrieval accuracy from embedding dumps")
    p.add_argument("--src-emb", required=True)
    p.add_argument("--tgt-emb", required=True)
    p.add_argument("--map", help="alignment-map checkpoint applied to the source side")
    p.add_argument("--reverse-map", action="store_true")
    p.add_argument("--direction", default="src>tgt")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_eval_retrieval)

    p = cfg_command("eval-cldc", "cross-lingual document classification", cmd_eval_cldc)
    p.add_argument("--docs", type=int, default=400)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonFiniteError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a last resort: no known input reaches it
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
