#!/usr/bin/env python3
"""The config-driven pipeline behind the `xlalign` command line.

Runs a small transfer experiment end to end (generate corpus, pretrain pivot,
transfer-train at each split size, evaluate on held-out pairs) and prints the
resulting accuracy-vs-corpus-size curve. Equivalent to:

    xlalign run --config demo.cfg

The run writes into a temporary directory that is removed at the end.
"""

import os
import tempfile

from xlalign.config import parse_config
from xlalign.pipeline import run_experiment

with tempfile.TemporaryDirectory(prefix="xlalign_demo_") as tmp:
    cfg = parse_config(f"""
framework=transfer
cipher_vocab=40
cipher_sentences=600
dim=16
hidden=16
lr=1e-3
batch=16
steps=500
pivot_steps=300
splits=100,200,400
test_size=100
seed=7
out_dir={os.path.join(tmp, "out")}
""")

    produced = run_experiment(cfg)
    print(f"{len(produced)} files in {cfg.out_dir}:")
    for name in produced:
        print("  ", name)

    print("\naccuracy vs parallel-corpus size:")
    with open(os.path.join(cfg.out_dir, "curve.csv")) as fh:
        print(fh.read())

    with open(os.path.join(cfg.out_dir, "manifest.txt")) as fh:
        print("manifest head:")
        for line in fh.read().splitlines()[:6]:
            print("  ", line)
