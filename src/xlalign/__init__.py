"""Cross-lingual alignment of neural sentence embeddings.

Three alignment routes over a shared BiLSTM/max-pool encoder: joint training
against a shared decoder or classifier, frozen-pivot representation transfer,
and post-hoc orthogonal sentence mapping — evaluated by translation retrieval
and cross-lingual document classification.
"""

from . import autodiff, checkpoint, cipher, config, encoders, evaluation, mapping
from . import objectives, optim, pipeline, rand, text

# `cli` is imported on demand, so `python -m xlalign.cli` runs its only copy
__all__ = [
    "autodiff", "checkpoint", "cipher", "cli", "config", "encoders", "evaluation",
    "mapping", "objectives", "optim", "pipeline", "rand", "text",
]

__version__ = "0.1.0"
