"""Heterogeneous graph convolution with type-level attention.

Library surface: a typed HIN data model (`graph`, `io`), a minimal
reverse-mode tape over dense/sparse kernels (`autodiff`), the layered
model (`model`), semi-supervised training (`train`), meta-path importance
extraction (`interpret`), synthetic data with planted labels (`datagen`),
a scaling benchmark (`bench`), and the `hetconv` CLI (`cli`).
"""

from .graph import HinGraph, Schema, SparseAdj, row_normalize, validate_graph
from .model import ModelParams, forward, init_params, spectral_equivalence_check
from .train import TrainConfig, evaluate, fit
from .interpret import AttentionSummary, score_meta_paths, summarize_attention

__all__ = [
    "AttentionSummary",
    "HinGraph",
    "ModelParams",
    "Schema",
    "SparseAdj",
    "TrainConfig",
    "evaluate",
    "fit",
    "forward",
    "init_params",
    "row_normalize",
    "score_meta_paths",
    "spectral_equivalence_check",
    "summarize_attention",
    "validate_graph",
]
