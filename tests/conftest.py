"""Shared fixtures: schemas, small graphs, and the printed-table fixture."""

from __future__ import annotations

import hashlib
import json
import os

# one BLAS thread, as the benchmark harness measures: a product's summation
# order, and with it the seeded fits' golden digests, depends on the count;
# OpenBLAS reads these when numpy loads it, so they are set first
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from hetconv.datagen import dblp_spec, generate
from hetconv.graph import HinGraph, Schema, SparseAdj
from hetconv.interpret import AttentionSummary
from hetconv.train import TrainConfig, build_params


@pytest.fixture
def dblp_schema() -> Schema:
    return Schema(
        object_types=("P", "A", "C", "T"),
        relations=(
            ("C", "P"), ("P", "C"),
            ("A", "P"), ("P", "A"),
            ("T", "P"), ("P", "T"),
        ),
    )


def bipartite_graph(
    n_a: int,
    n_b: int,
    d_a: int,
    d_b: int,
    seed: int = 0,
    edge_prob: float = 0.5,
    labeled: bool = True,
    n_classes: int = 2,
) -> HinGraph:
    """Random two-type graph with both relation directions transposed."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n_b, n_a)) < edge_prob
    weights = np.where(mask, rng.uniform(0.5, 2.0, mask.shape), 0.0)
    rows, cols = np.nonzero(weights)
    adj_ab = SparseAdj.from_edges(n_b, n_a, rows, cols, weights[rows, cols])
    adj_ba = SparseAdj.from_edges(n_a, n_b, cols, rows, weights[rows, cols])
    labels = {}
    class_counts = {}
    if labeled:
        labels["B"] = rng.integers(0, n_classes, n_b)
        class_counts["B"] = n_classes
    return HinGraph(
        schema=Schema(("A", "B"), (("A", "B"), ("B", "A"))),
        adjacency={("A", "B"): adj_ab, ("B", "A"): adj_ba},
        features={"A": rng.normal(size=(n_a, d_a)), "B": rng.normal(size=(n_b, d_b))},
        labels=labels,
        class_counts=class_counts,
    )


@pytest.fixture
def toy_graph() -> HinGraph:
    """Six objects over two types, every object connected, labels on B."""
    g = bipartite_graph(3, 3, 2, 3, seed=7, edge_prob=0.7)
    # guarantee no isolated object in either direction
    adj = g.adjacency[("A", "B")].to_dense()
    adj[0, 0] = max(adj[0, 0], 1.0)
    adj[1, 1] = max(adj[1, 1], 1.0)
    adj[2, 2] = max(adj[2, 2], 1.0)
    rows, cols = np.nonzero(adj)
    ab = SparseAdj.from_edges(3, 3, rows, cols, adj[rows, cols])
    ba = SparseAdj.from_edges(3, 3, cols, rows, adj[rows, cols])
    return HinGraph(
        schema=g.schema,
        adjacency={("A", "B"): ab, ("B", "A"): ba},
        features=g.features,
        labels={"B": np.array([0, 1, 1])},
        class_counts={"B": 2},
        splits={"B": {"train": np.array([0]), "val": np.array([1]), "test": np.array([2])}},
    )


def random_hin(seed: int, max_objects: int = 12, n_classes: int = 2) -> HinGraph:
    """Small random DBLP-shaped graph for property tests.

    Counts are drawn so the whole graph stays below ``max_objects``; every
    declared relation gets at least one edge and both directions share the
    transposed pattern. Objects may be isolated under individual relations.
    """
    rng = np.random.default_rng(seed)
    schema = Schema(
        object_types=("P", "A", "C"),
        relations=(("C", "P"), ("P", "C"), ("A", "P"), ("P", "A")),
    )
    budget = max_objects
    counts = {}
    for t in ("P", "A", "C"):
        remaining = len([x for x in ("P", "A", "C") if x not in counts]) - 1
        hi = max(2, budget - 2 * remaining)
        counts[t] = int(rng.integers(2, hi + 1))
        budget -= counts[t]
    adjacency = {}
    for src, dst in [("C", "P"), ("A", "P")]:
        n_r, n_c = counts[dst], counts[src]
        mask = rng.random((n_r, n_c)) < 0.6
        mask[rng.integers(0, n_r), rng.integers(0, n_c)] = True
        w = np.where(mask, rng.uniform(0.5, 3.0, mask.shape), 0.0)
        rows, cols = np.nonzero(w)
        adjacency[(src, dst)] = SparseAdj.from_edges(n_r, n_c, rows, cols, w[rows, cols])
        adjacency[(dst, src)] = SparseAdj.from_edges(n_c, n_r, cols, rows, w[rows, cols])
    features = {
        t: rng.normal(size=(counts[t], int(rng.integers(2, 5))))
        for t in ("P", "A", "C")
    }
    labels = {"A": rng.integers(0, n_classes, counts["A"])}
    return HinGraph(
        schema=schema,
        adjacency=adjacency,
        features=features,
        labels=labels,
        class_counts={"A": n_classes},
    )


def dblp_reference_summary(schema: Schema) -> AttentionSummary:
    """Mean attention coefficients of a reference 5-layer DBLP run.

    Block vectors are [Self] + neighbors in schema order, i.e. P's columns
    are [Self, C, A, T].
    """
    tables = (
        {
            "P": np.array([0.06, 0.82, 0.06, 0.06]),
            "A": np.array([0.50, 0.50]),
            "C": np.array([0.63, 0.37]),
            "T": np.array([0.50, 0.50]),
        },
        {
            "P": np.array([0.64, 0.27, 0.04, 0.05]),
            "A": np.array([0.20, 0.80]),
            "C": np.array([0.37, 0.63]),
            "T": np.array([0.06, 0.94]),
        },
        {
            "P": np.array([0.25, 0.25, 0.25, 0.25]),
            "A": np.array([0.49, 0.51]),
            "C": np.array([0.42, 0.58]),
            "T": np.array([0.19, 0.81]),
        },
        {
            "A": np.array([0.43, 0.57]),
        },
    )
    return AttentionSummary(schema=schema, tables=tables)


def six_layer_case(seed: int):
    """``dblp_spec(60)`` at ``seed`` and a seeded, untrained six-layer
    model, the widths of the ``explain_per_object`` benchmark's model."""
    g = generate(dblp_spec(60, seed=seed))
    return g, build_params(g, TrainConfig(layer_widths=(32, 32, 16, 16, 8), seed=seed))


def array_digest(*parts) -> str:
    """sha256 over ``parts``: each array's dtype, shape and bytes, or a
    JSON-encodable value's JSON text."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part).encode())
    return h.hexdigest()
