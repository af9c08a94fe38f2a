"""Synthetic heterogeneous graphs with a planted, meta-path-correlated label.

The generator assigns a class to every object of the planted path's anchor
type (round-robin by index), propagates classes along the planted path, and
wires the final hop so each labeled object's class is the strict majority
class reachable through the path. Relations off the planted path are wired
class-independently. Labels are then flipped for exactly
``floor(noise * n)`` objects, so a majority vote along the planted path
recovers at least a ``1 - noise`` fraction of the labels by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np

from . import rng as rng_mod
from .autodiff import xavier_uniform
from .graph import HinGraph, Schema, SparseAdj
from .io import checked_finite, checked_integer

DBLP_SCHEMA = Schema(
    object_types=("P", "A", "C", "T"),
    relations=(("C", "P"), ("P", "C"), ("A", "P"), ("P", "A"), ("T", "P"), ("P", "T")),
)


@dataclass(frozen=True)
class DegreeSpec:
    """Out-degree distribution for one wiring direction."""

    dist: str = "powerlaw"  # "powerlaw" or "const"
    exponent: float = 2.5
    min_degree: int = 1
    max_degree: int = 40
    value: int = 1  # degree when dist == "const"

    def __post_init__(self):
        if self.dist not in ("powerlaw", "const"):
            raise ValueError(f"unknown degree distribution {self.dist!r}")
        checked_finite("exponent", self.exponent)
        for name in ("min_degree", "max_degree", "value"):
            object.__setattr__(self, name, checked_integer(name, getattr(self, name), 1))
        if self.dist == "powerlaw" and self.min_degree > self.max_degree:
            raise ValueError(
                f"min_degree must be <= max_degree, got {self.min_degree} > {self.max_degree}"
            )

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.dist == "const":
            return np.full(n, self.value, dtype=np.int64)
        values = np.arange(self.min_degree, self.max_degree + 1)
        weights = values.astype(np.float64) ** -self.exponent
        return rng.choice(values, size=n, p=weights / weights.sum())


@dataclass(frozen=True)
class EdgeSpec:
    """One wired pair: every ``picker`` object picks ``picked`` partners."""

    picker: str
    picked: str
    degree: DegreeSpec = field(default_factory=DegreeSpec)


DBLP_EDGES = (
    EdgeSpec("P", "C", DegreeSpec(dist="const", value=1)),
    EdgeSpec("A", "P", DegreeSpec(dist="powerlaw", exponent=2.5, min_degree=1, max_degree=40)),
    EdgeSpec("P", "T", DegreeSpec(dist="powerlaw", exponent=2.5, min_degree=1, max_degree=40)),
)


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one synthetic graph."""

    counts: Mapping[str, int]
    schema: Schema = DBLP_SCHEMA
    edges: tuple[EdgeSpec, ...] = DBLP_EDGES
    planted_path: tuple[str, ...] = ("C", "P", "A")
    n_classes: int = 4
    noise: float = 0.0
    feature_dim: int = 128
    informative_features: bool = False
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "counts", dict(self.counts))
        object.__setattr__(self, "planted_path", tuple(self.planted_path))
        object.__setattr__(self, "edges", tuple(self.edges))
        checked_finite("noise", self.noise, lambda v: 0 <= v < 1, "in [0, 1)")
        for name, lo in (("n_classes", 2), ("feature_dim", 1), ("seed", None)):
            object.__setattr__(self, name, checked_integer(name, getattr(self, name), lo))
        if not isinstance(self.informative_features, bool):
            raise ValueError(
                f"informative_features must be true or false, got {self.informative_features!r}"
            )
        types = self.schema.object_types
        for t in types:
            if t not in self.counts:
                raise ValueError(f"type {t}: needs a positive object count")
            self.counts[t] = checked_integer(f"counts[{t!r}]", self.counts[t], 1)
        for t in self.counts:
            if t not in types:
                raise ValueError(f"counts[{t!r}]: {t!r} is not a declared type")
        if len(set(self.planted_path)) != len(self.planted_path):
            raise ValueError("planted path types must be distinct")
        for a, b in zip(self.planted_path, self.planted_path[1:]):
            if (a, b) not in self.schema.relations:
                raise ValueError(f"planted path uses undeclared relation ({a}, {b})")
        # each declared relation is wired by exactly one edge spec, in
        # either direction: generate builds the declared directions from it
        declared = {frozenset(rel) for rel in self.schema.relations}
        wired: dict[frozenset, int] = {}
        for i, e in enumerate(self.edges):
            for role, t in (("picker", e.picker), ("picked", e.picked)):
                if t not in types:
                    raise ValueError(f"edges[{i}]: {role} {t!r} is not a declared type")
            pair = frozenset((e.picker, e.picked))
            if pair not in declared:
                raise ValueError(
                    f"edges[{i}]: no relation between {e.picker} and {e.picked} is declared"
                )
            if pair in wired:
                raise ValueError(f"edges[{i}]: {e.picker} and {e.picked} are "
                                 f"already wired by edges[{wired[pair]}]")
            wired[pair] = i
        for rel in self.schema.relations:
            if frozenset(rel) not in wired:
                raise ValueError(f"relation {rel} has no edge spec")


def dblp_spec(n_authors: int, seed: int = 0, **overrides) -> GenSpec:
    """DBLP-like spec with counts proportioned to the author count."""
    counts = {
        "A": n_authors,
        "P": max(4, round(3.875 * n_authors)),
        "C": 20,
        "T": max(4, round(2.83 * n_authors)),
    }
    return GenSpec(counts=counts, seed=seed, **overrides)


def _window_edges(
    pool: np.ndarray, owners: np.ndarray, sizes: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Edges from each owner to one window of a permuted pool, as
    ``(owner, pick)`` arrays.

    The windows are consecutive slices of one cyclic permutation: each
    starts where the last ended and wraps around the end, so usage stays
    balanced. Sizes are clamped to the pool size, so a window's entries
    are distinct.
    """
    perm = rng.permutation(pool)
    sizes = np.minimum(sizes, len(perm))
    return np.repeat(owners, sizes), perm[np.arange(sizes.sum()) % len(perm)]


def _distinct(edges: list[tuple[np.ndarray, np.ndarray]], n_cols: int):
    """The distinct ``(row, col)`` pairs of ``(rows, cols)`` edge lists,
    sorted by row and then column."""
    rows, cols = (np.concatenate(part) for part in zip(*edges))
    keys = np.unique(rows * n_cols + cols)
    return keys // n_cols, keys % n_cols


def generate(spec: GenSpec) -> HinGraph:
    """Build the graph: planted classes, wiring, noise flips, features.

    Planted classes are ``index mod n_classes`` for the anchor and target
    types (a documented convention, so oracles can recover anchor classes
    without extra metadata); intermediate path types inherit the class of
    their primary parent.

    Each wiring step permutes a pool of picked objects once and deals its
    pickers consecutive slices of that cyclic permutation (see
    ``_window_edges``). Only the relations the schema declares are built.
    """
    schema = spec.schema
    k = spec.n_classes
    path = spec.planted_path
    anchor, target = path[0], path[-1]
    counts = {t: int(spec.counts[t]) for t in schema.object_types}
    if counts[anchor] < k:
        raise ValueError("counts too small to realize degrees: "
                         f"anchor type {anchor} needs >= {k} objects")
    planted_class: dict[str, np.ndarray] = {
        anchor: np.arange(counts[anchor]) % k,
        target: np.arange(counts[target]) % k,
    }
    planted_hops = {(path[i + 1], path[i]): i for i in range(len(path) - 1)}
    adjacency: dict[tuple[str, str], SparseAdj] = {}

    # wire planted hops from the anchor outward so parent classes exist
    ordered = sorted(
        spec.edges,
        key=lambda e: planted_hops.get((e.picker, e.picked), len(path)),
    )
    for e in ordered:
        n_picker, n_picked = counts[e.picker], counts[e.picked]
        pickers, all_picked = np.arange(n_picker), np.arange(n_picked)
        rng = rng_mod.stream(spec.seed, "edges", e.picker, e.picked)
        degrees = e.degree.sample(n_picker, rng)
        if (e.picker, e.picked) in planted_hops:
            parent_classes = planted_class[e.picked]
            pools = [np.nonzero(parent_classes == c)[0] for c in range(k)]
            if any(len(p) == 0 for p in pools):
                raise ValueError(
                    "counts too small to realize degrees: type "
                    f"{e.picked} is missing objects of some class"
                )
            if e.picker == target:
                # last hop: strict majority of same-class parents
                majority = degrees // 2 + 1
                need = int(majority.max())
                if any(len(p) < need for p in pools):
                    raise ValueError(
                        "counts too small to realize degrees: type "
                        f"{e.picked} needs >= {need} objects per class"
                    )
                sizes, picker_class = majority, planted_class[target]
                edges = []
            else:
                # intermediate hop: primary parent defines the class,
                # extra parents stay in the same class so recursive
                # majority voting remains exact
                _, primary = _window_edges(all_picked, pickers, np.ones(n_picker, np.int64), rng)
                picker_class = planted_class[e.picker] = parent_classes[primary]
                sizes = degrees - 1
                edges = [(pickers, primary)]
            for c in range(k):
                members = np.nonzero(picker_class == c)[0]
                edges.append(_window_edges(pools[c], members, sizes[members], rng))
            if e.picker == target:
                edges.append(_window_edges(all_picked, pickers, degrees - majority, rng))
            rows, src = _distinct(edges, n_picked)
        else:
            rows, src = _window_edges(all_picked, pickers, degrees, rng)
        # relation picked -> picker has the picker objects as rows
        if (e.picked, e.picker) in schema.relations:
            adjacency[(e.picked, e.picker)] = SparseAdj.from_edges(n_picker, n_picked, rows, src)
        if (e.picker, e.picked) in schema.relations:
            adjacency[(e.picker, e.picked)] = SparseAdj.from_edges(n_picked, n_picker, src, rows)

    labels = planted_class[target].copy()
    n_flip = int(np.floor(spec.noise * counts[target]))
    if n_flip:
        rng = rng_mod.stream(spec.seed, "noise")
        flipped = rng.choice(counts[target], size=n_flip, replace=False)
        shift = rng.integers(1, k, size=n_flip)
        labels[flipped] = (labels[flipped] + shift) % k

    features = {
        t: random_features(counts[t], spec.feature_dim, spec.seed, t)
        for t in schema.object_types
    }
    if spec.informative_features:
        onehot = np.zeros((counts[target], spec.feature_dim))
        onehot[np.arange(counts[target]), planted_class[target] % spec.feature_dim] = 0.5
        features[target] = features[target] + onehot

    return HinGraph(
        schema=schema,
        adjacency=adjacency,
        features=features,
        labels={target: labels},
        class_counts={target: k},
    )


def planted_majority_vote(g: HinGraph, path: Sequence[str], n_classes: int) -> np.ndarray:
    """Class per target object by weighted majority vote along the path.

    Reads only the planted meta-path's adjacency chain plus the generator's
    anchor-class convention (index mod n_classes). Ties break toward the
    lowest class id.
    """
    anchor = path[0]
    votes = np.zeros((g.n_objects(anchor), n_classes))
    votes[np.arange(g.n_objects(anchor)), np.arange(g.n_objects(anchor)) % n_classes] = 1.0
    for a, b in zip(path, path[1:]):
        votes = g.adjacency[(a, b)].matmul(votes)
    return votes.argmax(axis=1)


def make_splits(
    g: HinGraph, train_fraction: float, seed: int = 0
) -> dict[str, dict[str, np.ndarray]]:
    """Random train/val/test indices per labeled type.

    ``train_fraction`` is a percentage in (0, 100); the remainder is halved
    into validation and test (sizes differ by at most one).
    """
    if not 0 < train_fraction < 100:
        raise ValueError("train_fraction is a percentage in (0, 100)")
    splits = {}
    for t, lab in g.labels.items():
        idx = np.nonzero(lab >= 0)[0]
        if len(idx) < 3:
            raise ValueError(f"type {t}: need at least 3 labeled objects to split")
        rng = rng_mod.stream(seed, "split", t)
        idx = rng.permutation(idx)
        n_train = int(round(train_fraction / 100.0 * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 2)
        rest = len(idx) - n_train
        n_val = rest // 2
        splits[t] = {
            "train": np.sort(idx[:n_train]),
            "val": np.sort(idx[n_train : n_train + n_val]),
            "test": np.sort(idx[n_train + n_val :]),
        }
    return splits


def with_splits(g: HinGraph, train_fraction: float, seed: int = 0) -> HinGraph:
    return replace(g, splits=make_splits(g, train_fraction, seed))


def random_features(n: int, dim: int, seed: int, label: str = "") -> np.ndarray:
    """Xavier-uniform feature matrix; deterministic per (seed, label)."""
    if n < 1 or dim < 1:
        raise ValueError("need n, dim >= 1")
    return xavier_uniform(n, dim, rng_mod.stream(seed, "features", label))


def spec_from_json(obj: Mapping) -> GenSpec:
    """GenSpec from a JSON object; unknown keys are rejected."""
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - {f.name for f in fields(GenSpec)}
    if unknown:
        raise ValueError(f"unknown generator config keys: {sorted(unknown)}")
    kwargs = dict(obj)
    if "schema" in kwargs:
        kwargs["schema"] = Schema.from_json(kwargs["schema"])
    if "edges" in kwargs:
        kwargs["edges"] = tuple(_edge_from_json(i, e) for i, e in enumerate(kwargs["edges"]))
    return GenSpec(**kwargs)


def _edge_from_json(i: int, e: Mapping) -> EdgeSpec:
    """``edges[i]`` of a generator spec; a bad degree field is a
    ValueError naming the edge and the field."""
    degree = {k: v for k, v in e.items() if k not in ("picker", "picked")}
    try:
        return EdgeSpec(picker=e["picker"], picked=e["picked"], degree=DegreeSpec(**degree))
    except ValueError as err:
        raise ValueError(f"edges[{i}]: {err}") from err
