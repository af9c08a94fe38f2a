"""Typed heterogeneous graph data model.

A graph has a schema (object types plus directed relations between them),
one sparse adjacency matrix per relation, a dense feature matrix per type,
and optional integer labels. The containers are frozen dataclasses whose
fields are set at construction. ``HinGraph`` and ``SparseAdj`` also fill
caches on first use: a graph its features in another dtype
(``_features_by_dtype``), its row-normalized adjacency
(``_normalized_adjacency``) and its row plans (``_row_plans``), whose
layer-2 blocks keep their aggregations of the constant features
(``BlockRows._aggregated``); an adjacency its float32 and transposed CSR
handles (``_products``). The caches take no lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse as sp

Relation = tuple[str, str]  # (source type, target type)

_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)
_INDEX_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))

# The largest |feature| that trains in float32. Adam's second moment holds
# the squared gradient, and a weight gradient grows with the feature scale,
# so float32 (max 3.4e38) overflows long before the cast does: with
# constant features, fits on dblp_spec(235) and dblp_spec(940) overflow
# that moment at 1e18 and train at 1e17. The bound keeps a factor of 100.
FLOAT32_FEATURE_LIMIT = 1e15


@dataclass(frozen=True)
class Schema:
    """Object types and directed relations of a heterogeneous graph.

    Relation and type order is the declaration order; it is the canonical
    iteration order everywhere (attention columns, file naming, reports).
    """

    object_types: tuple[str, ...]
    relations: tuple[Relation, ...]

    def __post_init__(self):
        object.__setattr__(self, "object_types", tuple(self.object_types))
        object.__setattr__(self, "relations", tuple(tuple(r) for r in self.relations))
        if len(set(self.object_types)) != len(self.object_types):
            raise ValueError("duplicate object type names")
        if len(set(self.relations)) != len(self.relations):
            raise ValueError("duplicate relations")
        known = set(self.object_types)
        for src, dst in self.relations:
            if src not in known or dst not in known:
                raise ValueError(f"relation ({src}, {dst}) names an undeclared type")
        if len(self.object_types) + len(self.relations) <= 2:
            raise ValueError("a heterogeneous graph needs |types| + |relations| > 2")

    def to_json(self) -> dict:
        """The JSON form ``{"types": [...], "relations": [[src, dst], ...]}``."""
        return {
            "types": list(self.object_types),
            "relations": [list(r) for r in self.relations],
        }

    @classmethod
    def from_json(cls, obj) -> "Schema":
        """The schema of a ``to_json`` object."""
        return cls(obj["types"], obj["relations"])

    def neighbor_types(self, omega: str) -> list[str]:
        """Source types with a relation into ``omega``, in declared order."""
        if omega not in self.object_types:
            raise KeyError(f"unknown object type: {omega!r}")
        return [src for src, dst in self.relations if dst == omega]


@dataclass(frozen=True)
class SparseAdj:
    """CSR adjacency between target-type rows and source-type columns.

    Column indices are strictly increasing within each row; stored weights
    are strictly positive. ``indptr`` and ``indices`` are the scipy handle's
    own index arrays, in its index dtype (int32 while the sizes fit).
    """

    n_rows: int
    n_cols: int
    indptr: np.ndarray  # scipy's index dtype, len n_rows + 1
    indices: np.ndarray  # scipy's index dtype, len nnz
    weights: np.ndarray  # float64, len nnz

    def __post_init__(self):
        # int32 and int64 index arrays go to scipy as they are, to be adopted
        for name in ("indptr", "indices"):
            x = np.asarray(getattr(self, name))
            object.__setattr__(self, name, x if x.dtype in _INDEX_DTYPES else x.astype(np.int64))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        for problem in self.check():
            raise ValueError(problem)
        # scipy handle for products, built once; the handles of other dtypes
        # and of the transpose are built on first use and kept here
        csr = sp.csr_matrix(
            (self.weights, self.indices, self.indptr), shape=(self.n_rows, self.n_cols)
        )
        object.__setattr__(self, "indptr", csr.indptr)
        object.__setattr__(self, "indices", csr.indices)
        object.__setattr__(self, "_csr", csr)
        object.__setattr__(self, "_products", {(_F64, False): csr})

    def check(self) -> list[str]:
        """Structural problems as human-readable strings (empty if valid)."""
        problems = []
        if len(self.indptr) != self.n_rows + 1 or self.indptr[0] != 0:
            problems.append("malformed row offsets")
            return problems
        if np.any(np.diff(self.indptr) < 0) or self.indptr[-1] != len(self.indices):
            problems.append("row offsets not monotone or inconsistent with indices")
            return problems
        if len(self.indices) != len(self.weights):
            problems.append("indices/weights length mismatch")
            return problems
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.n_cols
        ):
            problems.append("column index out of range")
        if len(self.indices) > 1:
            rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
            same_row = rows[1:] == rows[:-1]
            bad = same_row & (np.diff(self.indices) <= 0)
            if bad.any():
                problems.append(
                    f"row {rows[1:][bad][0]}: column indices not strictly increasing"
                )
        if not np.all(np.isfinite(self.weights)):
            problems.append("non-finite edge weight")
        elif len(self.weights) and self.weights.min() <= 0:
            problems.append("non-positive edge weight stored")
        return problems

    @property
    def nnz(self) -> int:
        return len(self.weights)

    def row_sums(self) -> np.ndarray:
        csum = np.concatenate(([0.0], np.cumsum(self.weights)))
        return csum[self.indptr[1:]] - csum[self.indptr[:-1]]

    def _product_csr(self, dtype: np.dtype, transposed: bool) -> sp.csr_matrix:
        """The CSR handle for products with a ``dtype`` operand: float32
        values for a float32 operand, float64 otherwise. A float32 handle
        shares its float64 twin's index arrays; ``weights`` stays float64."""
        dtype = _F32 if dtype == _F32 else _F64
        csr = self._products.get((dtype, transposed))
        if csr is None:
            if dtype == _F32:
                twin = self._product_csr(_F64, transposed)
                csr = sp.csr_matrix(
                    (twin.data.astype(_F32), twin.indices, twin.indptr), shape=twin.shape
                )
            else:
                csr = self._csr.T.tocsr()
            self._products[(dtype, transposed)] = csr
        return csr

    def matmul(self, dense: np.ndarray) -> np.ndarray:
        """Product with a dense operand, in the operand's float dtype."""
        return self._product_csr(dense.dtype, False) @ dense

    def t_matmul(self, dense: np.ndarray) -> np.ndarray:
        """Transpose product, used by the sparse-product backward pass."""
        return self._product_csr(dense.dtype, True) @ dense

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    @staticmethod
    def from_edges(
        n_rows: int,
        n_cols: int,
        rows: np.ndarray,
        cols: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> "SparseAdj":
        """Build from (row, col, weight) triples; parallel edges sum."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if weights is None:
            weights = np.ones(len(rows))
        weights = np.asarray(weights, dtype=np.float64)
        if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("edge row index out of range")
        if len(cols) and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("edge column index out of range")
        coo = sp.coo_matrix((weights, (rows, cols)), shape=(n_rows, n_cols))
        csr = coo.tocsr()  # sums duplicates
        csr.sum_duplicates()
        csr.sort_indices()
        return SparseAdj(n_rows, n_cols, csr.indptr, csr.indices, csr.data)


def row_normalize(a: SparseAdj) -> SparseAdj:
    """Divide each row by its sum so nonzero rows sum to 1.

    Rows without entries stay empty: an object with no neighbors under this
    relation receives no message, which sidesteps the division by zero.
    The sparsity pattern is unchanged, and shared: so are the index arrays.
    """
    sums = a.row_sums()
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    new_weights = a.weights * np.repeat(scale, np.diff(a.indptr))
    return SparseAdj(a.n_rows, a.n_cols, a.indptr, a.indices, new_weights)


@dataclass(frozen=True)
class HinGraph:
    """A heterogeneous graph instance.

    ``adjacency[(src, dst)]`` has shape |V_dst| x |V_src|: rows index the
    relation's target objects. ``labels[t]`` holds a class id per object,
    -1 where unlabeled. ``splits[t]`` maps "train"/"val"/"test" to
    disjoint index arrays over the labeled objects, each without repeats.
    """

    schema: Schema
    adjacency: Mapping[Relation, SparseAdj]
    features: Mapping[str, np.ndarray]
    labels: Mapping[str, np.ndarray] = field(default_factory=dict)
    class_counts: Mapping[str, int] = field(default_factory=dict)
    splits: Mapping[str, Mapping[str, np.ndarray]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "adjacency", dict(self.adjacency))
        feats = {
            t: np.ascontiguousarray(f, dtype=np.float64)
            for t, f in self.features.items()
        }
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "_features_by_dtype", {_F64: feats})
        object.__setattr__(self, "_normalized_adjacency", None)
        object.__setattr__(self, "_row_plans", {})
        labels = {
            t: np.asarray(v, dtype=np.int64) for t, v in (self.labels or {}).items()
        }
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_counts", dict(self.class_counts or {}))
        object.__setattr__(
            self,
            "splits",
            {
                t: {k: np.asarray(v, dtype=np.int64) for k, v in parts.items()}
                for t, parts in (self.splits or {}).items()
            },
        )

    def trains_in_float32(self) -> bool:
        """Whether every |feature| is at most ``FLOAT32_FEATURE_LIMIT``."""
        return all(
            not f.size or max(f.max(), -f.min()) <= FLOAT32_FEATURE_LIMIT
            for f in self.features.values()
        )

    def features_as(self, dtype) -> Mapping[str, np.ndarray]:
        """The feature matrices in ``dtype``: ``features`` itself for
        float64, otherwise a copy cast on first use and kept with the graph.
        A float32 request on a graph that does not ``trains_in_float32``
        gets the float64 features, and a product with them is float64."""
        dtype = np.dtype(dtype)
        feats = self._features_by_dtype.get(dtype)
        if feats is None:
            if dtype == _F32 and not self.trains_in_float32():
                feats = self.features
            else:
                feats = {t: f.astype(dtype) for t, f in self.features.items()}
            self._features_by_dtype[dtype] = feats
        return feats

    def n_objects(self, t: str) -> int:
        return self.features[t].shape[0]

    def total_objects(self) -> int:
        return sum(f.shape[0] for f in self.features.values())

    def total_links(self) -> int:
        return sum(a.nnz for a in self.adjacency.values())


def split_rows(g: HinGraph, part: str) -> dict[str, np.ndarray]:
    """The non-empty ``part`` ("train", "val" or "test") of each labeled
    type's split, in schema order: the rows a pass over that part reads."""
    return {
        t: g.splits[t][part]
        for t in g.schema.object_types
        if t in g.labels and len(g.splits.get(t, {}).get(part, ()))
    }


def normalized_adjacency(g: HinGraph) -> Mapping[Relation, SparseAdj]:
    """Every relation's row-normalized adjacency, built on the graph's
    first request and kept with it, like ``HinGraph.features_as``."""
    if g._normalized_adjacency is None:
        norm = {rel: row_normalize(a) for rel, a in g.adjacency.items()}
        object.__setattr__(g, "_normalized_adjacency", norm)
    return g._normalized_adjacency


@dataclass(frozen=True)
class BlockRows:
    """The rows one block computes under a ``RowPlan``, and what it reads.

    ``rows`` are the block type's objects it computes, ascending; None
    for every object. ``select`` picks them out of the rows its own type
    holds one layer down, for the self term; None where those are the
    same rows. ``adjacency[gamma]`` is the row-normalized relation from
    neighbor type ``gamma`` restricted to ``rows``, its columns renumbered
    to the rows ``gamma`` holds one layer down: the graph's own
    ``SparseAdj`` where that keeps every row and every column. A layer-2
    block also keeps its aggregations of the constant features
    (``aggregated``).
    """

    rows: np.ndarray | None
    select: SparseAdj | None
    adjacency: dict[str, SparseAdj]
    _aggregated: dict[tuple[str, np.dtype], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def aggregated(self, gamma: str, features: Mapping[str, np.ndarray]) -> np.ndarray:
        """``adjacency[gamma] @ features[gamma]``, where ``features`` are
        the graph's constant features in some dtype (``features_as``), so
        for a layer-2 block only: computed on the first request per
        relation and dtype and kept with the block. A restricted CSR keeps
        each row's entries in order, so each row is bit-identical to that
        row of the full product."""
        key = (gamma, features[gamma].dtype)
        product = self._aggregated.get(key)
        if product is None:
            product = self._aggregated[key] = self.adjacency[gamma].matmul(features[gamma])
        return product


@dataclass(frozen=True)
class RowPlan:
    """The rows each layer computes so that the last layer yields the
    requested ones.

    ``blocks[i]`` maps each block of the transition from layer ``i + 1``
    to ``i + 2``, in schema order, to its ``BlockRows``. ``lift[t]``, the
    |V_t| x |rows| 0/1 matrix of output type ``t``, scatters the last
    layer's rows into a full-height matrix that is zero elsewhere; None
    where those rows are every row.
    """

    blocks: list[dict[str, BlockRows]]
    lift: dict[str, SparseAdj | None]


def row_plan(
    g: HinGraph, outputs: Iterable[str] | Mapping[str, np.ndarray], n_transitions: int
) -> RowPlan:
    """The ``RowPlan`` of ``n_transitions`` layer transitions whose last
    yields ``outputs``, built on the graph's first request for those
    outputs and kept with it, like ``normalized_adjacency``.

    ``outputs`` is either type names, whose blocks compute every row, or a
    mapping from type to object indices, taken as a set, whose rows alone
    the last layer computes. One walk down from the outputs builds the
    plan. A transition's blocks are the types whose rows the transition
    above reads: its blocks' own rows (the self term) and every column of
    the rows of their relations, so the row sets only grow going down.
    The input features keep every row. An unknown type is a KeyError, an
    index outside the type's objects a ValueError.
    """
    names = tuple(outputs)
    for t in names:
        if t not in g.schema.object_types:
            raise KeyError(f"unknown object type: {t!r}")
    ordered = [t for t in g.schema.object_types if t in names]
    if isinstance(outputs, Mapping):
        top = {t: _output_rows(g, t, outputs[t]) for t in ordered}
        key = (n_transitions, tuple((t, None if r is None else r.tobytes()) for t, r in top.items()))
    else:
        top, key = dict.fromkeys(ordered), (n_transitions, frozenset(ordered))
    plan = g._row_plans.get(key)
    if plan is None:
        plan = _build_row_plan(g, top, n_transitions, every_row=not isinstance(outputs, Mapping))
        g._row_plans[key] = plan
    return plan


def _output_rows(g: HinGraph, t: str, idx) -> np.ndarray | None:
    """The ascending distinct ``idx`` of type ``t``; None if that is every object."""
    n = g.n_objects(t)
    rows = np.unique(np.asarray(idx, dtype=np.int64))
    if len(rows) and (rows[0] < 0 or rows[-1] >= n):
        raise ValueError(f"output rows of type {t}: index outside [0, {n})")
    return None if len(rows) == n else rows


def _build_row_plan(
    g: HinGraph, top: dict[str, np.ndarray | None], n_transitions: int, every_row: bool
) -> RowPlan:
    """The plan whose last transition computes ``top``'s rows (None: every
    row), walking down from it: each transition's blocks are the keys of
    its rows, and ``_rows_below`` gives the rows of the one below."""
    schema, norm = g.schema, normalized_adjacency(g)
    # one copy of each distinct restriction: consecutive layers often
    # read a relation at the same rows and columns
    restrictions: dict[tuple, SparseAdj] = {}

    def restricted(gamma, omega, r, cols):
        key = (gamma, omega) + tuple(None if x is None else x.tobytes() for x in (r, cols))
        if key not in restrictions:
            restrictions[key] = _restricted(norm[(gamma, omega)], r, cols)
        return restrictions[key]

    blocks = []
    above = top
    for i in range(n_transitions, 0, -1):
        # layer 1, the features, keeps every row
        below = _rows_below(g, above, every_row) if i > 1 else {}
        blocks.append(
            {
                omega: BlockRows(
                    rows=r,
                    select=_selection(r, below.get(omega), g.n_objects(omega)),
                    adjacency={
                        gamma: restricted(gamma, omega, r, below.get(gamma))
                        for gamma in schema.neighbor_types(omega)
                    },
                )
                for omega, r in above.items()
            }
        )
        above = below
    lift = {
        t: None if r is None else SparseAdj.from_edges(g.n_objects(t), len(r), r, np.arange(len(r)))
        for t, r in top.items()
    }
    return RowPlan(blocks=blocks[::-1], lift=lift)


def _rows_below(
    g: HinGraph, above: Mapping[str, np.ndarray | None], every_row: bool
) -> dict[str, np.ndarray | None]:
    """The rows each type holds one layer below blocks that compute
    ``above``'s rows (None: every row), in schema order: a block's own
    rows, for its self term, and every column the rows of its relations
    store; every row of a neighbor type where ``every_row``."""
    schema, norm = g.schema, normalized_adjacency(g)
    read: dict[str, np.ndarray] = {}
    for omega, r in above.items():
        own = read.setdefault(omega, np.zeros(g.n_objects(omega), dtype=bool))
        own[slice(None) if r is None else r] = True
        for gamma in schema.neighbor_types(omega):
            cols = read.setdefault(gamma, np.zeros(g.n_objects(gamma), dtype=bool))
            csr = norm[(gamma, omega)]._csr
            cols[slice(None) if every_row else (csr if r is None else csr[r]).indices] = True
    return {
        t: None if read[t].all() else np.flatnonzero(read[t])
        for t in schema.object_types
        if t in read
    }


def _selection(rows: np.ndarray | None, below: np.ndarray | None, n: int) -> SparseAdj | None:
    """The 0/1 matrix that picks ``rows`` out of ``below``, a superset of
    them (None: all ``n`` objects); None where the two are the same."""
    if rows is None or (below is not None and len(below) == len(rows)):
        return None
    cols = rows if below is None else np.searchsorted(below, rows)
    n_below = n if below is None else len(below)
    return SparseAdj.from_edges(len(rows), n_below, np.arange(len(rows)), cols)


def _restricted(a: SparseAdj, rows: np.ndarray | None, cols: np.ndarray | None) -> SparseAdj:
    """``a``'s ``rows`` with each column renumbered to its position in
    ``cols``, which holds every column those rows store (None: every row,
    every column); ``a`` itself where both are None."""
    if rows is None and cols is None:
        return a
    csr = a._csr if rows is None else a._csr[rows]
    indices = csr.indices if cols is None else np.searchsorted(cols, csr.indices)
    n_cols = a.n_cols if cols is None else len(cols)
    return SparseAdj(csr.shape[0], n_cols, csr.indptr, indices, csr.data)


def validate_graph(g: HinGraph) -> list[str]:
    """Return all invariant violations, empty when the graph is well formed.

    Diagnostic only: never raises, each violation names the offending
    relation or type and the failed check.
    """
    v: list[str] = []
    for t in g.schema.object_types:
        if t not in g.features:
            v.append(f"type {t}: missing feature matrix")
            continue
        f = g.features[t]
        if f.ndim != 2:
            v.append(f"type {t}: features must be 2-D")
        if not np.all(np.isfinite(f)):
            v.append(f"type {t}: non-finite feature value")
    for rel in g.adjacency:
        if rel not in g.schema.relations:
            v.append(f"relation {rel}: not declared in schema")
    for rel in g.schema.relations:
        src, dst = rel
        a = g.adjacency.get(rel)
        if a is None:
            v.append(f"relation {rel}: missing adjacency")
            continue
        if src in g.features and dst in g.features:
            want = (g.n_objects(dst), g.n_objects(src))
            if (a.n_rows, a.n_cols) != want:
                v.append(
                    f"relation {rel}: shape {(a.n_rows, a.n_cols)} != expected {want}"
                )
    for src, dst in g.schema.relations:
        rev = (dst, src)
        # a real self-relation is its own reverse and may be asymmetric
        if src < dst and (src, dst) in g.adjacency and rev in g.adjacency:
            a, b = g.adjacency[(src, dst)], g.adjacency[rev]
            if not _transpose_pattern_equal(a, b):
                v.append(
                    f"relation ({src}, {dst}): sparsity pattern is not the "
                    f"transpose of relation {rev}"
                )
    for t, lab in g.labels.items():
        if t not in g.features:
            v.append(f"labels for unknown type {t}")
            continue
        if len(lab) != g.n_objects(t):
            v.append(f"type {t}: label vector length {len(lab)} != object count")
        n_classes = g.class_counts.get(t)
        if n_classes is None:
            v.append(f"type {t}: labeled but class count missing")
        elif len(lab) and (lab.min() < -1 or lab.max() >= n_classes):
            v.append(f"type {t}: label outside [-1, {n_classes})")
    for t, parts in g.splits.items():
        if t not in g.features:
            v.append(f"splits for unknown type {t}")
            continue
        v.extend(_split_problems(t, parts, g.n_objects(t), g.labels.get(t)))
    return v


def _split_problems(
    t: str, parts: Mapping[str, np.ndarray], n: int, labels: np.ndarray | None
) -> list[str]:
    """Out-of-range, repeated, unlabeled and shared objects in a type's
    split parts."""
    v = []
    for k, idx in parts.items():
        outside = idx[(idx < 0) | (idx >= n)]
        if len(outside):
            v.append(f"type {t} split {k}: index {outside[0]} outside [0, {n})")
            continue
        uniq, counts = np.unique(idx, return_counts=True)
        if (counts > 1).any():
            v.append(f"type {t} split {k}: index {uniq[counts > 1][0]} listed more than once")
        if labels is None or len(labels) == n:
            unlabeled = idx if labels is None else idx[labels[idx] < 0]
            if len(unlabeled):
                v.append(
                    f"type {t} split {k}: {len(unlabeled)} unlabeled objects "
                    f"(first: {unlabeled[0]})"
                )
    names = list(parts)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            shared = np.intersect1d(parts[a], parts[b])
            if len(shared):
                v.append(
                    f"type {t}: split parts {a} and {b} share {len(shared)} "
                    f"objects (first: {shared[0]})"
                )
    return v


def _transpose_pattern_equal(a: SparseAdj, b: SparseAdj) -> bool:
    if (a.n_rows, a.n_cols) != (b.n_cols, b.n_rows):
        return False
    bt = b._csr.T.tocsr()
    bt.sort_indices()
    return np.array_equal(a.indptr, bt.indptr) and np.array_equal(a.indices, bt.indices)


def induced_subgraph(g: HinGraph, keep: Mapping[str, int]) -> HinGraph:
    """Restrict to the first ``keep[t]`` objects of each type.

    Edges with a dropped endpoint are removed. Splits are dropped (their
    indices would no longer be meaningful); labels are truncated.
    """
    counts = {t: min(keep.get(t, g.n_objects(t)), g.n_objects(t)) for t in g.features}
    adjacency = {}
    for (src, dst), a in g.adjacency.items():
        dense_rows = np.repeat(np.arange(a.n_rows), np.diff(a.indptr))
        mask = (dense_rows < counts[dst]) & (a.indices < counts[src])
        adjacency[(src, dst)] = SparseAdj.from_edges(
            counts[dst], counts[src], dense_rows[mask], a.indices[mask], a.weights[mask]
        )
    return HinGraph(
        schema=g.schema,
        adjacency=adjacency,
        features={t: f[: counts[t]] for t, f in g.features.items()},
        labels={t: v[: counts[t]] for t, v in g.labels.items()},
        class_counts=dict(g.class_counts),
    )
