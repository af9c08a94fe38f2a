"""Heterogeneous graph convolution with type-level attention.

Each layer contains one block per object type. A block projects the
type's own representation and each neighbor type's representation into a
common space, aggregates neighbor objects through the row-normalized
adjacency, and fuses the per-type results with an attention distribution
computed per target object. Stacking blocks layer by layer makes the final
representation of an object a probability-weighted mixture over all
meta-paths up to the model depth, which is what the interpretation module
reads off.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import rng as rng_mod
from .autodiff import (
    GradMatrix,
    Tape,
    attend,
    constant,
    dropout,
    matmul,
    spmm,
    xavier_uniform,
)
from .graph import (
    HinGraph,
    Relation,
    Schema,
    SparseAdj,
    normalized_adjacency,
    row_normalize,
    row_plan,
    split_rows,
)
from .io import checked_matrix, load_npz, read_json, save_npz, write_json


@dataclass
class BlockParams:
    """Parameters of one block: projections plus attention weights.

    ``w_rel`` is keyed by neighbor type in schema order; its keys must
    equal the block type's neighbor set.
    """

    w_self: GradMatrix
    w_rel: dict[str, GradMatrix]
    w_q: GradMatrix
    w_k: GradMatrix
    w_a: GradMatrix

    def named(self) -> dict[str, GradMatrix]:
        out = {"self": self.w_self, "q": self.w_q, "k": self.w_k, "a": self.w_a}
        for gamma, w in self.w_rel.items():
            out[f"rel_{gamma}"] = w
        return out


@dataclass
class ModelParams:
    """All layers' blocks plus the width bookkeeping.

    ``layers[i]`` computes layer ``i + 2`` from layer ``i + 1`` (the input
    features are layer 1). ``dims[n]`` maps each type to its width at layer
    ``n + 1``; widths may differ per type.
    """

    layers: list[dict[str, BlockParams]]
    dims: list[dict[str, int]]
    d_a: int
    mean_variant: bool = False

    @property
    def n_layers(self) -> int:
        return len(self.layers) + 1

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, float32 or float64."""
        return next(iter(self.named().values())).value.dtype

    def named(self) -> dict[str, GradMatrix]:
        """Flat name -> parameter map; names match the checkpoint's array names."""
        out: dict[str, GradMatrix] = {}
        for i, blocks in enumerate(self.layers):
            for omega, block in blocks.items():
                for key, p in block.named().items():
                    out[_param_name(i + 2, omega, key)] = p
        return out

    def attach(self, tape: Tape | None) -> None:
        """(Re-)register every parameter as a leaf of ``tape``."""
        for p in self.named().values():
            p.watch(tape)


def _param_name(n: int, omega: str, key: str) -> str:
    """Checkpoint name of block ``omega``'s parameter ``key`` at layer ``n``."""
    return f"L{n}_{omega}_{key}"


def _build_params(
    schema: Schema,
    dims: list[dict[str, int]],
    d_a: int,
    mean_variant: bool,
    value: Callable[[int, str, str, tuple[int, int]], GradMatrix],
) -> ModelParams:
    """The parameter layout for per-layer widths ``dims``, each parameter
    the GradMatrix ``value(n, omega, key, shape)``: layer ``n``, block type
    ``omega``, and key ``self``, ``rel_<gamma>`` (neighbor types in schema
    order), ``q``, ``k`` or ``a``."""
    layers = []
    for n in range(2, len(dims) + 1):
        blocks: dict[str, BlockParams] = {}
        for omega in schema.object_types:
            d_out = dims[n - 1][omega]

            def param(key, rows, cols):
                return value(n, omega, key, (rows, cols))

            blocks[omega] = BlockParams(
                w_self=param("self", dims[n - 2][omega], d_out),
                w_rel={
                    gamma: param(f"rel_{gamma}", dims[n - 2][gamma], d_out)
                    for gamma in schema.neighbor_types(omega)
                },
                w_q=param("q", d_out, d_a),
                w_k=param("k", d_out, d_a),
                w_a=param("a", 2 * d_a, 1),
            )
        layers.append(blocks)
    return ModelParams(layers=layers, dims=dims, d_a=d_a, mean_variant=mean_variant)


def init_params(
    schema: Schema,
    in_dims: Mapping[str, int],
    layer_widths: Sequence[int | Mapping[str, int]],
    d_a: int,
    seed: int,
    mean_variant: bool = False,
    dtype=np.float64,
) -> ModelParams:
    """Xavier-uniform initialization for an ``len(layer_widths) + 1`` layer model.

    Each entry of ``layer_widths`` is either one width for every type or a
    per-type mapping. Every parameter gets its own derived random stream,
    so initialization does not depend on iteration order. The values are
    drawn in float64 and stored in ``dtype``.
    """
    dims: list[dict[str, int]] = [{t: int(in_dims[t]) for t in schema.object_types}]
    for w in layer_widths:
        if isinstance(w, Mapping):
            dims.append({t: int(w[t]) for t in schema.object_types})
        else:
            dims.append({t: int(w) for t in schema.object_types})

    def draw(n, omega, key, shape):
        # the stream label of rel_<gamma> is ("rel", gamma)
        stream = rng_mod.stream(seed, "init", n, omega, *key.split("_", 1))
        return GradMatrix(xavier_uniform(*shape, stream).astype(dtype, copy=False))

    return _build_params(schema, dims, d_a, mean_variant, draw)


def aggregates_first(adj: SparseAdj, d_in: int, d_out: int) -> bool:
    """Whether ``(A H) W`` needs fewer multiply-adds than ``A (H W)``.

    ``A (H W)`` projects every source object, n_src * d_in * d_out, then
    aggregates at the output width, nnz * d_out. ``(A H) W`` aggregates at
    the input width, nnz * d_in, then projects only the target rows,
    n_tgt * d_in * d_out. Both give the same product up to rounding; a tie
    keeps ``A (H W)``.
    """
    project_first, aggregate_first = _relation_costs(adj, d_in, d_out)
    return aggregate_first < project_first


def _relation_costs(adj: SparseAdj, d_in: int, d_out: int) -> tuple[int, int]:
    """The multiply-adds of ``A (H W)`` and of ``(A H) W``, in that order."""
    return (
        adj.n_cols * d_in * d_out + adj.nnz * d_out,
        adj.nnz * d_in + adj.n_rows * d_in * d_out,
    )


def hetero_conv(
    w_self: GradMatrix,
    w_rel: Mapping[str, GradMatrix],
    h_self: GradMatrix,
    h_neigh: Mapping[str, GradMatrix],
    adj: Mapping[str, SparseAdj],
    aggregated: Mapping[str, np.ndarray] | None = None,
) -> list[GradMatrix]:
    """A block's attention candidates: its own representation projected,
    then each neighbor type's, projected and averaged through its
    row-normalized adjacency, in ``adj``'s order.

    The candidates are the consecutive slabs of one candidate-major
    k x n x d buffer, which ``attend`` reads whole. The self projection
    and every relation that aggregates first write their slab through
    ``matmul(out=)``; a relation that projects first has its sparse
    product, which scipy allocates, copied into its slab, and releases
    its projection ``H W`` as soon as the sparse product has read it.

    Each relation's product ``adj[gamma] @ h_neigh[gamma] @ w_rel[gamma]``
    is associated in whichever order ``aggregates_first`` finds cheaper.
    Where it aggregates first, ``aggregated[gamma]``, if there, supplies
    the constant product ``adj[gamma] @ h_neigh[gamma]`` instead. A shape
    error in a relation's product names its neighbor type.
    """
    n, d = h_self.shape[0], w_self.shape[1]
    dtype = np.result_type(h_self.value, w_self.value)
    buf = np.empty((1 + len(adj), n, d), dtype=dtype)
    candidates = [matmul(h_self, w_self, out=buf[0])]
    for slab, (gamma, a) in zip(buf[1:], adj.items()):
        h, w = h_neigh[gamma], w_rel[gamma]
        try:
            if (a.n_rows, w.shape[1]) != (n, d):
                raise ValueError(
                    f"attend candidates differ in shape: {(n, d)} vs {(a.n_rows, w.shape[1])}"
                )
            if aggregates_first(a, *w.shape):
                if aggregated and gamma in aggregated:
                    ah = constant(aggregated[gamma])
                else:
                    ah = spmm(a, h)
                z = matmul(ah, w, out=slab)
            else:
                hw = matmul(h, w)
                z = spmm(a, hw)
                # spmm's record reads only the gradient: H W is released
                # now, its record keeping just the gradient slot, and the
                # copy takes the sparse product's place
                hw.value = np.broadcast_to(hw.value.dtype.type(0), hw.shape)
                slab[...] = z.value
                z.value = slab
        except ValueError as err:
            raise ValueError(f"from {gamma}: {err}") from err
        candidates.append(z)
    return candidates


def forward(
    params: ModelParams,
    g: HinGraph,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.0,
    norm_adj: Mapping[Relation, SparseAdj] | None = None,
    outputs: Iterable[str] | Mapping[str, np.ndarray] | None = None,
) -> tuple[dict[str, GradMatrix], list[dict[str, np.ndarray]]]:
    """Run the layers; return the final representations of the ``outputs``
    types and the attention records.

    ``outputs`` is type names or a mapping from type to object indices.
    Only the blocks the outputs read are computed, and each of them only
    at the rows its ``graph.row_plan`` lists: every row for type names;
    for a mapping, the rows the layer above reads, down from the
    requested ones. A mapping's final representations still
    have one row per object, and every row outside the request is exactly
    0. ``outputs`` defaults to every type in eval mode. In train mode,
    whose pass only feeds a loss over the train split, it defaults to the
    rows ``train.epochs`` trains on, ``split_rows(g, "train")``, and
    without any to the labeled types' names (``g.labels``; every type if
    there are none).
    ``attention_records[i][omega]`` is the attention matrix of block
    ``omega`` at the transition from layer ``i + 1`` to ``i + 2``, for
    each block that transition computed, one row per computed row in
    ascending object order (every object for type names): column 0 is the
    block's own type, the others follow ``Schema.neighbor_types(omega)``.

    In train mode, dropout is applied to every hidden layer's output
    (never the last layer's). Each (layer, type) draws its mask from its
    own stream, labeled under one root drawn from ``rng``, so the masks
    do not depend on which blocks are computed. A mask covers the rows
    the plan computes, no more: a pass over other rows draws other masks.

    Every pass computes in the parameters' dtype, reading the features
    through ``g.features_as``, so train-mode gradients match the
    parameters. The attention records are float64 whatever that dtype.
    A block aggregates through the graph's own ``normalized_adjacency``,
    restricted to its rows. At layer 2, each relation that
    ``aggregates_first`` on that restriction takes its aggregation of the
    constant features from the plan (``BlockRows.aggregated``), which
    keeps it for the plan's later passes. ``norm_adj`` must be None or
    the graph's ``normalized_adjacency``; any other is a ValueError.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    training = mode == "train"
    if training and dropout_rate > 0 and rng is None:
        raise ValueError("train-mode dropout needs an rng stream")
    if norm_adj is not None and norm_adj is not normalized_adjacency(g):
        raise ValueError("norm_adj must be None or normalized_adjacency(g) of the same graph")
    if outputs is None:
        outputs = g.schema.object_types
        if training:
            outputs = split_rows(g, "train") or tuple(g.labels) or outputs
    plan = row_plan(g, outputs, params.n_layers - 1)
    drop_root = int(rng.integers(2**63)) if training and dropout_rate > 0 else None
    feats = g.features_as(params.dtype)
    h = {}
    for t in g.schema.object_types:
        feat = feats[t]
        if feat.shape[1] != params.dims[0][t]:
            raise ValueError(
                f"layer 1 block {t}: feature width {feat.shape[1]} != "
                f"model input width {params.dims[0][t]}"
            )
        h[t] = constant(feat)
    records: list[dict[str, np.ndarray]] = []
    n_layers = params.n_layers
    for n, blocks, layer_plan in zip(range(2, n_layers + 1), params.layers, plan.blocks):
        new_h: dict[str, GradMatrix] = {}
        layer_att: dict[str, np.ndarray] = {}
        for omega, reads in layer_plan.items():
            block = blocks[omega]
            h_self = h[omega] if reads.select is None else spmm(reads.select, h[omega])
            # layer 2 reads the constant features, whose aggregations its plan keeps
            aggregated = None
            if n == 2:
                aggregated = {
                    gm: reads.aggregated(gm, feats)
                    for gm, w in block.w_rel.items()
                    if aggregates_first(reads.adjacency[gm], *w.shape)
                }
            maps = () if params.mean_variant else (block.w_k, block.w_q, block.w_a)
            try:
                candidates = hetero_conv(
                    block.w_self, block.w_rel, h_self, h, reads.adjacency, aggregated
                )
                out, layer_att[omega] = attend(candidates, *maps)
            except ValueError as err:
                raise ValueError(f"layer {n} block {omega}: {err}") from err
            if drop_root is not None and n < n_layers:
                stream = rng_mod.stream(drop_root, n, omega)
                out = dropout(out, dropout_rate, stream)
            new_h[omega] = out
        h = new_h
        records.append(layer_att)
    h = {t: z if plan.lift[t] is None else spmm(plan.lift[t], z) for t, z in h.items()}
    return h, records


def multiply_adds(
    params: ModelParams, g: HinGraph, outputs: Iterable[str] | Mapping[str, np.ndarray]
) -> int:
    """The multiply-adds of one ``forward`` pass for ``outputs``, counted
    from its ``graph.row_plan``: a deterministic measure of a pass's work.

    Per computed block of r rows and output width d: the self projection
    (r x d_in x d), each relation at whichever of ``aggregates_first``'s
    two formulas is cheaper on its restricted adjacency, and ``attend``
    over its k candidates, the mix (k x r x d) plus, with attention maps,
    the logits (k x r x d). Row gathers and scatters, the softmax and the
    ELUs are not counted.
    """
    plan = row_plan(g, outputs, params.n_layers - 1)
    total = 0
    for dims_in, dims_out, layer_plan in zip(params.dims, params.dims[1:], plan.blocks):
        for omega, reads in layer_plan.items():
            r = g.n_objects(omega) if reads.rows is None else len(reads.rows)
            d = dims_out[omega]
            total += r * dims_in[omega] * d
            for gamma, a in reads.adjacency.items():
                total += min(_relation_costs(a, dims_in[gamma], d))
            k = 1 + len(reads.adjacency)
            total += (1 if params.mean_variant else 2) * k * r * d
    return total


def _spectral_equivalence(
    omega: str,
    gamma: str,
    h_omega: np.ndarray,
    h_gamma: np.ndarray,
    theta0: np.ndarray,
    theta1: np.ndarray,
    adj_omega_gamma: SparseAdj,
    adj_gamma_omega: SparseAdj,
) -> tuple[float, float]:
    """Deviation between the layer's convolution and its spectral form.

    The first-order spectral convolution on the bipartite graph of the two
    types works on the augmented adjacency: stack both directions into one
    square matrix, normalize by its degrees, zero-pad both feature blocks
    to a common width, and apply the shared filters theta0/theta1. The
    block rows of that computation must coincide with the per-relation
    convolution run with ``w_self = theta0`` and ``w_rel = theta1`` for
    both types. Returns the maximum absolute elementwise deviation and the
    maximum absolute value of the spectral output.
    """
    n_o, d_o = h_omega.shape
    n_g, d_g = h_gamma.shape
    if adj_omega_gamma.n_rows != n_o or adj_omega_gamma.n_cols != n_g:
        raise ValueError(f"adjacency for ({gamma}, {omega}) has the wrong shape")
    if adj_gamma_omega.n_rows != n_g or adj_gamma_omega.n_cols != n_o:
        raise ValueError(f"adjacency for ({omega}, {gamma}) has the wrong shape")
    d = max(d_o, d_g)
    if theta0.shape[0] != d or theta1.shape[0] != d:
        raise ValueError(f"filters must have {d} rows (the padded width)")

    # spectral route: explicit augmented matrices, dense arithmetic
    a_tilde = np.zeros((n_o + n_g, n_o + n_g))
    a_tilde[:n_o, n_o:] = adj_omega_gamma.to_dense()
    a_tilde[n_o:, :n_o] = adj_gamma_omega.to_dense()
    deg = a_tilde.sum(axis=1)
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    p_tilde = inv[:, None] * a_tilde
    h_tilde = np.zeros((n_o + n_g, d))
    h_tilde[:n_o, :d_o] = h_omega
    h_tilde[n_o:, :d_g] = h_gamma
    spectral = p_tilde @ h_tilde @ theta1 + h_tilde @ theta0

    # model route: per-relation projection + object-level aggregation
    def conv(h_tgt, h_src, adj):
        z_self, z_src = hetero_conv(
            constant(theta0[: h_tgt.shape[1]]),
            {"src": constant(theta1[: h_src.shape[1]])},
            constant(h_tgt),
            {"src": constant(h_src)},
            {"src": row_normalize(adj)},
        )
        return z_self.value + z_src.value

    out_omega = conv(h_omega, h_gamma, adj_omega_gamma)
    out_gamma = conv(h_gamma, h_omega, adj_gamma_omega)
    dev_o = np.abs(spectral[:n_o] - out_omega).max() if n_o else 0.0
    dev_g = np.abs(spectral[n_o:] - out_gamma).max() if n_g else 0.0
    return float(max(dev_o, dev_g)), float(np.abs(spectral).max(initial=0.0))


def spectral_equivalence_check(
    omega: str,
    gamma: str,
    h_omega: np.ndarray,
    h_gamma: np.ndarray,
    theta0: np.ndarray,
    theta1: np.ndarray,
    adj_omega_gamma: SparseAdj,
    adj_gamma_omega: SparseAdj,
) -> float:
    """The maximum absolute deviation of ``_spectral_equivalence``."""
    return _spectral_equivalence(
        omega, gamma, h_omega, h_gamma, theta0, theta1, adj_omega_gamma, adj_gamma_omega
    )[0]


def spectral_equivalence_on_graph(
    g: HinGraph, omega: str, gamma: str, seed: int = 0
) -> tuple[float, float]:
    """Run the equivalence check for one relation pair of a graph with
    random shared filters. Returns the maximum absolute deviation and the
    maximum absolute value of the spectral (reference) output, the scale
    that rounding error grows with. Errors if the reverse relation is
    missing."""
    if (gamma, omega) not in g.adjacency:
        raise KeyError(f"graph has no relation ({gamma}, {omega})")
    if (omega, gamma) not in g.adjacency:
        raise KeyError(
            f"missing reverse relation ({omega}, {gamma}) for the equivalence check"
        )
    h_o, h_g = g.features[omega], g.features[gamma]
    d = max(h_o.shape[1], h_g.shape[1])
    d_out = max(2, d // 2)
    theta0 = xavier_uniform(d, d_out, rng_mod.stream(seed, "spectral", omega, gamma, 0))
    theta1 = xavier_uniform(d, d_out, rng_mod.stream(seed, "spectral", omega, gamma, 1))
    return _spectral_equivalence(
        omega,
        gamma,
        h_o,
        h_g,
        theta0,
        theta1,
        g.adjacency[(gamma, omega)],
        g.adjacency[(omega, gamma)],
    )


def clone_with(
    params: ModelParams, schema: Schema, named: Mapping[str, GradMatrix]
) -> ModelParams:
    """A view of ``params``, built for ``schema``, whose blocks reference
    the given leaves.

    Used by the gradient checker: the taped forward pass must consume the
    exact GradMatrix objects registered as leaves.
    """
    return _build_params(
        schema,
        params.dims,
        params.d_a,
        params.mean_variant,
        lambda n, omega, key, shape: named[_param_name(n, omega, key)],
    )


def schema_hash(schema: Schema) -> str:
    canon = json.dumps(schema.to_json(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def save_model(directory: Path | str, params: ModelParams, schema: Schema) -> None:
    """Write a checkpoint directory: ``model.json`` with the per-type layer
    widths, attention width, mean-variant flag, compute dtype and the schema
    with its hash, and ``model.npz``, one uncompressed float64 array per
    parameter named as in ``params.named()`` (float32 values convert to
    float64 exactly)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_json(
        directory / "model.json",
        {
            "n_layers": params.n_layers,
            "dims": params.dims,
            "d_a": params.d_a,
            "mean_variant": params.mean_variant,
            "dtype": params.dtype.name,
            "schema": schema.to_json(),
            "schema_hash": schema_hash(schema),
        },
    )
    save_npz(
        directory / "model.npz",
        {name: p.value.astype(np.float64, copy=False) for name, p in params.named().items()},
    )


COMPUTE_DTYPES = ("float32", "float64")


def _checkpoint_meta(raw) -> tuple[Schema, list[dict[str, int]], int, bool, str]:
    schema = Schema.from_json(raw["schema"])
    dims = [{t: int(layer[t]) for t in schema.object_types} for layer in raw["dims"]]
    dtype = raw.get("dtype", "float64")
    if dtype not in COMPUTE_DTYPES:
        raise ValueError(f"dtype {dtype!r}, expected one of {list(COMPUTE_DTYPES)}")
    return schema, dims, int(raw["d_a"]), bool(raw["mean_variant"]), dtype


def load_model(directory: Path | str) -> tuple[ModelParams, Schema]:
    """Read a checkpoint written by ``save_model``.

    ``model.npz`` must hold exactly the arrays ``params.named()`` names for
    the widths in ``model.json``, each a finite float64 array of its
    parameter's shape. The parameters are cast to the ``dtype`` that
    ``model.json`` records; a ``model.json`` without one is float64. Any
    other content, and a checkpoint of the old layout (one
    ``L<layer>_<block>_<param>.tsv`` per parameter), is a ValueError
    naming the file.
    """
    directory = Path(directory)
    schema, dims, d_a, mean_variant, dtype = read_json(
        directory / "model.json", _checkpoint_meta
    )
    path = directory / "model.npz"
    if not path.exists() and any(directory.glob("L*.tsv")):
        raise ValueError(
            f"{directory}: checkpoint in the old layout of one L<layer>_<block>_<param>.tsv "
            "per parameter; this version reads model.npz. Retrain, or convert with: "
            f"d = pathlib.Path('{directory}'); np.savez(d / 'model.npz', "
            "**{p.stem: np.loadtxt(p, skiprows=1, ndmin=2) for p in d.glob('L*.tsv')})"
        )
    arrays = load_npz(path)
    missing = []

    def take(n, omega, key, shape):
        name = _param_name(n, omega, key)
        if name not in arrays:
            missing.append(name)
            return GradMatrix(np.zeros(shape))  # reported below with every other missing name
        return GradMatrix(
            checked_matrix(f"{path}: {name}", arrays[name], shape).astype(dtype, copy=False)
        )

    params = _build_params(schema, dims, d_a, mean_variant, take)
    extra = sorted(arrays.keys() - params.named().keys())
    if missing or extra:
        raise ValueError(f"{path}: missing arrays {sorted(missing)}, unexpected arrays {extra}")
    return params, schema
