import json
from dataclasses import replace as dataclass_replace

import numpy as np
import pytest

from hetconv import rng as rng_mod
from hetconv.autodiff import (
    GradMatrix,
    Tape,
    attend,
    constant,
    cross_entropy,
    gradcheck,
    matmul,
    spmm,
)
from hetconv.datagen import dblp_spec, generate, with_splits
from hetconv import model as model_mod
from hetconv.graph import (
    HinGraph,
    Schema,
    SparseAdj,
    normalized_adjacency,
    row_normalize,
    row_plan,
    split_rows,
)
from hetconv.model import (
    aggregates_first,
    clone_with,
    forward,
    hetero_conv,
    init_params,
    load_model,
    multiply_adds,
    save_model,
    schema_hash,
    spectral_equivalence_check,
    spectral_equivalence_on_graph,
)
from hetconv.train import (
    TrainConfig,
    build_params,
    cross_entropy_loss,
    evaluate,
    model_loss_gradcheck,
)

from conftest import array_digest, bipartite_graph, six_layer_case


# --- independent dense re-derivation of the layer formulas ----------------


def _elu(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0)))


def _softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def dense_forward_oracle(g: HinGraph, params) -> dict[str, np.ndarray]:
    """Full forward pass with plain dense arithmetic, straight from the
    formulas: projection, row-normalized averaging, [key || query] logits,
    softmax, weighted mixing, ELU."""
    h = {t: g.features[t] for t in g.schema.object_types}
    for blocks in params.layers:
        new = {}
        for omega in g.schema.object_types:
            bp = blocks[omega]
            zs = [h[omega] @ bp.w_self.value]
            for gamma in g.schema.neighbor_types(omega):
                a = g.adjacency[(gamma, omega)].to_dense()
                sums = a.sum(axis=1, keepdims=True)
                a_hat = np.divide(a, sums, out=np.zeros_like(a), where=sums > 0)
                zs.append(a_hat @ (h[gamma] @ bp.w_rel[gamma].value))
            q = zs[0] @ bp.w_q.value
            logits = np.hstack(
                [_elu(np.hstack([z @ bp.w_k.value, q]) @ bp.w_a.value) for z in zs]
            )
            att = _softmax(logits)
            mixed = sum(att[:, j : j + 1] * z for j, z in enumerate(zs))
            new[omega] = _elu(mixed)
        h = new
    return h


def toy_params(g, widths=(3, 2), d_a=2, seed=0, mean_variant=False, dtype=None):
    """``build_params`` for a small config; ``dtype`` casts the parameters."""
    cfg = TrainConfig(
        layer_widths=widths, d_a=d_a, seed=seed, mean_variant=mean_variant
    )
    params = build_params(g, cfg)
    if dtype is not None:
        for p in params.named().values():
            p.value = p.value.astype(dtype)
    return params


def identity_adj(n):
    return row_normalize(SparseAdj.from_edges(n, n, np.arange(n), np.arange(n)))


def conv_weights(w_self, w_rel):
    """``hetero_conv``'s leading ``w_self, w_rel`` arguments, as constants."""
    return constant(w_self), {gamma: constant(w) for gamma, w in w_rel.items()}


class TestProject:
    def test_identity_weights_pass_through(self, toy_graph):
        h = constant(toy_graph.features["B"])
        z_self, z_a = hetero_conv(
            *conv_weights(np.eye(3), {"A": np.zeros((2, 3))}),
            h,
            {"A": constant(toy_graph.features["A"])},
            {"A": identity_adj(3)},
        )
        assert np.array_equal(z_self.value, toy_graph.features["B"])
        assert np.all(z_a.value == 0.0)

    def test_rel_mismatch_names_relation(self, toy_graph):
        with pytest.raises(ValueError, match="from A: matmul shape mismatch"):
            hetero_conv(
                *conv_weights(np.eye(3), {"A": np.zeros((5, 3))}),
                constant(toy_graph.features["B"]),
                {"A": constant(toy_graph.features["A"])},
                {"A": identity_adj(3)},
            )

    def test_dblp_paper_block_has_four_projections(self, dblp_schema):
        params = init_params(
            dblp_schema, {t: 4 for t in dblp_schema.object_types}, [3], d_a=2, seed=0
        )
        block = params.layers[0]["P"]
        assert set(block.w_rel) == {"C", "A", "T"}
        h = {t: constant(np.random.default_rng(0).normal(size=(5, 4))) for t in dblp_schema.object_types}
        order = dblp_schema.neighbor_types("P")
        candidates = hetero_conv(
            block.w_self, block.w_rel, h["P"], h, {g: identity_adj(5) for g in order}
        )
        assert [z.shape for z in candidates] == [(5, 3)] * 4
        # the candidates follow the adjacency's order, the attention column order
        for gamma, z in zip(order, candidates[1:]):
            assert np.array_equal(z.value, h[gamma].value @ block.w_rel[gamma].value)


class TestHeteroConv:
    def test_single_neighbor_copies_projection(self):
        a_hat = row_normalize(SparseAdj.from_edges(2, 3, [0, 1], [2, 0], [1.0, 1.0]))
        y = constant(np.arange(6.0).reshape(3, 2))
        weights = conv_weights(np.eye(2), {"X": np.eye(2)})
        _, z = hetero_conv(*weights, constant(np.zeros((2, 2))), {"X": y}, {"X": a_hat})
        assert np.array_equal(z.value[0], y.value[2])
        assert np.array_equal(z.value[1], y.value[0])

    def test_two_equal_neighbors_average(self):
        a_hat = row_normalize(SparseAdj.from_edges(1, 2, [0, 0], [0, 1], [1.0, 1.0]))
        y = constant(np.array([[2.0], [4.0]]))
        weights = conv_weights(np.eye(1), {"X": np.eye(1)})
        _, z = hetero_conv(*weights, constant(np.zeros((1, 1))), {"X": y}, {"X": a_hat})
        assert z.value[0, 0] == pytest.approx(3.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        dense = rng.random((4, 4)) * (rng.random((4, 4)) < 0.6)
        rows, cols = np.nonzero(dense)
        a_hat = row_normalize(SparseAdj.from_edges(4, 4, rows, cols, dense[rows, cols]))
        y = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        weights = conv_weights(np.eye(3, 2), {"X": w})
        _, z = hetero_conv(*weights, constant(np.zeros((4, 3))), {"X": constant(y)}, {"X": a_hat})
        assert np.abs(z.value - a_hat.to_dense() @ y @ w).max() < 1e-12


class TestCandidateBuffer:
    """A block with one relation that aggregates first (X: 40 sources) and
    one that projects first (Y: 2 sources), 4 targets, width 2."""

    def _block(self, y_rows=4, seed=0):
        rng = np.random.default_rng(seed)
        adj = {
            "X": row_normalize(SparseAdj.from_edges(4, 40, np.arange(40) % 4, np.arange(40))),
            "Y": row_normalize(
                SparseAdj.from_edges(y_rows, 2, np.repeat(np.arange(y_rows), 2), np.tile([0, 1], y_rows))
            ),
        }
        h = {"S": rng.normal(size=(4, 3)), "X": rng.normal(size=(40, 3)), "Y": rng.normal(size=(2, 5))}
        w = {"self": rng.normal(size=(3, 2)), "X": rng.normal(size=(3, 2)), "Y": rng.normal(size=(5, 2))}
        assert [aggregates_first(a, *w[gamma].shape) for gamma, a in adj.items()] == [True, False]
        return adj, h, w

    def _conv(self, adj, h, w, tape=None):
        leaf = lambda x: GradMatrix(x, tape)  # noqa: E731
        return hetero_conv(
            leaf(w["self"]),
            {gamma: leaf(w[gamma]) for gamma in adj},
            leaf(h["S"]),
            {gamma: leaf(h[gamma]) for gamma in adj},
            adj,
        )

    def test_candidates_are_consecutive_slabs_of_one_buffer(self):
        adj, h, w = self._block()
        candidates = self._conv(adj, h, w)
        buf = candidates[0].value.base
        assert buf.shape == (3, 4, 2) and buf.flags.c_contiguous
        for j, z in enumerate(candidates):
            assert z.value.base is buf and z.value.ctypes.data == buf[j].ctypes.data
        want = [h["S"] @ w["self"]] + [a.to_dense() @ h[gm] @ w[gm] for gm, a in adj.items()]
        for z, x in zip(candidates, want):
            assert np.abs(z.value - x).max() < 1e-12

    def test_gradients_flow_through_the_buffer(self):
        adj, h, w = self._block(seed=1)
        params = {f"h_{t}": x for t, x in h.items()} | {f"w_{t}": x for t, x in w.items()}
        rng = np.random.default_rng(2)
        maps = [constant(rng.normal(size=shape)) for shape in ((2, 2), (2, 2), (4, 1))]

        def f(p):
            candidates = hetero_conv(
                p["w_self"], {gm: p[f"w_{gm}"] for gm in adj}, p["h_S"],
                {gm: p[f"h_{gm}"] for gm in adj}, adj,
            )
            out, _ = attend(candidates, *maps)
            targets = np.arange(4) % 2
            return cross_entropy([(out, np.arange(4), targets, 1.0)])

        report = gradcheck(f, params, tol=1e-5)
        assert report.passed, f"max rel err {report.max_rel_err:.2e}"

    def test_backward_writes_the_candidate_gradients_over_the_buffer(self):
        adj, h, w = self._block(seed=3)
        tape = Tape()
        candidates = self._conv(adj, h, w, tape)
        buf = candidates[0].value.base
        rng = np.random.default_rng(4)
        maps = [GradMatrix(rng.normal(size=shape), tape) for shape in ((2, 2), (2, 2), (4, 1))]
        out, _ = attend(candidates, *maps)
        tape.backward(cross_entropy([(out, np.arange(4), np.arange(4) % 2, 1.0)]))
        for j, z in enumerate(candidates):
            assert z.grad.base is buf and z.grad.ctypes.data == buf[j].ctypes.data

    def test_project_first_relation_with_wrong_row_count_names_its_type(self):
        adj, h, w = self._block(y_rows=3)
        with pytest.raises(
            ValueError, match=r"^from Y: attend candidates differ in shape: \(4, 2\) vs \(3, 2\)$"
        ):
            self._conv(adj, h, w)


class TestAggregationOrder:
    """30 A objects and 3 B objects: B's few rows make averaging first
    cheaper for A -> B, A's many rows make projecting first cheaper for
    B -> A."""

    @pytest.fixture
    def graph(self):
        return bipartite_graph(30, 3, 5, 5, seed=2, edge_prob=0.5)

    def test_costs_follow_shapes(self):
        # C <- P at layer 2 of dblp_spec(7520): 29,140 papers, one
        # conference each, 128 -> 64 wide; 20 conferences
        adj = SparseAdj.from_edges(20, 29140, np.arange(29140) % 20, np.arange(29140))
        assert aggregates_first(adj, 128, 64)
        assert not aggregates_first(identity_adj(50), 8, 8)  # a tie keeps A (H W)

    def test_relations_pick_different_orders_and_agree(self, graph):
        params = toy_params(graph, widths=(3, 2), seed=1)
        norm = {rel: row_normalize(a) for rel, a in graph.adjacency.items()}
        h = {t: constant(f) for t, f in graph.features.items()}
        picked = set()
        for omega, gamma in (("B", "A"), ("A", "B")):
            block = params.layers[0][omega]
            a, w = norm[(gamma, omega)], block.w_rel[gamma]
            picked.add(aggregates_first(a, *w.shape))
            _, z = hetero_conv(block.w_self, block.w_rel, h[omega], h, {gamma: a})
            project_first = spmm(a, matmul(h[gamma], w)).value
            aggregate_first = matmul(spmm(a, h[gamma]), w).value
            assert np.abs(project_first - aggregate_first).max() < 1e-12
            assert np.abs(z.value - project_first).max() < 1e-12
        assert picked == {True, False}
        report = model_loss_gradcheck(graph, TrainConfig(layer_widths=(3, 2), d_a=2, seed=1))
        assert report.passed, f"max rel err {report.max_rel_err:.2e}"


class TestTypeAttention:
    """A block's type-level step: ``attend`` over its candidates, self first."""

    def _maps(self, d, d_a, seed=0, zero_wa=False):
        """The key map, query map and attention vector of a block."""
        rng = np.random.default_rng(seed)
        return (
            constant(rng.normal(size=(d, d_a))),
            constant(rng.normal(size=(d, d_a))),
            constant(np.zeros((2 * d_a, 1)) if zero_wa else rng.normal(size=(2 * d_a, 1))),
        )

    def test_no_neighbors_attention_all_ones(self):
        z = constant(np.random.default_rng(0).normal(size=(4, 3)))
        h_new, att = attend([z], *self._maps(3, 2))
        assert np.all(att == 1.0)
        assert np.allclose(h_new.value, _elu(z.value))

    def test_zero_wa_gives_uniform(self):
        rng = np.random.default_rng(1)
        values = [constant(rng.normal(size=(5, 3))) for _ in range(3)]
        _, att = attend(values, *self._maps(3, 2, zero_wa=True))
        assert np.allclose(att, 1.0 / 3)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(2)
        values = [constant(rng.normal(size=(6, 3))) for _ in range(2)]
        _, att = attend(values, *self._maps(3, 2, seed=3))
        assert np.abs(att.sum(axis=1) - 1.0).max() < 1e-9
        assert att.min() >= 0.0

    def test_mean_variant_matches_frozen_attention(self):
        rng = np.random.default_rng(4)
        values = [constant(rng.normal(size=(5, 3))) for _ in range(3)]
        attn, _ = attend(values, *self._maps(3, 2, seed=5, zero_wa=True))
        mean, _ = attend(values)
        assert np.abs(attn.value - mean.value).max() < 1e-10

    def test_block_forward_tape_records(self, dblp_schema):
        # P has three neighbor types: a self product, two records per
        # relation, and one attend record for the whole type-level step
        # (key/query maps, logits, softmax, mix, output ELU)
        params = init_params(dblp_schema, {t: 4 for t in dblp_schema.object_types}, [3], d_a=2, seed=0)
        tape = Tape()
        params.attach(tape)
        block = params.layers[0]["P"]
        rng = np.random.default_rng(0)
        h = {t: GradMatrix(rng.normal(size=(5, 4)), tape) for t in dblp_schema.object_types}
        order = dblp_schema.neighbor_types("P")
        candidates = hetero_conv(
            block.w_self, block.w_rel, h["P"], h, {g: identity_adj(5) for g in order}
        )
        attend(candidates, block.w_k, block.w_q, block.w_a)
        assert len(tape._records) == 8


class TestForward:
    def test_output_shapes_dblp(self, dblp_schema):
        rng = np.random.default_rng(0)
        counts = {"P": 6, "A": 4, "C": 2, "T": 3}
        adjacency = {}
        for src, dst in dblp_schema.relations:
            if src < dst or (dst, src) not in adjacency:
                mask = rng.random((counts[dst], counts[src])) < 0.6
                rows, cols = np.nonzero(mask)
                if len(rows) == 0:
                    rows, cols = np.array([0]), np.array([0])
                adjacency[(src, dst)] = SparseAdj.from_edges(
                    counts[dst], counts[src], rows, cols
                )
                adjacency[(dst, src)] = SparseAdj.from_edges(
                    counts[src], counts[dst], cols, rows
                )
        g = HinGraph(
            schema=dblp_schema,
            adjacency=adjacency,
            features={t: rng.normal(size=(counts[t], 5)) for t in counts},
        )
        params = init_params(dblp_schema, {t: 5 for t in counts}, [4], d_a=3, seed=0)
        h, records = forward(params, g)
        for t in counts:
            assert h[t].shape == (counts[t], 4)
        assert len(records) == 1
        assert records[0]["P"].shape == (6, 4)

    def test_eval_deterministic(self, toy_graph):
        params = toy_params(toy_graph)
        a, _ = forward(params, toy_graph)
        b, _ = forward(params, toy_graph)
        for t in a:
            assert np.array_equal(a[t].value, b[t].value)

    def test_matches_dense_oracle_two_layers(self, toy_graph):
        params = toy_params(toy_graph, widths=(3,), dtype=np.float64)
        h, _ = forward(params, toy_graph)
        want = dense_forward_oracle(toy_graph, params)
        for t in want:
            assert np.abs(h[t].value - want[t]).max() < 1e-10

    def test_matches_dense_oracle_three_layers(self, toy_graph):
        params = toy_params(toy_graph, widths=(4, 2), d_a=3, seed=5, dtype=np.float64)
        h, _ = forward(params, toy_graph)
        want = dense_forward_oracle(toy_graph, params)
        for t in want:
            assert np.abs(h[t].value - want[t]).max() < 1e-10

    def test_float32_matches_dense_oracle(self, toy_graph):
        params = toy_params(toy_graph, widths=(4, 2), d_a=3, seed=5)
        assert params.dtype == np.float32
        h, _ = forward(params, toy_graph)
        want = dense_forward_oracle(toy_graph, params)  # float64 arithmetic
        for t in want:
            assert h[t].value.dtype == np.float32
            assert np.abs(h[t].value - want[t]).max() <= 1e-5 * np.abs(want[t]).max()

    def test_eval_mode_applies_no_dropout(self, toy_graph):
        params = toy_params(toy_graph)
        rng = np.random.default_rng(0)
        h, _ = forward(params, toy_graph, mode="eval", rng=rng, dropout_rate=0.5)
        base, _ = forward(params, toy_graph)
        for t in base:
            assert np.array_equal(h[t].value, base[t].value)
        assert rng.random() == np.random.default_rng(0).random()  # nothing drawn

    def test_dim_error_names_layer_and_block(self, toy_graph):
        # a wrong-width self projection, then a wrong-width relation projection
        for key, named in (("self", ""), ("rel", "from B: ")):
            params = toy_params(toy_graph)
            block = params.layers[0]["A"]
            if key == "self":
                block.w_self = constant(np.zeros((7, 3)))
            else:
                block.w_rel = {gamma: constant(np.zeros((5, 3))) for gamma in block.w_rel}
            with pytest.raises(ValueError, match=f"layer 2 block A: {named}matmul shape mismatch"):
                forward(params, toy_graph)

    def test_train_mode_needs_rng_for_dropout(self, toy_graph):
        params = toy_params(toy_graph)
        with pytest.raises(ValueError, match="rng"):
            forward(params, toy_graph, mode="train", dropout_rate=0.5)

    def test_permutation_equivariance(self, toy_graph):
        params = toy_params(toy_graph, widths=(4, 3), seed=2, dtype=np.float64)
        base, _ = forward(params, toy_graph)
        perm = np.array([2, 0, 1])
        dense_ab = toy_graph.adjacency[("A", "B")].to_dense()[:, perm]
        dense_ba = toy_graph.adjacency[("B", "A")].to_dense()[perm, :]
        rows, cols = np.nonzero(dense_ab)
        ab = SparseAdj.from_edges(3, 3, rows, cols, dense_ab[rows, cols])
        rows, cols = np.nonzero(dense_ba)
        ba = SparseAdj.from_edges(3, 3, rows, cols, dense_ba[rows, cols])
        permuted = HinGraph(
            schema=toy_graph.schema,
            adjacency={("A", "B"): ab, ("B", "A"): ba},
            features={
                "A": toy_graph.features["A"][perm],
                "B": toy_graph.features["B"],
            },
            labels=toy_graph.labels,
            class_counts=toy_graph.class_counts,
        )
        out, _ = forward(params, permuted)
        assert np.abs(out["A"].value - base["A"].value[perm]).max() < 1e-10
        assert np.abs(out["B"].value - base["B"].value).max() < 1e-10

    def test_real_self_relation_participates_as_ordinary_relation(self):
        rng = np.random.default_rng(0)
        schema = Schema(("A", "B"), (("A", "A"), ("B", "A"), ("A", "B")))
        dense_aa = (rng.random((4, 4)) < 0.5).astype(float)
        dense_ba = (rng.random((4, 3)) < 0.6).astype(float)
        rows, cols = np.nonzero(dense_aa)
        aa = SparseAdj.from_edges(4, 4, rows, cols, dense_aa[rows, cols])
        rows, cols = np.nonzero(dense_ba)
        ba = SparseAdj.from_edges(4, 3, rows, cols, dense_ba[rows, cols])
        ab = SparseAdj.from_edges(3, 4, cols, rows, dense_ba[rows, cols])
        g = HinGraph(
            schema=schema,
            adjacency={("A", "A"): aa, ("B", "A"): ba, ("A", "B"): ab},
            features={"A": rng.normal(size=(4, 3)), "B": rng.normal(size=(3, 2))},
        )
        from hetconv.graph import validate_graph

        assert validate_graph(g) == []
        params = init_params(schema, {"A": 3, "B": 2}, [3, 2], d_a=2, seed=1)
        block = params.layers[0]["A"]
        assert set(block.w_rel) == {"A", "B"}  # real self-relation plus B
        h, records = forward(params, g)
        assert h["A"].shape == (4, 2)
        assert records[0]["A"].shape == (4, 3)  # Self column + A + B

    def test_mean_variant_flag_equals_zero_wa(self, toy_graph):
        params = toy_params(toy_graph, widths=(4, 2), seed=3)
        for blocks in params.layers:
            for b in blocks.values():
                b.w_a = GradMatrix(np.zeros_like(b.w_a.value))
        frozen, _ = forward(params, toy_graph)
        params.mean_variant = True
        mean, _ = forward(params, toy_graph)
        for t in frozen:
            assert np.abs(frozen[t].value - mean[t].value).max() < 1e-10


def dblp_case(seed=2):
    """A small DBLP-like graph (labels on A) and default-config float32
    parameters: five layers, so L5's P, C, T and L4's C, T blocks are dead."""
    g = with_splits(generate(dblp_spec(30, seed=seed)), 40.0, seed=seed)
    return g, build_params(g, TrainConfig(seed=seed))


class TestLiveBlocks:
    def _train_pass(self, g, params, outputs, dropout_rate=0.5):
        tape = Tape()
        params.attach(tape)
        h, records = forward(
            params, g, mode="train", rng=rng_mod.stream(0, "drop"), dropout_rate=dropout_rate,
            outputs=outputs,
        )
        loss = cross_entropy_loss(h, g.labels, {"A": g.splits["A"]["train"]})
        tape.backward(loss)
        grads = {k: p.grad for k, p in params.named().items()}
        params.attach(None)
        return h, records, loss.value, grads

    def test_default_train_pass_matches_every_output(self):
        g, params = dblp_case()
        h, records, loss, grads = self._train_pass(g, params, None)
        # the default computes the train rows, as train_step requests them
        h_rows, _, loss_rows, grads_rows = self._train_pass(g, params, split_rows(g, "train"))
        assert set(h) == {"A"}
        assert [set(r) for r in records] == [{"P", "A", "C", "T"}] * 2 + [{"P", "A"}, {"A"}]
        assert loss.tobytes() == loss_rows.tobytes()
        assert h["A"].value.tobytes() == h_rows["A"].value.tobytes()
        assert {k: None if x is None else x.tobytes() for k, x in grads.items()} == {
            k: None if x is None else x.tobytes() for k, x in grads_rows.items()
        }
        # every type computes every row, and the parameter gradients sum
        # over more rows: in float64 the two agree to rounding. Dropout
        # draws a mask per computed row, so the two passes compare without it
        for p in params.named().values():
            p.value = p.value.astype(np.float64)
        _, _, loss, grads = self._train_pass(g, params, None, dropout_rate=0.0)
        h_all, _, loss_all, grads_all = self._train_pass(
            g, params, g.schema.object_types, dropout_rate=0.0
        )
        assert set(h_all) == set(g.schema.object_types)
        assert abs(loss - loss_all).max() <= 1e-12 * abs(loss_all).max()
        for name, grad in grads.items():
            if grad is not None:
                assert np.abs(grad - grads_all[name]).max() <= 1e-12 * np.abs(grads_all[name]).max()
        # the dead blocks get no gradient on either route
        for name in ("L5_P_self", "L5_T_q", "L4_C_self", "L4_T_rel_P"):
            assert grads[name] is None and grads_all[name] is None
        assert grads["L5_A_self"] is not None and grads["L4_P_rel_C"] is not None

    def test_eval_outputs_compute_the_same_values(self):
        g, params = dblp_case()
        full, records_full = forward(params, g)
        some, records = forward(params, g, outputs=["A"])
        assert set(some) == {"A"}
        assert some["A"].value.tobytes() == full["A"].value.tobytes()
        for layer, layer_full in zip(records, records_full):
            for omega, att in layer.items():
                assert len(att) == g.n_objects(omega)
                assert att.tobytes() == layer_full[omega].tobytes()

    def test_unknown_output_type(self, toy_graph):
        with pytest.raises(KeyError, match="X"):
            forward(toy_params(toy_graph), toy_graph, outputs=["X"])

    def test_masks_do_not_depend_on_the_computed_blocks(self):
        # nothing reads C, which comes first in schema order, so masks drawn
        # in block order would shift A's and B's when C is computed
        rng = np.random.default_rng(4)
        schema = Schema(("C", "A", "B"), (("A", "B"), ("B", "A"), ("B", "C")))
        n = {"C": 3, "A": 4, "B": 5}
        adjacency = {}
        for src, dst in schema.relations:
            dense = rng.random((n[dst], n[src])) < 0.7
            dense[0, 0] = True
            rows, cols = np.nonzero(dense)
            adjacency[(src, dst)] = SparseAdj.from_edges(n[dst], n[src], rows, cols)
        g = HinGraph(
            schema=schema, adjacency=adjacency,
            features={t: rng.normal(size=(k, 3)) for t, k in n.items()},
        )
        params = init_params(schema, {t: 3 for t in n}, [4, 4, 2], d_a=2, seed=0)
        kw = dict(mode="train", dropout_rate=0.5)
        h_b, records = forward(params, g, rng=rng_mod.stream(1, "d"), outputs=["B"], **kw)
        assert [set(r) for r in records] == [{"A", "B"}, {"A", "B"}, {"B"}]
        h_all, _ = forward(params, g, rng=rng_mod.stream(1, "d"), outputs=schema.object_types, **kw)
        assert h_b["B"].value.tobytes() == h_all["B"].value.tobytes()


def _close(got, want):
    """Equal within 1e-12 of ``want``'s largest magnitude."""
    return np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)


class TestRowPlan:
    def _two_label_case(self):
        """``dblp_case`` with labels on P too, whose train part is empty,
        and float64 parameters."""
        g, _ = dblp_case()
        n_p = g.n_objects("P")
        g = dataclass_replace(
            g,
            labels={**g.labels, "P": np.arange(n_p) % 3},
            class_counts={**g.class_counts, "P": 3},
            splits={**g.splits, "P": {"train": np.array([], dtype=np.int64),
                                      "val": np.arange(0, n_p, 4)}},
        )
        params = build_params(g, TrainConfig(seed=2))
        for p in params.named().values():
            p.value = p.value.astype(np.float64)
        return g, params

    def _pass(self, g, params, outputs, loss_rows, dropout_rate=0.5):
        tape = Tape()
        params.attach(tape)
        h, records = forward(
            params, g, mode="train", rng=rng_mod.stream(3, "drop"), dropout_rate=dropout_rate,
            outputs=outputs,
        )
        loss = cross_entropy_loss(h, g.labels, loss_rows)
        tape.backward(loss)
        grads = {k: p.grad for k, p in params.named().items()}
        params.attach(None)
        return h, records, loss.value[0, 0], grads

    def test_mapping_pass_matches_every_row_pass_in_float64(self):
        # without dropout: a mask covers the computed rows only, so the two
        # passes draw different masks
        g, params = self._two_label_case()
        rows = {t: g.splits[t]["train"] for t in ("A", "P")}
        h, records, loss, grads = self._pass(g, params, rows, rows, dropout_rate=0.0)
        h_all, records_all, loss_all, grads_all = self._pass(
            g, params, ["A", "P"], rows, dropout_rate=0.0
        )
        for t, idx in rows.items():
            assert h[t].shape == h_all[t].shape
            assert _close(h[t].value[idx], h_all[t].value[idx])
            outside = np.ones(g.n_objects(t), dtype=bool)
            outside[idx] = False
            assert not h[t].value[outside].any()
        plan = row_plan(g, rows, params.n_layers - 1)
        assert [list(r) for r in records] == [list(r) for r in records_all]
        for layer, layer_all, blocks in zip(records, records_all, plan.blocks):
            for omega, att in layer.items():
                r = blocks[omega].rows
                want = layer_all[omega] if r is None else layer_all[omega][r]
                assert att.shape == want.shape and _close(att, want)
        # the plan leaves rows out, P computes none at the top
        assert len(plan.blocks[-1]["P"].rows) == 0
        assert len(plan.blocks[-2]["P"].rows) < g.n_objects("P")
        assert _close(loss, loss_all)
        for name, grad in grads_all.items():
            assert (grads[name] is None) == (grad is None), name
            if grad is not None:
                assert _close(grads[name], grad), name

    def test_default_train_pass_is_the_split_rows_mapping(self):
        # P is labeled with an empty train part, which split_rows drops
        g, params = self._two_label_case()
        rows = split_rows(g, "train")
        assert list(rows) == ["A"]
        h, records, loss, grads = self._pass(g, params, None, rows)
        h_rows, records_rows, loss_rows, grads_rows = self._pass(g, params, rows, rows)
        assert set(h) == set(h_rows) == {"A"}
        assert h["A"].value.tobytes() == h_rows["A"].value.tobytes()
        assert loss.tobytes() == loss_rows.tobytes()
        assert [{t: a.tobytes() for t, a in layer.items()} for layer in records] == [
            {t: a.tobytes() for t, a in layer.items()} for layer in records_rows
        ]
        assert {k: None if x is None else x.tobytes() for k, x in grads.items()} == {
            k: None if x is None else x.tobytes() for k, x in grads_rows.items()
        }

    def test_train_default_without_a_train_split_is_every_labeled_row(self):
        g = bipartite_graph(6, 5, 3, 2, seed=1)  # labels on B, no splits
        params = toy_params(g)
        h, records = forward(params, g, mode="train")
        h_b, _ = forward(params, g, mode="train", outputs=["B"])
        assert set(h) == {"B"} and h["B"].value.tobytes() == h_b["B"].value.tobytes()
        assert all(len(att) == g.n_objects(t) for layer in records for t, att in layer.items())

    def test_gradcheck_through_the_gathers_and_the_scatter(self):
        g = bipartite_graph(12, 10, 3, 2, seed=5, edge_prob=0.15)
        rows = {"B": np.array([1, 6])}
        cfg = TrainConfig(layer_widths=(3, 3, 2), d_a=2, seed=0)
        params = build_params(g, cfg)
        plan = row_plan(g, rows, params.n_layers - 1)
        reads = [b for layer in plan.blocks for b in layer.values()]
        assert any(b.select is not None for b in reads) and plan.lift["B"] is not None
        assert any(
            a is not normalized_adjacency(g)[(gm, omega)]
            for layer in plan.blocks
            for omega, b in layer.items()
            for gm, a in b.adjacency.items()
        )
        values = {k: p.value for k, p in params.named().items()}

        def f(leaves):
            model = clone_with(params, g.schema, leaves)
            h, _ = forward(
                model, g, mode="train", rng=rng_mod.stream(1, "drop"), dropout_rate=0.5,
                outputs=rows,
            )
            return cross_entropy_loss(h, g.labels, rows)

        report = gradcheck(f, values, tol=1e-5)
        assert report.passed, f"max rel err {report.max_rel_err:.2e}"
        # the end-to-end check's loss covers the labeled objects only
        partly = dataclass_replace(g, labels={"B": np.where(np.arange(10) % 4, -1, g.labels["B"])})
        report = model_loss_gradcheck(partly, cfg)
        assert report.passed, f"max rel err {report.max_rel_err:.2e}"
        assert row_plan(partly, {"B": [0, 4, 8]}, 3).lift["B"] is not None

    def test_projections_are_released_once_read(self, monkeypatch):
        import gc
        import weakref

        g, params = dblp_case()
        projections = []

        def watched(a, b, out=None):
            z = matmul(a, b, out=out)
            if out is None:  # only a relation that projects first writes no slab
                projections.append(weakref.ref(z.value))
            return z

        monkeypatch.setattr(model_mod, "matmul", watched)
        tape = Tape()
        params.attach(tape)
        h, _ = forward(params, g, mode="train", rng=rng_mod.stream(0, "drop"), dropout_rate=0.5)
        gc.collect()
        assert projections and all(ref() is None for ref in projections)
        tape.backward(cross_entropy_loss(h, g.labels, {"A": g.splits["A"]["train"]}))
        # the relations still train: L2's P block projects A, C and T first
        assert all(params.layers[0]["P"].w_rel[gm].grad is not None for gm in ("A", "C", "T"))
        params.attach(None)


class TestGoldenEvalPass:
    # sha256 of the eval pass's outputs and records for six_layer_case(seed)
    FORWARD = {
        0: "79f215989473ed2099e53aa28a40b84c7fac1e82a1babec1f86dcc3ae9d9121c",
        1: "a6a5a9a29239cf632cf0f2e3affa4257613838324c073c205dd215a9b8545ef3",
    }
    # model.multiply_adds of the train and val plans on dblp_spec(235)
    # with 20% splits and default-config parameters, seeds 0 and 1
    WORK = {
        0: (21_033_136, 24_983_632),
        1: (21_494_624, 23_965_616),
    }

    @pytest.mark.parametrize("seed", sorted(FORWARD))
    def test_eval_pass_matches_golden_digests(self, seed):
        g, params = six_layer_case(seed)
        h, records = forward(params, g)
        parts = [(t, z.value) for t, z in h.items()]
        parts += [(i, omega, att) for i, layer in enumerate(records) for omega, att in layer.items()]
        assert array_digest(*[x for part in parts for x in part]) == self.FORWARD[seed]

    @pytest.mark.parametrize("seed", sorted(WORK))
    def test_multiply_adds_of_the_split_plans(self, seed):
        g = with_splits(generate(dblp_spec(235, seed=seed)), 20.0, seed=seed)
        params = build_params(g, TrainConfig(seed=seed))
        work = tuple(
            multiply_adds(params, g, {t: s[part] for t, s in g.splits.items()})
            for part in ("train", "val")
        )
        assert work == self.WORK[seed]


class TestGoldenMappingPasses:
    """Digests of the mapping passes ``fit`` makes, on ``dblp_case()``."""

    # sha256 of the train-split pass's loss and every parameter's gradient
    TRAIN = "99cc93934e34c0f9d2dff705fe89c9c7862af3d3d55292c998677bd968b76f1a"
    # sha256 of the val-split eval pass's outputs and records
    EVAL = "f192fd405c58607e2a023ec8da5ac61c8e33281146bae66c28e5328d64d9667a"

    def test_train_pass_matches_golden_digest(self):
        g, params = dblp_case()
        rows = split_rows(g, "train")
        tape = Tape()
        params.attach(tape)
        h, _ = forward(
            params, g, mode="train", rng=rng_mod.stream(0, "drop"), dropout_rate=0.5,
            outputs=rows,
        )
        loss = cross_entropy_loss(h, g.labels, rows)
        tape.backward(loss)
        grads = [(k, p.grad) for k, p in params.named().items() if p.grad is not None]
        params.attach(None)
        assert array_digest(loss.value, *[x for part in grads for x in part]) == self.TRAIN

    def test_eval_pass_matches_golden_digest(self):
        g, params = dblp_case()
        h, records = forward(params, g, outputs=split_rows(g, "val"))
        parts = [(t, z.value) for t, z in h.items()]
        parts += [(i, omega, att) for i, layer in enumerate(records) for omega, att in layer.items()]
        assert array_digest(*[x for part in parts for x in part]) == self.EVAL


class TestCachedAggregation:
    """Layer 2's aggregations of the constant features, kept by the plan."""

    def _layer_2(self, g, params, outputs):
        return row_plan(g, outputs, params.n_layers - 1).blocks[0]

    def _aggregating_first(self, params, layer_2):
        """The (relation, dtype) keys each layer-2 block computes: those
        ``aggregates_first`` picks on the block's own adjacency."""
        return {
            omega: {
                (gm, params.dtype)
                for gm, w in params.layers[0][omega].w_rel.items()
                if aggregates_first(reads.adjacency[gm], *w.shape)
            }
            for omega, reads in layer_2.items()
        }

    def test_own_adjacency_fills_the_cache_once(self, monkeypatch):
        g, params = dblp_case()
        feats = g.features_as(params.dtype).values()
        matmul = SparseAdj.matmul
        products = []  # the sparse products a layer-2 relation takes of a feature matrix

        def counted(a, dense):
            relations = [b for reads in layer_2.values() for b in reads.adjacency.values()]
            if any(dense is f for f in feats) and any(a is b for b in relations):
                products.append(a)
            return matmul(a, dense)

        monkeypatch.setattr(SparseAdj, "matmul", counted)
        wants = []
        for outputs in (g.schema.object_types, split_rows(g, "val")):
            layer_2 = self._layer_2(g, params, outputs)
            want = self._aggregating_first(params, layer_2)
            wants.append(want)
            # at width 128 the relations from P aggregate first
            assert any(want.values())
            assert not any(reads._aggregated for reads in layer_2.values())
            del products[:]
            forward(params, g, norm_adj=normalized_adjacency(g), outputs=outputs)
            kept = {omega: dict(reads._aggregated) for omega, reads in layer_2.items()}
            assert {omega: set(k) for omega, k in kept.items()} == want
            assert len(products) == sum(map(len, want.values()))
            forward(params, g, outputs=outputs)
            assert len(products) == sum(map(len, want.values()))
            for omega, reads in layer_2.items():
                assert reads._aggregated.keys() == kept[omega].keys()
                assert all(reads._aggregated[k] is v for k, v in kept[omega].items())
        # the val plan's P block aggregates T first: its fewer rows favour it
        assert wants[0]["P"] == set() and wants[1]["P"] == {("T", params.dtype)}
        # the graph keeps no cache of its own
        assert set(vars(g)) == {
            "schema", "adjacency", "features", "labels", "class_counts", "splits",
            "_features_by_dtype", "_normalized_adjacency", "_row_plans",
        }

    def test_foreign_adjacency_is_rejected(self):
        g, params = dblp_case()
        # the same pattern with other weights
        other = dataclass_replace(
            g,
            adjacency={
                rel: SparseAdj(a.n_rows, a.n_cols, a.indptr, a.indices,
                               a.weights * (1.0 + np.arange(a.nnz) % 3))
                for rel, a in g.adjacency.items()
            },
        )
        layers_2 = [
            self._layer_2(g, params, outputs)
            for outputs in (g.schema.object_types, split_rows(g, "val"))
        ]
        for foreign in (normalized_adjacency(other), dict(normalized_adjacency(g))):
            with pytest.raises(ValueError, match="norm_adj"):
                forward(params, g, norm_adj=foreign)
            with pytest.raises(ValueError, match="norm_adj"):
                evaluate(params, g, "val", norm_adj=foreign)
        assert not any(reads._aggregated for layer_2 in layers_2 for reads in layer_2.values())


class TestSpectralEquivalence:
    def _random_case(self, seed, n_o=5, n_g=7, d_o=3, d_g=4):
        rng = np.random.default_rng(seed)
        mask = rng.random((n_o, n_g)) < 0.5
        w = np.where(mask, rng.uniform(0.5, 2.0, mask.shape), 0.0)
        rows, cols = np.nonzero(w)
        a_og = SparseAdj.from_edges(n_o, n_g, rows, cols, w[rows, cols])
        a_go = SparseAdj.from_edges(n_g, n_o, cols, rows, w[rows, cols])
        d = max(d_o, d_g)
        return (
            rng.normal(size=(n_o, d_o)),
            rng.normal(size=(n_g, d_g)),
            rng.normal(size=(d, 3)),
            rng.normal(size=(d, 3)),
            a_og,
            a_go,
        )

    def test_random_bipartite(self):
        h_o, h_g, t0, t1, a_og, a_go = self._random_case(0)
        dev = spectral_equivalence_check("O", "G", h_o, h_g, t0, t1, a_og, a_go)
        assert dev <= 1e-10

    def test_zero_features_zero_deviation(self):
        h_o, h_g, t0, t1, a_og, a_go = self._random_case(1)
        dev = spectral_equivalence_check(
            "O", "G", np.zeros_like(h_o), np.zeros_like(h_g), t0, t1, a_og, a_go
        )
        assert dev == 0.0

    def test_unequal_dims_exercise_padding(self):
        h_o, h_g, t0, t1, a_og, a_go = self._random_case(2, d_o=2, d_g=6)
        dev = spectral_equivalence_check("O", "G", h_o, h_g, t0, t1, a_og, a_go)
        assert dev <= 1e-10

    def test_graph_wrapper_and_missing_reverse(self, toy_graph):
        dev, scale = spectral_equivalence_on_graph(toy_graph, "B", "A", seed=0)
        assert dev <= 1e-10
        assert scale > 0
        one_way = HinGraph(
            schema=Schema(("A", "B", "C"), (("A", "B"), ("C", "B"))),
            adjacency={
                ("A", "B"): toy_graph.adjacency[("A", "B")],
                ("C", "B"): toy_graph.adjacency[("A", "B")],
            },
            features={
                "A": toy_graph.features["A"],
                "B": toy_graph.features["B"],
                "C": toy_graph.features["A"],
            },
        )
        with pytest.raises(KeyError, match="missing reverse"):
            spectral_equivalence_on_graph(one_way, "B", "A", seed=0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, toy_graph):
        params = toy_params(toy_graph, widths=(4, 2), seed=9)
        save_model(tmp_path / "ckpt", params, toy_graph.schema)
        loaded, schema = load_model(tmp_path / "ckpt")
        assert schema == toy_graph.schema
        assert loaded.dims == params.dims
        assert loaded.d_a == params.d_a
        for name, p in params.named().items():
            assert np.array_equal(loaded.named()[name].value, p.value)
        a, _ = forward(params, toy_graph)
        b, _ = forward(loaded, toy_graph)
        assert np.array_equal(a["B"].value, b["B"].value)

    def test_schema_hash_stable_and_sensitive(self, dblp_schema, toy_graph):
        # pinned: a checkpoint stores this hash, so a change would orphan it
        assert schema_hash(dblp_schema) == (
            "81714d7a272ffae6d71bb52b979f6985719b5573ae5cf6a50f88e2de67f20332"
        )
        assert schema_hash(dblp_schema) != schema_hash(toy_graph.schema)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_round_trip_keeps_dtype(self, tmp_path, toy_graph, dtype):
        in_dims = {t: f.shape[1] for t, f in toy_graph.features.items()}
        params = init_params(toy_graph.schema, in_dims, [4, 2], d_a=2, seed=9, dtype=dtype)
        save_model(tmp_path / "ckpt", params, toy_graph.schema)
        assert json.loads((tmp_path / "ckpt" / "model.json").read_text())["dtype"] == dtype
        with np.load(tmp_path / "ckpt" / "model.npz") as arrays:
            assert {arrays[k].dtype for k in arrays.files} == {np.dtype(np.float64)}
        loaded, _ = load_model(tmp_path / "ckpt")
        for name, p in params.named().items():
            got = loaded.named()[name].value
            assert got.dtype == dtype and got.tobytes() == p.value.tobytes()

    def test_checkpoint_without_dtype_loads_float64(self, tmp_path, toy_graph):
        params = toy_params(toy_graph)
        save_model(tmp_path / "ckpt", params, toy_graph.schema)
        meta_path = tmp_path / "ckpt" / "model.json"
        meta = json.loads(meta_path.read_text())
        del meta["dtype"]
        meta_path.write_text(json.dumps(meta))
        loaded, _ = load_model(tmp_path / "ckpt")
        assert loaded.dtype == np.float64
        for name, p in params.named().items():
            assert np.array_equal(loaded.named()[name].value, p.value)

    def test_unknown_checkpoint_dtype_rejected(self, tmp_path, toy_graph):
        save_model(tmp_path / "ckpt", toy_params(toy_graph), toy_graph.schema)
        meta_path = tmp_path / "ckpt" / "model.json"
        meta_path.write_text(meta_path.read_text().replace('"float32"', '"float16"'))
        with pytest.raises(ValueError, match="model.json: dtype 'float16'"):
            load_model(tmp_path / "ckpt")


class TestComputeDtype:
    def test_eval_and_train_compute_in_the_parameters_dtype(self, toy_graph):
        for dtype in (np.float32, np.float64):
            params = toy_params(toy_graph, dtype=dtype)
            h, records = forward(params, toy_graph)
            assert h["B"].value.dtype == dtype
            assert {att.dtype for layer in records for att in layer.values()} == {
                np.dtype(np.float64)
            }
            params.attach(Tape())
            h_train, _ = forward(params, toy_graph, mode="train")
            assert h_train["B"].value.dtype == dtype
