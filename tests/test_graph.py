import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetconv.graph import (
    HinGraph,
    Schema,
    SparseAdj,
    induced_subgraph,
    normalized_adjacency,
    row_normalize,
    row_plan,
    split_rows,
    validate_graph,
)


def adj_from_dense(dense):
    dense = np.asarray(dense, dtype=float)
    rows, cols = np.nonzero(dense)
    return SparseAdj.from_edges(
        dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols]
    )


class TestSchema:
    def test_duplicate_types_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Schema(("A", "A"), (("A", "A"),))

    def test_duplicate_relations_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Schema(("A", "B"), (("A", "B"), ("A", "B")))

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            Schema(("A", "B"), (("A", "X"),))

    def test_too_small_rejected(self):
        # one type plus one self-relation is not heterogeneous
        with pytest.raises(ValueError, match="> 2"):
            Schema(("A",), (("A", "A"),))

    def test_real_self_relation_allowed(self):
        s = Schema(("A", "B"), (("A", "A"), ("A", "B")))
        assert s.neighbor_types("A") == ["A"]


class TestNeighborTypes:
    def test_dblp_paper_block_order(self, dblp_schema):
        assert dblp_schema.neighbor_types("P") == ["C", "A", "T"]

    def test_dblp_conference_block(self, dblp_schema):
        assert dblp_schema.neighbor_types("C") == ["P"]

    def test_no_incoming_relations(self):
        s = Schema(("A", "B"), (("A", "B"),))
        assert s.neighbor_types("A") == []
        assert s.neighbor_types("B") == ["A"]

    def test_unknown_type_named_in_error(self, dblp_schema):
        with pytest.raises(KeyError, match="X"):
            dblp_schema.neighbor_types("X")

    def test_membership_matches_relations(self, dblp_schema):
        for omega in dblp_schema.object_types:
            got = set(dblp_schema.neighbor_types(omega))
            want = {s for s, d in dblp_schema.relations if d == omega}
            assert got == want


def _blocks(schema, outputs, n_transitions):
    """The block types of each transition of ``row_plan`` on a graph of
    ``schema`` with two objects per type and every relation complete."""
    full = SparseAdj.from_edges(2, 2, [0, 0, 1, 1], [0, 1, 0, 1])
    g = HinGraph(
        schema=schema,
        adjacency=dict.fromkeys(schema.relations, full),
        features={t: np.ones((2, 1)) for t in schema.object_types},
    )
    return [tuple(layer) for layer in row_plan(g, outputs, n_transitions).blocks]


class TestLiveBlocks:
    """The blocks of a ``RowPlan``: the keys of each transition's rows."""

    def test_dblp_author_outputs(self, dblp_schema):
        # A reads only P, and P reads every type
        live = [("P", "A", "C", "T"), ("P", "A", "C", "T"), ("P", "A"), ("A",)]
        assert _blocks(dblp_schema, ["A"], 4) == live
        assert _blocks(dblp_schema, {"A": [1]}, 4) == live

    def test_every_type_keeps_every_block(self, dblp_schema):
        every = dblp_schema.object_types
        assert _blocks(dblp_schema, every, 3) == [every] * 3
        assert _blocks(dblp_schema, list(reversed(every)), 3) == [every] * 3

    def test_no_incoming_relations_keep_only_the_output(self):
        s = Schema(("A", "B"), (("A", "B"),))
        assert _blocks(s, {"A"}, 3) == [("A",)] * 3
        assert _blocks(s, {"B"}, 3) == [("A", "B"), ("A", "B"), ("B",)]
        assert _blocks(s, {"B": [0]}, 3) == [("A", "B"), ("A", "B"), ("B",)]
        assert _blocks(s, {"B"}, 0) == []

    def test_unknown_type_named_in_error(self, dblp_schema):
        for outputs in (["A", "X"], {"A": [0], "X": [0]}):
            with pytest.raises(KeyError, match="unknown object type: 'X'"):
                _blocks(dblp_schema, outputs, 2)


class TestRowPlan:
    """A chain: B2 reads A1 and A2, which read B1 and B2."""

    def _graph(self):
        dense = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 2, 1, 0], [0, 0, 0, 1]])
        ab, ba = adj_from_dense(dense), adj_from_dense(dense.T)
        return HinGraph(
            schema=Schema(("A", "B"), (("A", "B"), ("B", "A"))),
            adjacency={("A", "B"): ab, ("B", "A"): ba},
            features={"A": np.ones((4, 2)), "B": np.ones((4, 3))},
        )

    def test_rows_grow_down_from_the_request(self):
        g = self._graph()
        plan = row_plan(g, {"B": [2]}, 3)
        rows = [{t: b.rows.tolist() for t, b in layer.items()} for layer in plan.blocks]
        assert rows == [{"A": [1, 2], "B": [1, 2]}, {"A": [1, 2], "B": [2]}, {"B": [2]}]
        # the features keep every row, so layer 2 picks its rows out of them
        assert plan.blocks[0]["B"].select.to_dense().tolist() == [[0, 1, 0, 0], [0, 0, 1, 0]]
        assert plan.blocks[1]["A"].select is None and plan.blocks[2]["B"].select is None
        assert plan.blocks[1]["B"].select.to_dense().tolist() == [[0, 1]]
        assert plan.lift["B"].to_dense().tolist() == [[0], [0], [1], [0]]

    def test_each_block_reads_its_rows_of_every_relation(self):
        g = self._graph()
        norm = normalized_adjacency(g)
        plan = row_plan(g, {"B": [2], "A": [0]}, 3)
        every = {t: np.arange(4) for t in ("A", "B")}
        for i, layer in enumerate(plan.blocks):
            below = {t: b.rows for t, b in plan.blocks[i - 1].items()} if i else every
            for omega, b in layer.items():
                for gamma, a in b.adjacency.items():
                    full = norm[(gamma, omega)].to_dense()[b.rows]
                    kept = np.zeros(4, dtype=bool)
                    kept[below[gamma]] = True
                    assert np.array_equal(a.to_dense(), full[:, kept])
                    assert not full[:, ~kept].any()

    def test_one_plan_per_request(self):
        g = self._graph()
        plan = row_plan(g, {"B": np.array([2, 0])}, 2)
        assert row_plan(g, {"B": [0, 2, 2]}, 2) is plan
        assert row_plan(g, {"B": [0, 2]}, 3) is not plan
        names = row_plan(g, ["B"], 2)
        assert names is row_plan(g, ("B",), 2) and names is not row_plan(g, {"B": range(4)}, 2)
        norm = normalized_adjacency(g)
        for layer in names.blocks:
            for omega, b in layer.items():
                assert b.rows is None and b.select is None
                assert all(a is norm[(gm, omega)] for gm, a in b.adjacency.items())
        assert names.lift == {"B": None}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_restricted_layer_2_products_are_rows_of_the_full_product(self, dtype):
        from hetconv.datagen import dblp_spec, generate, with_splits

        g = with_splits(generate(dblp_spec(60, seed=1)), 20.0, seed=1)
        feats, norm = g.features_as(dtype), normalized_adjacency(g)
        layer_2 = row_plan(g, split_rows(g, "val"), 3).blocks[0]
        assert all(b.rows is not None for b in layer_2.values())
        for omega, b in layer_2.items():
            for gamma in b.adjacency:
                got = b.aggregated(gamma, feats)
                full = norm[(gamma, omega)].matmul(feats[gamma])
                assert got.dtype == dtype and got.shape == (len(b.rows), full.shape[1])
                assert got.tobytes() == full[b.rows].tobytes()

    def test_bad_requests(self):
        g = self._graph()
        with pytest.raises(ValueError, match=r"type B: index outside \[0, 4\)"):
            row_plan(g, {"B": [4]}, 2)
        with pytest.raises(KeyError, match="X"):
            row_plan(g, {"X": [0]}, 2)


class TestSplitRows:
    def test_schema_order_non_empty_parts_of_labeled_types(self):
        schema = Schema(("P", "A", "C", "T"), (("A", "P"), ("P", "A"), ("C", "P"), ("T", "P")))
        g = HinGraph(
            schema=schema,
            adjacency={},
            features={t: np.zeros((4, 1)) for t in schema.object_types},
            labels={"T": np.zeros(4), "C": np.zeros(4), "A": np.zeros(4), "P": np.zeros(4)},
            splits={
                "T": {"train": [3, 1], "val": [0]},
                "P": {"train": [], "val": [2]},  # an empty train part
                "A": {"train": [0, 2]},  # no val part
                "C": {"val": [1]},  # no train part
            },
        )
        train = split_rows(g, "train")
        assert list(train) == ["A", "T"]
        assert train["T"].tolist() == [3, 1] and train["A"].tolist() == [0, 2]
        assert list(split_rows(g, "val")) == ["P", "C", "T"]
        assert split_rows(g, "test") == {}

    def test_unlabeled_types_are_skipped(self):
        schema = Schema(("A", "B"), (("A", "B"), ("B", "A")))
        g = HinGraph(
            schema=schema,
            adjacency={},
            features={"A": np.zeros((3, 1)), "B": np.zeros((3, 1))},
            labels={"B": np.zeros(3)},
            splits={"A": {"train": [0]}, "B": {"train": [1, 2]}},
        )
        assert list(split_rows(g, "train")) == ["B"]


class TestSparseAdj:
    def test_from_edges_merges_duplicates(self):
        a = SparseAdj.from_edges(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 4.0])
        assert a.nnz == 2
        assert a.to_dense()[0, 1] == 3.0

    def test_out_of_range_column_rejected(self):
        with pytest.raises(ValueError):
            SparseAdj.from_edges(2, 2, [0], [5], [1.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            SparseAdj(1, 2, [0, 1], [0], [-1.0])

    def test_unsorted_columns_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseAdj(1, 3, [0, 2], [2, 0], [1.0, 1.0])

    def test_row_sums(self):
        a = adj_from_dense([[1, 3], [0, 0], [2, 2]])
        assert np.allclose(a.row_sums(), [4, 0, 4])

    def test_index_arrays_are_the_scipy_handles(self):
        built = SparseAdj(1, 3, [0, 2], [0, 2], [1.0, 1.0])
        for a in (adj_from_dense([[1, 3], [0, 0], [2, 2]]), built):
            assert np.shares_memory(a.indices, a._csr.indices)
            assert np.shares_memory(a.indptr, a._csr.indptr)


class TestRowNormalize:
    def test_equal_weights_split_evenly(self):
        a = adj_from_dense([[2.0, 2.0]])
        assert np.allclose(row_normalize(a).to_dense(), [[0.5, 0.5]])

    def test_divide_by_row_sum(self):
        a = adj_from_dense([[1.0, 3.0]])
        assert np.allclose(row_normalize(a).to_dense(), [[0.25, 0.75]])

    def test_empty_row_stays_empty(self):
        a = adj_from_dense([[0.0, 0.0], [1.0, 1.0]])
        out = row_normalize(a)
        assert out.row_sums()[0] == 0.0
        assert np.array_equal(out.indptr, a.indptr)
        assert np.array_equal(out.indices, a.indices)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_nonzero_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        dense = rng.random((4, 5)) * (rng.random((4, 5)) < 0.5)
        a = adj_from_dense(dense)
        sums = row_normalize(a).row_sums()
        nonzero = a.row_sums() > 0
        assert np.all(np.abs(sums[nonzero] - 1.0) < 1e-9)
        assert np.all(sums[~nonzero] == 0.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        dense = rng.random((3, 4)) * (rng.random((3, 4)) < 0.6)
        once = row_normalize(adj_from_dense(dense))
        twice = row_normalize(once)
        assert np.all(np.abs(once.weights - twice.weights) < 1e-9)

    def test_shares_the_source_index_arrays(self, toy_graph):
        a = toy_graph.adjacency[("A", "B")]
        norm = row_normalize(a)
        assert np.shares_memory(norm.indices, a.indices)
        assert np.shares_memory(norm.indptr, a.indptr)

    def test_graph_keeps_its_normalized_adjacency(self, toy_graph):
        assert normalized_adjacency(toy_graph) is normalized_adjacency(toy_graph)

    def test_graph_mapping_matches_row_normalize(self, toy_graph):
        norm = normalized_adjacency(toy_graph)
        assert set(norm) == set(toy_graph.adjacency)
        for rel, a in norm.items():
            assert np.array_equal(a.weights, row_normalize(toy_graph.adjacency[rel]).weights)


class TestValidateGraph:
    def test_well_formed_toy(self, toy_graph):
        assert validate_graph(toy_graph) == []

    def test_shape_violation(self, toy_graph):
        bad = dict(toy_graph.adjacency)
        # one extra column: |V_A| + 1
        a = toy_graph.adjacency[("A", "B")]
        bad[("A", "B")] = SparseAdj(a.n_rows, a.n_cols + 1, a.indptr, a.indices, a.weights)
        g = HinGraph(
            schema=toy_graph.schema,
            adjacency=bad,
            features=toy_graph.features,
            labels=toy_graph.labels,
            class_counts=toy_graph.class_counts,
        )
        violations = validate_graph(g)
        assert len(violations) >= 1
        assert any("('A', 'B')" in v and "shape" in v for v in violations)

    def test_transpose_pattern_violation(self, toy_graph):
        a = toy_graph.adjacency[("A", "B")]
        dense = a.to_dense()
        # drop one stored entry so the pattern no longer transposes
        rows, cols = np.nonzero(dense)
        dense[rows[0], cols[0]] = 0.0
        bad = dict(toy_graph.adjacency)
        bad[("A", "B")] = adj_from_dense(dense)
        g = HinGraph(
            schema=toy_graph.schema,
            adjacency=bad,
            features=toy_graph.features,
            labels=toy_graph.labels,
            class_counts=toy_graph.class_counts,
        )
        violations = validate_graph(g)
        assert sum("transpose" in v for v in violations) == 1

    def test_missing_adjacency_reported(self, toy_graph):
        partial = {("A", "B"): toy_graph.adjacency[("A", "B")]}
        g = HinGraph(
            schema=toy_graph.schema,
            adjacency=partial,
            features=toy_graph.features,
        )
        assert any("missing adjacency" in v for v in validate_graph(g))

    def test_label_range_checked(self, toy_graph):
        g = HinGraph(
            schema=toy_graph.schema,
            adjacency=toy_graph.adjacency,
            features=toy_graph.features,
            labels={"B": np.array([0, 5, 1])},
            class_counts={"B": 2},
        )
        assert any("label" in v for v in validate_graph(g))

    @pytest.mark.parametrize(
        "parts, message",
        [
            ({"train": [0], "test": [3]}, "type B split test: index 3 outside [0, 3)"),
            ({"train": [-1], "test": [2]}, "type B split train: index -1 outside [0, 3)"),
            ({"train": [0, 2], "val": [2]},
             "type B: split parts train and val share 1 objects (first: 2)"),
            ({"train": [0], "test": [1, 2]}, "type B split test: 1 unlabeled objects (first: 1)"),
        ],
    )
    def test_split_problems_name_type_and_part(self, toy_graph, parts, message):
        g = HinGraph(
            schema=toy_graph.schema,
            adjacency=toy_graph.adjacency,
            features=toy_graph.features,
            labels={"B": np.array([0, -1, 1])},
            class_counts={"B": 2},
            splits={"B": parts},
        )
        assert validate_graph(g) == [message]

    def test_split_of_unlabeled_type_reported(self, toy_graph):
        g = HinGraph(
            schema=toy_graph.schema,
            adjacency=toy_graph.adjacency,
            features=toy_graph.features,
            splits={"A": {"train": [0, 1]}},
        )
        assert validate_graph(g) == ["type A split train: 2 unlabeled objects (first: 0)"]


class TestInducedSubgraph:
    def test_keeps_prefix_and_filters_edges(self, toy_graph):
        small = induced_subgraph(toy_graph, {"A": 2, "B": 2})
        assert small.n_objects("A") == 2 and small.n_objects("B") == 2
        assert validate_graph(small) == []
        full = toy_graph.adjacency[("A", "B")].to_dense()
        assert np.allclose(small.adjacency[("A", "B")].to_dense(), full[:2, :2])
        assert np.array_equal(small.labels["B"], toy_graph.labels["B"][:2])


class TestDtypeCaches:
    def _graph(self):
        from conftest import bipartite_graph

        return bipartite_graph(4, 5, 3, 2, seed=3)

    def test_features_cast_once_per_dtype(self):
        g = self._graph()
        assert g.features_as(np.float64) is g.features
        f32 = g.features_as(np.float32)
        assert f32 is g.features_as("float32")
        assert all(f.dtype == np.float32 for f in f32.values())
        assert np.array_equal(f32["A"], g.features["A"].astype(np.float32))

    def test_out_of_range_features_stay_float64(self):
        g = self._graph()
        huge = HinGraph(
            schema=g.schema, adjacency=g.adjacency,
            features={"A": np.full((4, 3), 1e200), "B": g.features["B"]},
        )
        assert g.trains_in_float32() and not huge.trains_in_float32()
        assert huge.features_as(np.float32) is huge.features

    def test_float32_products_share_the_index_arrays(self):
        a = row_normalize(self._graph().adjacency[("A", "B")])
        dense = np.random.default_rng(0).normal(size=(a.n_cols, 3))
        t_dense = np.random.default_rng(1).normal(size=(a.n_rows, 3))
        for transposed, x in ((False, dense), (True, t_dense)):
            product = a.t_matmul if transposed else a.matmul
            got = product(x.astype(np.float32))
            assert got.dtype == np.float32
            assert np.allclose(got, product(x), rtol=1e-5, atol=1e-6)
            f32 = a._product_csr(np.dtype(np.float32), transposed)
            f64 = a._product_csr(np.dtype(np.float64), transposed)
            assert a._product_csr(np.dtype(np.float32), transposed) is f32
            assert np.shares_memory(f32.indices, f64.indices)
            assert np.shares_memory(f32.indptr, f64.indptr)
        assert a.weights.dtype == np.float64

    def test_aggregated_features_cached_per_relation_and_dtype(self):
        g = self._graph()
        block = row_plan(g, ["B"], 1).blocks[0]["B"]
        assert not block._aggregated
        for dtype in (np.float32, np.float64):
            feats = g.features_as(dtype)
            got = block.aggregated("A", feats)
            assert got is block.aggregated("A", g.features_as(np.dtype(dtype).name))
            assert got.dtype == dtype
            want = normalized_adjacency(g)[("A", "B")].matmul(feats["A"])
            assert got.tobytes() == want.tobytes()
        assert block.aggregated("A", g.features_as(np.float32)) is not block.aggregated(
            "A", g.features
        )
        assert set(block._aggregated) == {("A", np.dtype(np.float32)), ("A", np.dtype(np.float64))}
        a_block = row_plan(g, ["A"], 1).blocks[0]["A"]
        assert a_block.aggregated("B", g.features_as(np.float32)).shape == (4, 2)

    def test_caches_are_freed_with_their_owner(self):
        import gc
        import weakref

        g = self._graph()
        a = g.adjacency[("A", "B")]
        a.matmul(np.ones((a.n_cols, 2), dtype=np.float32))
        refs = [
            weakref.ref(g.features_as(np.float32)["A"]),
            weakref.ref(a._product_csr(np.dtype(np.float32), False).data),
            weakref.ref(normalized_adjacency(g)[("A", "B")]),
            weakref.ref(row_plan(g, ["B"], 1).blocks[0]["B"].aggregated("A", g.features)),
            weakref.ref(row_plan(g, {"B": [0]}, 2)),
        ]
        del g, a
        gc.collect()
        assert all(r() is None for r in refs)
