import json

import numpy as np
import pytest

from hetconv.graph import HinGraph, Schema, SparseAdj, row_normalize
from hetconv.interpret import (
    AttentionSummary,
    ChoiceSequence,
    enumerate_choice_sequences,
    per_object_json,
    per_object_masses,
    per_object_scores,
    score_meta_paths,
    summarize_attention,
    summary_from_json,
    summary_to_json,
)
from hetconv.model import forward
from hetconv.train import TrainConfig, build_params

from conftest import array_digest, dblp_reference_summary, random_hin, six_layer_case


# --- brute-force oracles ---------------------------------------------------


def walk_count(schema: Schema, target: str, n_layers: int) -> int:
    """Walks of length n_layers - 1 from the target in the reversed schema
    graph with a self-loop at every node."""
    types = list(schema.object_types)
    idx = {t: i for i, t in enumerate(types)}
    m = np.eye(len(types), dtype=np.int64)
    for src, dst in schema.relations:
        m[idx[dst], idx[src]] += 1
    counts = np.zeros(len(types), dtype=np.int64)
    counts[idx[target]] = 1
    for _ in range(n_layers - 1):
        counts = m.T @ counts
    return int(counts.sum())


def brute_force_object_scores(g, records, target):
    """Enumerate every object-level path instance from every target object,
    multiplying attention coefficients and normalized link weights.

    A dummy-self step keeps the path unchanged; a relation step prepends
    nothing but marks that the upper block's type enters the meta-path.
    """
    norm = {rel: row_normalize(a).to_dense() for rel, a in g.adjacency.items()}
    out = [dict() for _ in range(g.n_objects(target))]
    for root in range(g.n_objects(target)):
        # (block, object, transitions left, mass, hop types upper-first)
        stack = [(target, root, len(records), 1.0, ())]
        while stack:
            block, obj, level, mass, hops = stack.pop()
            if mass == 0.0:
                continue
            if level == 0:
                key = (block,) + tuple(reversed(hops))
                out[root][key] = out[root].get(key, 0.0) + mass
                continue
            att = records[level - 1][block]
            stack.append((block, obj, level - 1, mass * att[obj, 0], hops))
            for j, gamma in enumerate(g.schema.neighbor_types(block)):
                a_hat = norm[(gamma, block)]
                coeff = att[obj, 1 + j]
                if coeff == 0.0:
                    continue
                for src in np.nonzero(a_hat[obj])[0]:
                    stack.append(
                        (gamma, int(src), level - 1,
                         mass * coeff * a_hat[obj, src], hops + (block,))
                    )
    return out


def oracle_rows(prefixes, masses, top_k):
    """Each object's per-object list as ``hetconv explain`` once built it: a
    dict per nonzero (path, mass), sorted by descending score, cut to
    ``top_k``, then encoded by ``json``."""
    rows = []
    for i in range(masses.shape[1]):
        scores = {p: float(m[i]) for p, m in zip(prefixes, masses) if m[i] != 0}
        entries = sorted(
            ({"meta_path": list(p), "score": s} for p, s in scores.items()),
            key=lambda e: -e["score"],
        )[: top_k or None]
        rows.append(json.dumps(entries, separators=(",", ":")))
    return rows


def forward_records(g, seed=0, widths=(3, 2), d_a=2):
    params = build_params(g, TrainConfig(layer_widths=widths, d_a=d_a, seed=seed))
    _, records = forward(params, g)
    return records


# --- tests -------------------------------------------------------------------


class TestSummarizeAttention:
    def test_identical_rows_mean_is_any_row(self, toy_graph):
        records = [{"B": np.tile([0.3, 0.7], (4, 1)), "A": np.tile([0.5, 0.5], (3, 1))}]
        summary = summarize_attention(records, toy_graph.schema)
        assert np.allclose(summary.tables[0]["B"], [0.3, 0.7])

    def test_uniform_everywhere_stays_uniform(self, toy_graph):
        records = [{t: np.full((3, 2), 0.5) for t in ("A", "B")}]
        summary = summarize_attention(records, toy_graph.schema)
        for vec in summary.tables[0].values():
            assert np.allclose(vec, 0.5)

    def test_real_forward_summary_is_stochastic(self):
        g = random_hin(0)
        summary = summarize_attention(forward_records(g), g.schema)
        for table in summary.tables:
            for vec in table.values():
                assert abs(vec.sum() - 1.0) < 1e-6

    def test_invalid_mean_rejected(self, dblp_schema):
        with pytest.raises(ValueError, match="probability"):
            AttentionSummary(dblp_schema, ({"C": np.array([0.9, 0.9])},))

    @pytest.mark.parametrize("vec", [[np.nan, np.nan], [np.nan, 1.0]])
    def test_non_finite_mean_rejected(self, dblp_schema, vec):
        # NaN passes both the sum and the sign comparison
        with pytest.raises(ValueError, match="transition 1-2 block C: mean attention"):
            AttentionSummary(dblp_schema, ({"C": np.array(vec)},))

    def test_json_round_trip(self, dblp_schema):
        summary = dblp_reference_summary(dblp_schema)
        back = summary_from_json(summary_to_json(summary))
        assert back.schema == summary.schema
        for a, b in zip(back.tables, summary.tables):
            assert set(a) == set(b)
            for k in a:
                assert np.allclose(a[k], b[k])


class TestEnumerateChoiceSequences:
    def test_two_layer_dblp_target_a(self, dblp_schema):
        seqs = enumerate_choice_sequences(dblp_schema, "A", 2)
        assert [s.choices for s in seqs] == [(None,), ("P",)]
        assert [s.meta_path() for s in seqs] == [("A",), ("P", "A")]

    def test_counts_match_walk_oracle(self, dblp_schema):
        for target in dblp_schema.object_types:
            for n_layers in (2, 3, 4, 5):
                seqs = enumerate_choice_sequences(dblp_schema, target, n_layers)
                assert len(seqs) == walk_count(dblp_schema, target, n_layers)

    def test_five_layer_dblp_has_six_cpa_contributors(self, dblp_schema):
        seqs = enumerate_choice_sequences(dblp_schema, "A", 5)
        cpa = [s for s in seqs if s.meta_path() == ("C", "P", "A")]
        assert len(cpa) == 6

    def test_unknown_target(self, dblp_schema):
        with pytest.raises(KeyError, match="X"):
            enumerate_choice_sequences(dblp_schema, "X", 3)

    def test_needs_two_layers(self, dblp_schema):
        with pytest.raises(ValueError, match="2 layers"):
            enumerate_choice_sequences(dblp_schema, "A", 1)

    def test_real_self_relation_kept_as_hop(self):
        schema = Schema(("A", "B"), (("A", "A"), ("A", "B"), ("B", "A")))
        seqs = enumerate_choice_sequences(schema, "A", 2)
        paths = {s.meta_path() for s in seqs}
        # dummy self collapses to (A,), the real self-relation hop stays AA
        assert ("A",) in paths and ("A", "A") in paths and ("B", "A") in paths


class TestScoreMetaPaths:
    def test_reference_products(self, dblp_schema):
        ranked = score_meta_paths(dblp_reference_summary(dblp_schema), "A")
        by_path = {r.meta_path: r for r in ranked}
        cpa = by_path[("C", "P", "A")]
        contributor_scores = sorted(c.score for c in cpa.contributors)
        want = sorted([0.0748, 0.0242, 0.0332, 0.0373, 0.1151, 0.1382])
        assert np.allclose(contributor_scores, want, atol=1e-4)
        assert cpa.score == pytest.approx(0.4228, abs=1e-4)
        assert by_path[("C", "P", "T", "P", "A")].score == pytest.approx(0.1098, abs=1e-4)
        assert by_path[("C", "P", "A", "P", "A")].score == pytest.approx(0.0935, abs=1e-4)
        assert by_path[("C", "P", "C", "P", "A")].score == pytest.approx(0.0736, abs=1e-4)

    def test_scores_form_probability_tree(self, dblp_schema):
        ranked = score_meta_paths(dblp_reference_summary(dblp_schema), "A")
        assert abs(sum(r.score for r in ranked) - 1.0) < 1e-9

    def test_sum_one_for_real_forward(self):
        for seed in range(5):
            g = random_hin(seed)
            summary = summarize_attention(forward_records(g, seed=seed), g.schema)
            for target in g.schema.object_types:
                total = sum(r.score for r in score_meta_paths(summary, target))
                assert abs(total - 1.0) < 1e-9

    def test_uniform_summary_scores_by_contributor_count(self, dblp_schema):
        tables = []
        for _ in range(2):
            table = {}
            for omega in dblp_schema.object_types:
                k = 1 + len(dblp_schema.neighbor_types(omega))
                table[omega] = np.full(k, 1.0 / k)
            tables.append(table)
        summary = AttentionSummary(dblp_schema, tuple(tables))
        ranked = score_meta_paths(summary, "A")
        # every choice sequence in an A-rooted 3-layer tree scores 1/2 * 1/2
        # except those passing through the P block (1/4 per P choice)
        for r in ranked:
            for c in r.contributors:
                blocks = c.blocks()[:-1]
                want = 1.0
                for b in blocks:
                    want *= 1.0 / (1 + len(dblp_schema.neighbor_types(b)))
                assert c.score == pytest.approx(want)
            assert r.score == pytest.approx(sum(c.score for c in r.contributors))

    def test_ranking_deterministic_and_tie_broken_lexicographically(self, dblp_schema):
        summary = dblp_reference_summary(dblp_schema)
        a = score_meta_paths(summary, "A")
        b = score_meta_paths(summary, "A")
        assert [r.meta_path for r in a] == [r.meta_path for r in b]
        scores = [r.score for r in a]
        assert scores == sorted(scores, reverse=True)
        for x, y in zip(a, a[1:]):
            if x.score == y.score:
                assert x.meta_path < y.meta_path

    def test_missing_block_raises(self, dblp_schema):
        tables = ({"A": np.array([0.5, 0.5])},) * 2  # P block absent
        with pytest.raises(KeyError, match="no block P"):
            score_meta_paths(AttentionSummary(dblp_schema, tables), "A")


class TestPerObjectScores:
    def test_single_chain_graph(self):
        # one C -> one P -> one A, three layers: only one path instance
        schema = Schema(("C", "P", "A"), (("C", "P"), ("P", "A")))
        one = SparseAdj.from_edges(1, 1, [0], [0], [1.0])
        g = HinGraph(
            schema=schema,
            adjacency={("C", "P"): one, ("P", "A"): one},
            features={t: np.ones((1, 2)) for t in ("C", "P", "A")},
        )
        records = [
            {"A": np.array([[0.3, 0.7]]), "P": np.array([[0.4, 0.6]]), "C": np.array([[1.0]])},
            {"A": np.array([[0.2, 0.8]]), "P": np.array([[0.5, 0.5]]), "C": np.array([[1.0]])},
        ]
        scores = per_object_scores(g, records, "A")
        # CPA: choose P at the top (0.8), then C in the P block (0.6)
        assert scores[0][("C", "P", "A")] == pytest.approx(0.8 * 0.6)
        assert sum(scores[0].values()) == pytest.approx(1.0)

    def test_matches_brute_force_on_tiny_graphs(self):
        for seed in range(6):
            g = random_hin(seed)
            records = forward_records(g, seed=seed)
            fast = per_object_scores(g, records, "A")
            slow = brute_force_object_scores(g, records, "A")
            assert len(fast) == len(slow)
            for f, s in zip(fast, slow):
                keys = set(f) | set(s)
                for k in keys:
                    assert f.get(k, 0.0) == pytest.approx(s.get(k, 0.0), abs=1e-9)

    def test_mass_sums_to_one_without_isolated_objects(self, toy_graph):
        records = forward_records(toy_graph, widths=(3, 2))
        for scores in per_object_scores(toy_graph, records, "B"):
            assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)

    def test_no_neighbor_means_no_relation_mass(self):
        schema = Schema(("A", "B"), (("A", "B"),))
        # object 1 of B has no A neighbors
        adj = SparseAdj.from_edges(2, 2, [0, 0], [0, 1], [1.0, 1.0])
        g = HinGraph(
            schema=schema,
            adjacency={("A", "B"): adj},
            features={"A": np.ones((2, 2)), "B": np.ones((2, 2))},
        )
        records = [{"B": np.array([[0.5, 0.5], [0.5, 0.5]]), "A": np.array([[1.0], [1.0]])}]
        scores = per_object_scores(g, records, "B")
        assert ("A", "B") in scores[0]
        assert ("A", "B") not in scores[1]

    def test_global_equals_per_object_mean_for_identical_rows(self):
        # constant attention rows and no isolated objects: the global
        # product approximation is exact
        g = random_hin(1)  # seed chosen so no object is isolated
        records = []
        for _ in range(2):
            layer = {}
            for t in g.schema.object_types:
                k = 1 + len(g.schema.neighbor_types(t))
                row = np.arange(1.0, k + 1)
                row /= row.sum()
                layer[t] = np.tile(row, (g.n_objects(t), 1))
            records.append(layer)
        assert not any((a.row_sums() == 0).any() for a in g.adjacency.values())
        summary = summarize_attention(records, g.schema)
        global_scores = {r.meta_path: r.score for r in score_meta_paths(summary, "A")}
        per_obj = per_object_scores(g, records, "A")
        for path, score in global_scores.items():
            for obj_scores in per_obj:
                assert obj_scores.get(path, 0.0) == pytest.approx(score, abs=1e-9)

    def test_records_of_the_target_ancestors_suffice(self):
        g = random_hin(3)
        params = build_params(g, TrainConfig(layer_widths=(3, 3, 2), d_a=2, seed=3))
        _, full = forward(params, g)
        _, live = forward(params, g, outputs=["A"])
        assert [set(layer) for layer in live] == [{"P", "A", "C"}, {"P", "A"}, {"A"}]
        assert per_object_scores(g, live, "A") == per_object_scores(g, full, "A")

    def test_truncation_counts_only_prefixes_reaching_the_target(self):
        import warnings

        # nothing reads B, so its two prefixes per layer cannot reach A
        schema = Schema(("A", "B"), (("A", "B"),))
        adj = SparseAdj.from_edges(2, 2, [0, 1], [0, 1], [1.0, 1.0])
        g = HinGraph(
            schema=schema,
            adjacency={("A", "B"): adj},
            features={"A": np.ones((2, 2)), "B": np.ones((2, 2))},
        )
        layer = {"A": np.ones((2, 1)), "B": np.full((2, 2), 0.5)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert per_object_scores(g, [layer, layer], "A", max_tracked=1) == [{("A",): 1.0}] * 2
        with pytest.warns(RuntimeWarning, match="truncated 1 prefixes"):
            per_object_scores(g, [layer, layer], "B", max_tracked=1)

    def test_truncation_warns_with_dropped_mass(self):
        g = random_hin(1)
        records = forward_records(g, widths=(3, 3, 2), seed=1)
        with pytest.warns(RuntimeWarning, match="total mass"):
            per_object_scores(g, records, "A", max_tracked=2)

    def test_sequence_meta_path_reading(self):
        seq = ChoiceSequence(target="A", choices=(None, None, "P", "C"))
        assert seq.blocks() == ("A", "A", "A", "P", "C")
        assert seq.meta_path() == ("C", "P", "A")


class TestPerObjectMasses:
    @pytest.mark.parametrize("max_tracked", [256, 2])
    def test_scores_are_the_dict_view_of_masses(self, max_tracked):
        import warnings

        for seed in range(6):
            g = random_hin(seed)
            records = forward_records(g, widths=(3, 3, 2), seed=seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                prefixes, masses = per_object_masses(g, records, "A", max_tracked)
                scores = per_object_scores(g, records, "A", max_tracked)
            assert masses.shape == (len(prefixes), g.n_objects("A"))
            assert len(prefixes) <= max_tracked
            view = [
                {p: float(m[i]) for p, m in zip(prefixes, masses) if m[i] != 0}
                for i in range(masses.shape[1])
            ]
            assert scores == view
            # the same prefix order, not only the same mapping
            assert [list(s) for s in scores] == [list(v) for v in view]

    def test_truncated_prefixes_follow_descending_total_mass(self):
        g = random_hin(1)
        records = forward_records(g, widths=(3, 3, 2), seed=1)
        with pytest.warns(RuntimeWarning, match="truncated"):
            prefixes, masses = per_object_masses(g, records, "A", max_tracked=2)
        totals = masses.sum(axis=1)
        assert len(prefixes) == 2
        assert sorted(zip(-totals, prefixes)) == list(zip(-totals, prefixes))

    def test_no_transitions_leave_the_target_alone(self):
        g = random_hin(0)
        prefixes, masses = per_object_masses(g, [], "A")
        assert prefixes == [("A",)] and masses.tolist() == [[1.0] * g.n_objects("A")]

    # sha256 of (prefixes, masses) for six_layer_case(seed), target A
    GOLDEN = {
        0: "ba9c048a1b47f5de2278e05abd80745adb4f1f2218282d84685ce62b782beaab",
        1: "ddcdd459073b5fb9d8cc154c2989964c7447324449ce0eb4b4b21714d622b53d",
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_masses_match_golden_digests(self, seed):
        """The masses of the pass ``explain`` runs are a pure function of
        the graph and the parameters."""
        g, params = six_layer_case(seed)
        _, records = forward(params, g, outputs=["A"])
        prefixes, masses = per_object_masses(g, records, "A")
        assert len(prefixes) == 26
        assert array_digest([list(p) for p in prefixes], masses) == self.GOLDEN[seed]


class TestPerObjectJson:
    PREFIXES = [("A",), ("P", "A"), ("C", "P", "A"), ("A", "P", "A")]
    # objects: a four-way tie, a tie below a larger mass, no mass at all,
    # a single path, zeros between nonzero masses, and a negative mass that
    # ranks below the zeros skipped before the top-k cut
    MASSES = np.array(
        [
            [0.25, 0.5, 0.0, 0.0, 0.1, -0.1],
            [0.25, 0.25, 0.0, 0.0, 0.0, 0.0],
            [0.25, 0.25, 0.0, 1.0, 0.9, 0.5],
            [0.25, 0.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )

    @pytest.mark.parametrize("top_k", [0, 1, 2, 10])
    def test_matches_the_dict_oracle_byte_for_byte(self, top_k):
        rows = list(per_object_json(self.PREFIXES, self.MASSES, top_k))
        assert rows == oracle_rows(self.PREFIXES, self.MASSES, top_k)
        assert rows[2] == "[]"
        # ties keep prefix order
        assert [e["meta_path"] for e in json.loads(rows[0])] == [
            list(p) for p in self.PREFIXES
        ][: top_k or None]

    @pytest.mark.parametrize("max_tracked", [256, 2])
    @pytest.mark.parametrize("top_k", [0, 1, 3, 100])
    def test_matches_the_oracle_on_dp_output(self, max_tracked, top_k):
        import warnings

        for seed in range(4):
            g = random_hin(seed)
            records = forward_records(g, widths=(3, 3, 2), seed=seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                prefixes, masses = per_object_masses(g, records, "A", max_tracked)
            rows = list(per_object_json(prefixes, masses, top_k))
            assert rows == oracle_rows(prefixes, masses, top_k)

    def test_non_finite_mass_raises(self):
        masses = self.MASSES.copy()
        masses[1, 3] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            list(per_object_json(self.PREFIXES, masses))
