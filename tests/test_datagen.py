import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetconv.datagen import (
    DBLP_EDGES,
    _window_edges,
    DegreeSpec,
    EdgeSpec,
    GenSpec,
    dblp_spec,
    generate,
    make_splits,
    planted_majority_vote,
    random_features,
    spec_from_json,
    with_splits,
)
from hetconv.graph import Schema, validate_graph


def small_spec(seed=0, noise=0.0, **kw):
    return GenSpec(
        counts={"A": 60, "P": 200, "C": 8, "T": 100},
        n_classes=4,
        noise=noise,
        seed=seed,
        feature_dim=16,
        **kw,
    )


class TestGenerate:
    def test_noiseless_labels_recoverable_by_majority_vote(self):
        for seed in range(3):
            g = generate(small_spec(seed=seed))
            vote = planted_majority_vote(g, ("C", "P", "A"), 4)
            assert np.array_equal(vote, g.labels["A"])

    def test_noise_flips_exact_fraction(self):
        g0 = generate(small_spec(seed=5))
        g1 = generate(small_spec(seed=5, noise=0.10))
        flipped = np.sum(g0.labels["A"] != g1.labels["A"])
        assert flipped == int(0.10 * 60)
        vote = planted_majority_vote(g1, ("C", "P", "A"), 4)
        accuracy = np.mean(vote == g1.labels["A"])
        assert accuracy >= 1.0 - 0.10

    def test_generated_graph_validates(self):
        g = generate(small_spec(seed=1))
        assert validate_graph(g) == []

    def test_same_seed_identical_graph(self):
        a = generate(small_spec(seed=9))
        b = generate(small_spec(seed=9))
        for rel in a.adjacency:
            assert np.array_equal(a.adjacency[rel].indices, b.adjacency[rel].indices)
            assert np.array_equal(a.adjacency[rel].weights, b.adjacency[rel].weights)
        for t in a.features:
            assert np.array_equal(a.features[t], b.features[t])
        assert np.array_equal(a.labels["A"], b.labels["A"])

    def test_different_seed_differs(self):
        a = generate(small_spec(seed=1))
        b = generate(small_spec(seed=2))
        assert any(
            not np.array_equal(a.adjacency[r].indices, b.adjacency[r].indices)
            for r in a.adjacency
        )

    def test_reference_scale_tuple(self):
        # counts are exact; the link count approximates the reference
        # tuple (800, 6183, 21308) within ten percent
        spec = GenSpec(
            counts={"A": 800, "P": 3100, "C": 20, "T": 2263},
            n_classes=4,
            seed=0,
        )
        g = generate(spec)
        assert g.n_objects("A") == 800
        assert g.total_objects() == 6183
        assert abs(g.total_links() - 21308) / 21308 < 0.10

    def test_size_scales_linearly_with_counts(self):
        base = small_spec(seed=3)
        g1 = generate(base)
        scaled = GenSpec(
            counts={t: 4 * n for t, n in base.counts.items()},
            n_classes=4,
            seed=3,
            feature_dim=16,
        )
        g4 = generate(scaled)
        ratio = (g4.total_objects() + g4.total_links()) / (
            g1.total_objects() + g1.total_links()
        )
        assert 4 * 0.85 <= ratio <= 4 * 1.15

    def test_counts_too_small_error(self):
        tiny = GenSpec(
            counts={"A": 10, "P": 6, "C": 4, "T": 5},
            n_classes=4,
            seed=0,
            edges=(
                EdgeSpec("P", "C", DegreeSpec(dist="const", value=1)),
                EdgeSpec("A", "P", DegreeSpec(dist="const", value=11)),
                EdgeSpec("P", "T", DegreeSpec(dist="const", value=1)),
            ),
        )
        with pytest.raises(ValueError, match="too small"):
            generate(tiny)

    def test_anchor_needs_every_class(self):
        with pytest.raises(ValueError):
            generate(
                GenSpec(counts={"A": 10, "P": 20, "C": 2, "T": 5}, n_classes=4, seed=0)
            )

    def test_planted_path_must_be_declared(self):
        with pytest.raises(ValueError, match="planted path"):
            small_spec(planted_path=("T", "A"))

    def test_informative_features_flag(self):
        plain = generate(small_spec(seed=4))
        informative = generate(small_spec(seed=4, informative_features=True))
        assert not np.array_equal(plain.features["A"], informative.features["A"])
        assert np.array_equal(plain.features["P"], informative.features["P"])


# specs generate cannot honour, and the message naming the culprit
UNWIRABLE_SPECS = [
    ("count-for-undeclared-type",
     dict(counts={"A": 60, "P": 200, "C": 8, "T": 100, "Z": 5}),
     "counts['Z']: 'Z' is not a declared type"),
    ("edge-picks-undeclared-type",
     dict(edges=DBLP_EDGES + (EdgeSpec("A", "Z"),)),
     "edges[3]: picked 'Z' is not a declared type"),
    ("edge-without-relation",
     dict(edges=DBLP_EDGES + (EdgeSpec("A", "T"),)),
     "edges[3]: no relation between A and T is declared"),
    ("pair-wired-twice",
     dict(edges=DBLP_EDGES + (EdgeSpec("P", "A"),)),
     "edges[3]: P and A are already wired by edges[1]"),
]


class TestGenSpecChecks:
    @pytest.mark.parametrize(
        "overrides, message", [pytest.param(o, m, id=i) for i, o, m in UNWIRABLE_SPECS]
    )
    def test_unwirable_spec_is_rejected(self, overrides, message):
        with pytest.raises(ValueError) as err:
            GenSpec(**{"counts": {"A": 60, "P": 200, "C": 8, "T": 100}, **overrides})
        assert str(err.value) == message

    def test_powerlaw_degree_range_checked_at_construction(self):
        with pytest.raises(ValueError, match="min_degree must be <= max_degree, got 5 > 3"):
            DegreeSpec(dist="powerlaw", min_degree=5, max_degree=3)

    def test_const_degree_ignores_the_range(self):
        assert DegreeSpec(dist="const", value=2, min_degree=5, max_degree=3).value == 2

    def test_one_direction_declared_builds_one_adjacency(self):
        # (C, P) is declared but (P, C) is not: the P->C edge spec wires
        # only the declared direction, and the graph validates
        schema = Schema(
            object_types=("P", "A", "C", "T"),
            relations=(("C", "P"), ("A", "P"), ("P", "A"), ("T", "P"), ("P", "T")),
        )
        g = generate(small_spec(seed=1, schema=schema))
        assert set(g.adjacency) == set(schema.relations)
        assert validate_graph(g) == []
        full = generate(small_spec(seed=1))
        assert np.array_equal(g.adjacency[("C", "P")].indices, full.adjacency[("C", "P")].indices)


class TestMakeSplits:
    def test_twenty_percent_protocol(self):
        spec = GenSpec(counts={"A": 100, "P": 300, "C": 8, "T": 100}, n_classes=4, seed=0, feature_dim=8)
        g = generate(spec)
        splits = make_splits(g, 20.0, seed=0)["A"]
        assert (len(splits["train"]), len(splits["val"]), len(splits["test"])) == (20, 40, 40)

    def test_eighty_percent_protocol(self):
        spec = GenSpec(counts={"A": 100, "P": 300, "C": 8, "T": 100}, n_classes=4, seed=0, feature_dim=8)
        g = generate(spec)
        splits = make_splits(g, 80.0, seed=0)["A"]
        assert (len(splits["train"]), len(splits["val"]), len(splits["test"])) == (80, 10, 10)

    @given(st.integers(10, 200), st.sampled_from([20.0, 40.0, 60.0, 80.0, 33.0]))
    @settings(max_examples=20, deadline=None)
    def test_partition_properties(self, n, frac):
        spec = GenSpec(
            counts={"A": n, "P": 3 * n + 30, "C": 8, "T": 40},
            n_classes=4, seed=1, feature_dim=4,
        )
        g = generate(spec)
        splits = make_splits(g, frac, seed=2)["A"]
        union = np.concatenate([splits["train"], splits["val"], splits["test"]])
        assert len(union) == len(set(union.tolist())) == n
        assert abs(len(splits["val"]) - len(splits["test"])) <= 1

    def test_too_few_labeled(self):
        spec = GenSpec(counts={"A": 2, "P": 30, "C": 4, "T": 10}, n_classes=2, seed=0, feature_dim=4)
        g = generate(spec)
        with pytest.raises(ValueError, match="at least 3"):
            make_splits(g, 50.0, seed=0)

    def test_fraction_range(self, toy_graph):
        with pytest.raises(ValueError, match="percentage"):
            make_splits(toy_graph, 0.0, seed=0)

    def test_with_splits_attaches(self):
        g = with_splits(generate(small_spec(seed=2)), 40.0, seed=2)
        assert set(g.splits["A"]) == {"train", "val", "test"}


class TestRandomFeatures:
    def test_delegates_to_xavier(self):
        m = random_features(50, 20, seed=0, label="A")
        bound = np.sqrt(6.0 / 70)
        assert np.abs(m).max() <= bound
        assert m.shape == (50, 20)

    def test_deterministic_per_label(self):
        assert np.array_equal(
            random_features(5, 4, seed=1, label="A"),
            random_features(5, 4, seed=1, label="A"),
        )
        assert not np.array_equal(
            random_features(5, 4, seed=1, label="A"),
            random_features(5, 4, seed=1, label="B"),
        )

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            random_features(0, 4, seed=0)


class TestSpecFromJson:
    def test_round_trip_of_fields(self):
        obj = {
            "counts": {"A": 60, "P": 200, "C": 8, "T": 100},
            "n_classes": 4,
            "noise": 0.05,
            "feature_dim": 16,
            "seed": 3,
            "planted_path": ["C", "P", "A"],
            "edges": [
                {"picker": "P", "picked": "C", "dist": "const", "value": 1},
                {"picker": "A", "picked": "P", "dist": "powerlaw", "exponent": 2.0,
                 "min_degree": 2, "max_degree": 20},
                {"picker": "P", "picked": "T", "dist": "powerlaw"},
            ],
        }
        spec = spec_from_json(obj)
        assert spec.noise == 0.05
        assert spec.planted_path == ("C", "P", "A")
        assert spec.edges[1].degree.min_degree == 2
        generate(spec)  # wires without error

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            spec_from_json({"counts": {"A": 5}, "typo_key": 1})

    def test_dblp_spec_helper(self):
        spec = dblp_spec(100, seed=7)
        assert spec.counts["A"] == 100
        assert spec.counts["C"] == 20
        g = generate(spec)
        assert validate_graph(g) == []


def _loop_windows(pool, sizes, rng):
    """Reference: the per-window loop ``_window_edges`` replaces."""
    perm = rng.permutation(pool)
    n, pos, out = len(perm), 0, []
    for size in sizes:
        end = pos + int(min(size, n))
        out.append(perm[pos:end] if end <= n else np.concatenate([perm[pos:], perm[: end - n]]))
        pos = end % n
    return out


@given(
    st.integers(1, 12),
    st.lists(st.integers(0, 30), max_size=20),
    st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_window_edges_match_the_window_loop(n, sizes, seed):
    """One gather deals the same windows, in the same order and from the
    same draw, as cutting consecutive slices off the permutation."""
    pool = np.arange(100, 100 + n)
    sizes = np.array(sizes, dtype=np.int64)
    owners = np.arange(len(sizes)) * 7
    got_owner, got_pick = _window_edges(pool, owners, sizes, np.random.default_rng(seed))
    windows = _loop_windows(pool, sizes, np.random.default_rng(seed))
    assert np.array_equal(got_owner, np.repeat(owners, [len(w) for w in windows]))
    assert np.array_equal(got_pick, np.concatenate([np.empty(0, np.int64), *windows]))


def _graph_digest(g) -> str:
    """sha256 over the schema, each relation's shape and CSR arrays, the
    features and the labels; index arrays hash as int64 so scipy's choice
    of index dtype does not enter."""
    h = hashlib.sha256(json.dumps(g.schema.to_json()).encode())

    def add(a, dtype):
        a = np.ascontiguousarray(a, dtype=dtype)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())

    for rel in sorted(g.adjacency):
        adj = g.adjacency[rel]
        h.update(repr((rel, adj.n_rows, adj.n_cols)).encode())
        add(adj.indptr, np.int64)
        add(adj.indices, np.int64)
        add(adj.weights, np.float64)
    for t in sorted(g.features):
        h.update(t.encode())
        add(g.features[t], np.float64)
    for t in sorted(g.labels):
        h.update(t.encode())
        add(g.labels[t], np.int64)
    return h.hexdigest()


# the criterion-6 graph of the acceptance gate
PLANTED_EDGES = (
    EdgeSpec("P", "C", DegreeSpec(dist="const", value=1)),
    EdgeSpec("A", "P", DegreeSpec(dist="powerlaw", exponent=2.0, min_degree=4, max_degree=40)),
    EdgeSpec("P", "T", DegreeSpec(dist="powerlaw", exponent=2.5, min_degree=1, max_degree=40)),
)


def _planted(seed):
    return GenSpec(
        counts={"A": 800, "P": 2500, "C": 20, "T": 1680},
        n_classes=4, noise=0.05, seed=seed, edges=PLANTED_EDGES,
    )


# degrees above the pool: P->T windows (45 of 30) clamp and wrap around the
# permutation, and P->C's extra same-class parents (4 of a 2-object class)
# clamp inside the planted hop
CLAMPED = GenSpec(
    counts={"A": 60, "P": 200, "C": 8, "T": 30},
    n_classes=4, seed=2, feature_dim=8,
    edges=(
        EdgeSpec("P", "C", DegreeSpec(dist="const", value=5)),
        EdgeSpec("A", "P", DegreeSpec(dist="powerlaw", exponent=2.0, min_degree=1, max_degree=30)),
        EdgeSpec("P", "T", DegreeSpec(dist="const", value=45)),
    ),
)

# fewer target objects than classes: two classes have no A members, and
# their (empty) windows still draw
EMPTY_CLASSES = GenSpec(counts={"A": 2, "P": 40, "C": 4, "T": 10}, n_classes=4, seed=5, feature_dim=4)

GOLDEN = [
    ("dblp60-seed0", dblp_spec(60, seed=0),
     "f3d7fed445a638a1e75934147d3e78a181ab4cbc1cd9ee0d8391e7af2b8943da"),
    ("dblp60-seed1", dblp_spec(60, seed=1),
     "8374cb936ad9ed2187ee2115cefa9e138275f8fcc56c8ee167bd05059f5cd188"),
    ("dblp235-seed0", dblp_spec(235, seed=0),
     "5aa6cfbf52b6fa9ef374cf4b5de74247f9086dcc7141807da7f772d6841cf3aa"),
    ("dblp235-seed1", dblp_spec(235, seed=1),
     "0df01d3be4bb7f1eea7c24aee63349d0f6c6598deea688fc58b280176f1aca02"),
    ("planted-seed0", _planted(0),
     "c0fafdc49a9914f37765cb5e6de79e6c95733a573d5ae5a47234d22df8d19b6a"),
    ("planted-seed22001", _planted(22001),
     "00c5b074128031592f1f716910fd43f00818f2fe087b8e44a37180824ac088f4"),
    ("planted-seed1375952737001", _planted(1375952737001),
     "ef0ece0951410b7505a86282c232b2b7b00d998f0014d3e51a1b1738a1ea1195"),
    ("clamped-wrapped", CLAMPED,
     "fbe841e24ff3e797db04a1637c995ab982f0a61b9c6b1608b2062ec1e306fa05"),
    ("empty-classes", EMPTY_CLASSES,
     "e55a6c5524887ee083acdfe76c11385dc09cb33217d0fef3574b5845a8b5c423"),
    ("noise0.2-informative", small_spec(seed=7, noise=0.2, informative_features=True),
     "439776792c093dad630f340e4497d09dc69f46e8e4ba6b88752e5d683017f540"),
]


@pytest.mark.parametrize("spec, want", [pytest.param(s, d, id=i) for i, s, d in GOLDEN])
def test_generated_graphs_match_golden_digests(spec, want):
    """A generated graph is a pure function of its spec: any change to the
    wiring, the draws or their order shows up here."""
    assert _graph_digest(generate(spec)) == want
