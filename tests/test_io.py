import io as stdio
import json
import pickle
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from hetconv.datagen import dblp_spec, generate, with_splits
from hetconv.graph import HinGraph, Schema, SparseAdj, validate_graph
from hetconv.io import (
    _load_edges,
    _load_features,
    atomic_write_text,
    load_graph,
    load_npz,
    save_graph,
    write_json,
    write_json_rows,
)

EXTREMES = np.array([[-0.0, 5e-324, 1e300], [3.0, -2.0, 0.1], [1e16, 1e17, 2.5]])


def npy_bytes(a: np.ndarray, allow_pickle: bool = False) -> bytes:
    buf = stdio.BytesIO()
    np.save(buf, a, allow_pickle=allow_pickle)
    return buf.getvalue()


def golden_graph() -> HinGraph:
    rows, cols, w = np.array([0, 2, 2]), np.array([1, 0, 1]), np.array([0.5, 5e-324, 7.0])
    return HinGraph(
        schema=Schema(("A", "B"), (("A", "B"), ("B", "A"))),
        adjacency={
            ("A", "B"): SparseAdj.from_edges(3, 2, rows, cols, w),
            ("B", "A"): SparseAdj.from_edges(2, 3, cols, rows, w),
        },
        features={"A": np.array([[1.0], [-0.0]]), "B": np.array([[1e300], [0.1], [-3.0]])},
        labels={"B": np.array([1, -1, 0])},
        class_counts={"B": 2},
        splits={"B": {"train": np.array([0]), "val": np.array([2]), "test": np.array([2])}},
    )


def _features_file(tmp_path, body: bytes):
    (tmp_path / "features_X.npy").write_bytes(body)
    return tmp_path / "features_X.npy"


class TestDenseRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        g = golden_graph()
        g.features["B"] = EXTREMES
        save_graph(tmp_path / "g", g)
        back = load_graph(tmp_path / "g").features["B"]
        assert back.dtype == np.float64
        assert back.tobytes() == EXTREMES.tobytes()

    def test_golden_bytes(self, tmp_path):
        g = golden_graph()
        g.features["B"] = EXTREMES
        save_graph(tmp_path / "g", g)
        raw = (tmp_path / "g" / "features_B.npy").read_bytes()
        assert raw == npy_bytes(EXTREMES)
        assert b"'descr': '<f8', 'fortran_order': False, 'shape': (3, 3)" in raw
        back = _load_features(tmp_path / "g" / "features_B.npy")
        assert np.signbit(back[0, 0])
        assert back[0, 1] == 5e-324 and back[0, 2] == 1e300

    def test_empty_matrix(self, tmp_path):
        assert _load_features(_features_file(tmp_path, npy_bytes(np.zeros((0, 4))))).shape == (0, 4)

    def test_header_mismatch_rejected(self, tmp_path):
        body = npy_bytes(EXTREMES).replace(b"(3, 3)", b"(4, 3)")
        with pytest.raises(ValueError, match="features_X.npy: not a readable NumPy file"):
            _load_features(_features_file(tmp_path, body))

    def test_non_finite_rejected(self, tmp_path):
        body = npy_bytes(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="features_X.npy: non-finite value"):
            _load_features(_features_file(tmp_path, body))

    def test_truncated_body_names_file(self, tmp_path):
        body = npy_bytes(EXTREMES)[:-5]
        with pytest.raises(ValueError, match="features_X.npy: not a readable NumPy file"):
            _load_features(_features_file(tmp_path, body))

    def test_bad_header_names_file(self, tmp_path):
        body = npy_bytes(EXTREMES)[:20]
        with pytest.raises(ValueError, match="features_X.npy: not a readable NumPy file"):
            _load_features(_features_file(tmp_path, body))

    @pytest.mark.parametrize(
        "body, check",
        [
            (b"", r"not a NumPy .npy or .npz file \(no NumPy magic\)"),
            (npy_bytes(np.array([[1.0, None]], dtype=object), allow_pickle=True),
             "not a readable NumPy file .*allow_pickle"),
            (pickle.dumps(EXTREMES), r"not a NumPy .npy or .npz file \(no NumPy magic\)"),
            (npy_bytes(EXTREMES).replace(b"(3, 3)", b"(3, 3 "), "not a readable NumPy file"),
            (npy_bytes(np.ones((2, 2), dtype=np.float32)), "dtype float32, expected float64"),
            (npy_bytes(np.ones(3)), r"shape \(3,\), expected 2-D"),
        ],
        ids=["empty", "object-array", "pickle", "unclosed-header", "float32", "1-D"],
    )
    def test_rejected_array_names_file(self, tmp_path, body, check):
        with pytest.raises(ValueError, match=f"features_X.npy: {check}"):
            _load_features(_features_file(tmp_path, body))

    def test_archive_is_not_an_array(self, tmp_path):
        with open(tmp_path / "features_X.npy", "wb") as f:
            np.savez(f, a=EXTREMES)
        with pytest.raises(ValueError, match="features_X.npy: an .npz archive"):
            _load_features(tmp_path / "features_X.npy")


def _one_member_archive(path, method=zipfile.ZIP_STORED) -> bytearray:
    with zipfile.ZipFile(path, "w", compression=method) as z:
        z.writestr("a.npy", npy_bytes(np.random.default_rng(0).normal(size=(50, 8))))
    return bytearray(path.read_bytes())


class TestArchives:
    @pytest.mark.parametrize("method", [zipfile.ZIP_DEFLATED, zipfile.ZIP_BZIP2, zipfile.ZIP_LZMA])
    def test_damaged_compressed_member_named(self, tmp_path, method):
        raw = _one_member_archive(tmp_path / "m.npz", method)
        raw[37] ^= 0xFF  # inside the compressed stream: the local header and name take 35 bytes
        (tmp_path / "m.npz").write_bytes(raw)
        with pytest.raises(ValueError, match="m.npz: not a readable NumPy file"):
            load_npz(tmp_path / "m.npz")

    @pytest.mark.parametrize("offset, value", [(10, 99), (8, 1)], ids=["method", "encrypted"])
    def test_unsupported_member_named(self, tmp_path, offset, value):
        raw = _one_member_archive(tmp_path / "m.npz")
        raw[raw.index(b"PK\x01\x02") + offset] = value  # a central directory field
        (tmp_path / "m.npz").write_bytes(raw)
        with pytest.raises(ValueError, match="m.npz: not a readable NumPy file"):
            load_npz(tmp_path / "m.npz")

    def test_member_without_npy_magic_rejected(self, tmp_path):
        with zipfile.ZipFile(tmp_path / "m.npz", "w") as z:
            z.writestr("a.npy", npy_bytes(EXTREMES))
            z.writestr("raw", b"not an array")
        with pytest.raises(ValueError, match="m.npz: member raw is not a .npy array"):
            load_npz(tmp_path / "m.npz")

    def test_single_array_is_not_an_archive(self, tmp_path):
        (tmp_path / "m.npz").write_bytes(npy_bytes(EXTREMES))
        with pytest.raises(ValueError, match="m.npz: a single .npy array"):
            load_npz(tmp_path / "m.npz")


class TestGraphRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path, toy_graph):
        save_graph(tmp_path / "g", toy_graph)
        back = load_graph(tmp_path / "g")
        assert back.schema == toy_graph.schema
        assert validate_graph(back) == []
        for rel, a in toy_graph.adjacency.items():
            b = back.adjacency[rel]
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.allclose(a.weights, b.weights)
        for t in toy_graph.features:
            assert np.array_equal(back.features[t], toy_graph.features[t])
        assert np.array_equal(back.labels["B"], toy_graph.labels["B"])
        for part in ("train", "val", "test"):
            assert np.array_equal(back.splits["B"][part], toy_graph.splits["B"][part])

    def test_saving_over_a_graph_removes_the_files_it_does_not_write(self, tmp_path, toy_graph):
        d = tmp_path / "g"
        dblp = with_splits(generate(dblp_spec(60)), 20.0, seed=0)
        save_graph(d, dblp)  # labels on A
        (d / "notes.txt").write_text("not a layout file")
        labeled_p = with_splits(generate(replace(dblp_spec(60), planted_path=("C", "P"))), 20.0)
        save_graph(d, labeled_p)
        back = load_graph(d)
        assert set(back.labels) == set(back.splits) == {"P"}
        assert validate_graph(back) == []
        assert not (d / "labels_A.tsv").exists() and not (d / "split_A.json").exists()
        # another schema: the DBLP types' features and relations go too
        save_graph(d, toy_graph)
        assert {p.name for p in d.iterdir()} == {
            "schema.json", "notes.txt", "features_A.npy", "features_B.npy",
            "edges_A_B.tsv", "edges_B_A.tsv", "labels_B.tsv", "split_B.json",
        }
        assert np.array_equal(load_graph(d).labels["B"], toy_graph.labels["B"])

    def test_parallel_edges_merge_by_summing(self, tmp_path, toy_graph):
        save_graph(tmp_path / "g", toy_graph)
        edges = tmp_path / "g" / "edges_A_B.tsv"
        first = edges.read_text().splitlines()[0]
        src, dst, w = first.split("\t")
        edges.write_text("\n".join([first] + edges.read_text().splitlines()) + "\n")
        back = load_graph(tmp_path / "g")
        merged = back.adjacency[("A", "B")].to_dense()[int(dst), int(src)]
        assert merged == pytest.approx(2 * float(w))

    def test_default_weight_is_one(self, tmp_path, toy_graph):
        save_graph(tmp_path / "g", toy_graph)
        edges = tmp_path / "g" / "edges_A_B.tsv"
        edges.write_text("0\t0\n")
        back = load_graph(tmp_path / "g")
        assert back.adjacency[("A", "B")].to_dense()[0, 0] == 1.0

    def test_missing_feature_file_named(self, tmp_path, toy_graph):
        save_graph(tmp_path / "g", toy_graph)
        (tmp_path / "g" / "features_A.npy").unlink()
        with pytest.raises(FileNotFoundError, match="features_A"):
            load_graph(tmp_path / "g")

    def test_old_tsv_layout_named(self, tmp_path, toy_graph):
        save_graph(tmp_path / "g", toy_graph)
        (tmp_path / "g" / "features_A.npy").unlink()
        (tmp_path / "g" / "features_A.tsv").write_text("3 2\n1 2\n3 4\n5 6\n")
        with pytest.raises(ValueError, match="features_A.tsv: features in the old dense-TSV"):
            load_graph(tmp_path / "g")

    def test_missing_edge_file_named(self, tmp_path, toy_graph):
        save_graph(tmp_path / "g", toy_graph)
        (tmp_path / "g" / "edges_B_A.tsv").unlink()
        with pytest.raises(FileNotFoundError, match="edges_B_A"):
            load_graph(tmp_path / "g")

    def test_unlabeled_objects_get_minus_one(self, tmp_path, toy_graph):
        save_graph(tmp_path / "g", toy_graph)
        (tmp_path / "g" / "labels_B.tsv").write_text("1\t1\n")
        back = load_graph(tmp_path / "g")
        assert list(back.labels["B"]) == [-1, 1, -1]


class TestGoldenGraph:
    def test_tsv_bytes(self, tmp_path):
        save_graph(tmp_path / "g", golden_graph())
        files = {p.name: p.read_bytes() for p in (tmp_path / "g").iterdir()}
        assert files["edges_A_B.tsv"] == b"1\t0\t0.5\n0\t2\t4.9406564584124654e-324\n1\t2\t7\n"
        assert files["edges_B_A.tsv"] == b"2\t0\t4.9406564584124654e-324\n0\t1\t0.5\n2\t1\t7\n"
        assert files["labels_B.tsv"] == b"0\t1\n2\t0\n"
        for t, want in golden_graph().features.items():
            got = np.load(tmp_path / "g" / f"features_{t}.npy", allow_pickle=False)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert np.signbit(np.load(tmp_path / "g" / "features_A.npy")[1, 0])

    def test_json_is_one_compact_line(self, tmp_path):
        save_graph(tmp_path / "g", golden_graph())
        schema = (tmp_path / "g" / "schema.json").read_text()
        assert schema == '{"types":["A","B"],"relations":[["A","B"],["B","A"]]}\n'
        split = json.loads((tmp_path / "g" / "split_B.json").read_text())
        assert split == {"train": [0], "val": [2], "test": [2]}

    def test_round_trip(self, tmp_path):
        g = golden_graph()
        save_graph(tmp_path / "g", g)
        back = load_graph(tmp_path / "g")
        for rel, a in g.adjacency.items():
            assert np.array_equal(back.adjacency[rel].to_dense(), a.to_dense())
        for t, f in g.features.items():
            assert np.array_equal(back.features[t], f)
            assert np.array_equal(np.signbit(back.features[t]), np.signbit(f))
        assert np.array_equal(back.labels["B"], g.labels["B"])
        assert back.class_counts == {"B": 2}


def _edge_case(tmp_path, toy_graph, text):
    save_graph(tmp_path / "g", toy_graph)
    (tmp_path / "g" / "edges_A_B.tsv").write_text(text)
    return tmp_path / "g"


class TestEdgeLoader:
    def test_mixed_field_counts_and_blank_lines(self, tmp_path, toy_graph):
        g = load_graph(_edge_case(tmp_path, toy_graph, "0\t1\t2.5\n\n  \n2\t0\n1\t1\t0.25\n"))
        want = np.zeros((3, 3))
        want[1, 0], want[0, 2], want[1, 1] = 2.5, 1.0, 0.25
        assert np.array_equal(g.adjacency[("A", "B")].to_dense(), want)

    def test_matches_line_by_line_reference(self, tmp_path):
        # distinct (source, target) pairs, so no sum depends on the order of addition
        rng = np.random.default_rng(3)
        cells = rng.choice(20 * 30, 200, replace=False)
        src, dst = (cells // 30).tolist(), (cells % 30).tolist()
        w = (np.abs(rng.normal(size=200)) * 10.0 ** rng.integers(-300, 300, 200)).tolist()
        text = "".join(f"{s}\t{d}\t{x!r}\n" for s, d, x in zip(src, dst, w))
        (tmp_path / "e.tsv").write_text(text)
        got = _load_edges(tmp_path / "e.tsv", 30, 20).to_dense()
        want = np.zeros((30, 20))
        for line in text.splitlines():
            s, d, x = line.split("\t")
            want[int(d), int(s)] += float(x)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "body, check",
        [
            ("0\t0\t1\n1.0\t2\t1\n", ":2: source index is not an integer: '1.0'"),
            ("0\t0\t1\n\n1\t2\tnan\n", ":3: non-finite weight"),
            ("0\t0\t1\n0\t3\t1\n", r":2: target index 3 out of range \[0, 3\)"),
            ("-1\t0\t1\n", r":1: source index -1 out of range \[0, 3\)"),
            ("0\t0\tx\n", ":1: weight is not a number: 'x'"),
            ("0\t0\t1\t4\n", ":1: expected 2 or 3 fields, got 4"),
            ("0\t0\t1\n1\t2\t0\n", ":2: non-positive weight 0.0"),
            ("0\t0\t-1\n", ":1: non-positive weight -1.0"),
        ],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, toy_graph, body, check):
        with pytest.raises(ValueError, match="edges_A_B.tsv" + check):
            load_graph(_edge_case(tmp_path, toy_graph, body))


class TestLabelLoader:
    @pytest.mark.parametrize(
        "body, check",
        [
            ("0\t1\n-1\t0\n", r":2: object index -1 out of range \[0, 3\)"),
            ("3\t0\n", r":1: object index 3 out of range \[0, 3\)"),
            ("0\t1\n\n1\t-2\n", ":3: negative class -2"),
            ("0\t1\n1 1\n", ":2: expected 2 fields, got 1"),
            ("0\tone\n", ":1: class is not an integer: 'one'"),
        ],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, toy_graph, body, check):
        save_graph(tmp_path / "g", toy_graph)
        (tmp_path / "g" / "labels_B.tsv").write_text(body)
        with pytest.raises(ValueError, match="labels_B.tsv" + check):
            load_graph(tmp_path / "g")

    def test_last_line_for_an_object_wins(self, tmp_path, toy_graph):
        save_graph(tmp_path / "g", toy_graph)
        (tmp_path / "g" / "labels_B.tsv").write_text("0\t1\n2\t0\n0\t3\n")
        assert list(load_graph(tmp_path / "g").labels["B"]) == [3, -1, 0]


class TestJsonFiles:
    @pytest.mark.parametrize(
        "body, check",
        [
            ('{"types": ["A", "B"', "Expecting"),
            ('{"types": ["A", "B"]}', "missing key 'relations'"),
            ('["A", "B"]', "list indices must be integers"),
        ],
    )
    def test_bad_schema_names_file(self, tmp_path, toy_graph, body, check):
        save_graph(tmp_path, toy_graph)
        (tmp_path / "schema.json").write_text(body)
        with pytest.raises(ValueError, match=f"schema.json: .*{check}"):
            load_graph(tmp_path)

    @pytest.mark.parametrize(
        "body, check",
        [
            ('{"train": [0,', "Expecting value"),
            ('[0, 1]', "expected an object of index lists"),
            ('{"train": [0.5]}', "split part 'train' is not a list of integer indices"),
            ('{"train": 0}', "split part 'train' is not a list of integer indices"),
        ],
    )
    def test_bad_split_names_file(self, tmp_path, toy_graph, body, check):
        save_graph(tmp_path, toy_graph)
        (tmp_path / "split_B.json").write_text(body)
        with pytest.raises(ValueError, match=f"split_B.json: {check}"):
            load_graph(tmp_path)


class TestWriteJson:
    def test_compact_single_line(self, tmp_path):
        obj = {"a": [1, 2.5, None], "b": {"c": "d"}}
        write_json(tmp_path / "x.json", obj)
        text = (tmp_path / "x.json").read_text()
        assert text == '{"a":[1,2.5,null],"b":{"c":"d"}}\n'
        assert json.loads(text) == obj

    @pytest.mark.parametrize("n_rows", [0, 1, 600])
    @pytest.mark.parametrize("head", [{}, {"target": "A", "global": [{"score": 0.5}]}])
    def test_rows_write_the_bytes_of_write_json(self, tmp_path, n_rows, head):
        # 600 rows span three write blocks
        rows = [[{"meta_path": ["P", "A"], "score": i / 7}] * (i % 3) for i in range(n_rows)]
        write_json(tmp_path / "whole.json", {**head, "per_object": rows})
        write_json_rows(
            tmp_path / "rows.json", head, "per_object",
            (json.dumps(r, separators=(",", ":")) for r in rows),
        )
        assert (tmp_path / "rows.json").read_bytes() == (tmp_path / "whole.json").read_bytes()


class TestAtomicWrite:
    def test_no_temp_files_left(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "hello")
        assert (tmp_path / "out.txt").read_text() == "hello"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_overwrite_replaces_content(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "one")
        atomic_write_text(tmp_path / "out.txt", "two")
        assert (tmp_path / "out.txt").read_text() == "two"
