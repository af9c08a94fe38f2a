"""On-disk layout for graphs, dense matrices, and run artifacts.

A graph directory holds:
  schema.json            {"types": [...], "relations": [["A","P"], ...]}
  edges_<SRC>_<DST>.tsv  src_index<TAB>dst_index[<TAB>weight], 0-based
  features_<TYPE>.tsv    header "rows cols", then rows lines of floats
  labels_<TYPE>.tsv      object_index<TAB>class_index (absent = unlabeled)
  split_<TYPE>.json      {"train": [...], "val": [...], "test": [...]}

All writes go through a temp file plus rename, so interrupted runs never
leave a corrupt artifact behind.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .graph import HinGraph, Schema, SparseAdj

# Rows formatted per write, so that a file's text is never held in memory
# whole.
_BLOCK_ROWS = 256

_EDGE_DTYPE = np.dtype([("src", "i8"), ("dst", "i8"), ("weight", "f8")])
_LABEL_DTYPE = np.dtype([("index", "i8"), ("cls", "i8")])


@contextlib.contextmanager
def _atomic_open(path: Path | str):
    """A text file that replaces ``path`` only once the block exits cleanly."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path | str, text: str) -> None:
    with _atomic_open(path) as f:
        f.write(text)


def write_json(path: Path | str, obj) -> None:
    """Compact, single-line JSON: without ``indent`` CPython encodes in C."""
    atomic_write_text(path, json.dumps(obj, separators=(",", ":")) + "\n")


def _write_rows(f, fmt: str, n: int, rows) -> None:
    """Write ``fmt % row`` for rows 0..n-1, where ``rows(i, j)`` yields the
    tuples of rows i..j-1; one write per block of ``_BLOCK_ROWS`` rows."""
    for i in range(0, n, _BLOCK_ROWS):
        f.write("".join(map(fmt.__mod__, rows(i, i + _BLOCK_ROWS))))


def save_dense(path: Path | str, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("dense matrix files are 2-D")
    with _atomic_open(path) as f:
        f.write(f"{m.shape[0]} {m.shape[1]}\n")
        fmt = " ".join(["%.17g"] * m.shape[1]) + "\n"
        _write_rows(f, fmt, len(m), lambda i, j: map(tuple, m[i:j].tolist()))


def load_dense(path: Path | str) -> np.ndarray:
    path = Path(path)
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 2 or not all(h.isdecimal() for h in header):
            raise ValueError(f"{path}: first line must be 'rows cols'")
        rows, cols = int(header[0]), int(header[1])
        if rows == 0:
            data = np.zeros((0, cols))
        else:
            try:
                data = np.loadtxt(f, dtype=np.float64, ndmin=2)
            except ValueError as err:
                raise ValueError(f"{path}: {err}") from None
    if data.shape != (rows, cols):
        raise ValueError(f"{path}: body shape {data.shape} != header {(rows, cols)}")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite value")
    return data


def save_graph(directory: Path | str, g: HinGraph) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_json(
        directory / "schema.json",
        {
            "types": list(g.schema.object_types),
            "relations": [list(r) for r in g.schema.relations],
        },
    )
    for t, f in g.features.items():
        save_dense(directory / f"features_{t}.tsv", f)
    for (src, dst), a in g.adjacency.items():
        rows = np.repeat(np.arange(a.n_rows), np.diff(a.indptr))

        def edges(i, j):
            return zip(a.indices[i:j].tolist(), rows[i:j].tolist(), a.weights[i:j].tolist())

        with _atomic_open(directory / f"edges_{src}_{dst}.tsv") as f:
            _write_rows(f, "%d\t%d\t%.17g\n", len(rows), edges)
    for t, lab in g.labels.items():
        lines = [f"{i}\t{int(c)}" for i, c in enumerate(lab) if c >= 0]
        if lines:
            atomic_write_text(directory / f"labels_{t}.tsv", "\n".join(lines) + "\n")
    for t, parts in g.splits.items():
        write_json(
            directory / f"split_{t}.json",
            {k: [int(i) for i in v] for k, v in parts.items()},
        )


def _read_json(path: Path | str, build):
    """``build`` applied to the file's JSON; a decode error or a missing or
    mistyped field is re-raised as a ValueError naming the file."""
    try:
        with open(path) as f:
            return build(json.load(f))
    except KeyError as err:
        raise ValueError(f"{path}: missing key {err}") from None
    except (ValueError, TypeError, OverflowError) as err:
        raise ValueError(f"{path}: {err}") from None


def load_schema(path: Path | str) -> Schema:
    return _read_json(
        path,
        lambda raw: Schema(tuple(raw["types"]), tuple(tuple(r) for r in raw["relations"])),
    )


def _split_parts(raw) -> dict[str, np.ndarray]:
    if not isinstance(raw, dict):
        raise TypeError("expected an object of index lists")
    for k, v in raw.items():
        if not isinstance(v, list) or not all(type(i) is int for i in v):
            raise TypeError(f"split part {k!r} is not a list of integer indices")
    return {k: np.array(v, dtype=np.int64) for k, v in raw.items()}


def _parse_table(path: Path, dtype: np.dtype) -> np.ndarray | None:
    """The whole tab-separated file as a 1-D structured array, in one C
    parse; None when a line does not fit ``dtype``."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(path, dtype=dtype, delimiter="\t", comments=None, ndmin=1)
        except ValueError:
            return None


def _scan_lines(path: Path, parse_fields, dtype: np.dtype) -> np.ndarray:
    """Parse ``path`` line by line, naming ``file:line`` on the first bad one.

    ``parse_fields`` turns a line's tab-separated fields into a tuple of
    ``dtype`` or raises ValueError naming the check that failed. This is
    the loaders' reference, and the path they take only when the one-shot
    parse or its checks fail.
    """
    parsed = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                parsed.append(parse_fields(line.split("\t")))
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
    return np.array(parsed, dtype=dtype)


def _in_range(a: np.ndarray, bound: int) -> bool:
    return len(a) == 0 or (a.min() >= 0 and a.max() < bound)


def _index(field: str, what: str, bound: int) -> int:
    try:
        i = int(field)
    except ValueError:
        raise ValueError(f"{what} is not an integer: {field!r}") from None
    if not 0 <= i < bound:
        raise ValueError(f"{what} {i} out of range [0, {bound})")
    return i


def _load_edges(path: Path, n_rows: int, n_cols: int) -> SparseAdj:
    """A relation's edges: sources index its adjacency's ``n_cols`` columns,
    targets its ``n_rows`` rows."""

    def parse_fields(parts):
        if len(parts) not in (2, 3):
            raise ValueError(f"expected 2 or 3 fields, got {len(parts)}")
        src = _index(parts[0], "source index", n_cols)
        dst = _index(parts[1], "target index", n_rows)
        try:
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ValueError(f"weight is not a number: {parts[2]!r}") from None
        if not np.isfinite(w):
            raise ValueError("non-finite weight")
        return src, dst, w

    table = _parse_table(path, _EDGE_DTYPE)
    if table is None or not (
        _in_range(table["src"], n_cols)
        and _in_range(table["dst"], n_rows)
        and np.isfinite(table["weight"]).all()
    ):
        table = _scan_lines(path, parse_fields, _EDGE_DTYPE)
    return SparseAdj.from_edges(n_rows, n_cols, table["dst"], table["src"], table["weight"])


def _load_labels(path: Path, n_objects: int) -> np.ndarray:
    """Per-object classes, -1 for the objects the file does not list."""

    def parse_fields(parts):
        if len(parts) != 2:
            raise ValueError(f"expected 2 fields, got {len(parts)}")
        index = _index(parts[0], "object index", n_objects)
        try:
            cls = int(parts[1])
        except ValueError:
            raise ValueError(f"class is not an integer: {parts[1]!r}") from None
        if cls < 0:
            raise ValueError(f"negative class {cls}")
        return index, cls

    table = _parse_table(path, _LABEL_DTYPE)
    if table is None or not (
        _in_range(table["index"], n_objects) and (table["cls"] >= 0).all()
    ):
        table = _scan_lines(path, parse_fields, _LABEL_DTYPE)
    # the last line naming an object wins, as when the lines are applied in order
    _, last_reversed = np.unique(table["index"][::-1], return_index=True)
    keep = len(table) - 1 - last_reversed
    lab = np.full(n_objects, -1, dtype=np.int64)
    lab[table["index"][keep]] = table["cls"][keep]
    return lab


def load_graph(directory: Path | str) -> HinGraph:
    directory = Path(directory)
    schema = load_schema(directory / "schema.json")
    features = {}
    for t in schema.object_types:
        fpath = directory / f"features_{t}.tsv"
        if not fpath.exists():
            raise FileNotFoundError(f"missing feature file: {fpath}")
        features[t] = load_dense(fpath)
    adjacency = {}
    for src, dst in schema.relations:
        epath = directory / f"edges_{src}_{dst}.tsv"
        if not epath.exists():
            raise FileNotFoundError(f"missing edge file: {epath}")
        adjacency[(src, dst)] = _load_edges(
            epath, features[dst].shape[0], features[src].shape[0]
        )
    labels, class_counts, splits = {}, {}, {}
    for t in schema.object_types:
        lpath = directory / f"labels_{t}.tsv"
        if lpath.exists():
            lab = _load_labels(lpath, features[t].shape[0])
            if (lab >= 0).any():
                labels[t] = lab
                class_counts[t] = int(lab.max()) + 1
        spath = directory / f"split_{t}.json"
        if spath.exists():
            splits[t] = _read_json(spath, _split_parts)
    return HinGraph(
        schema=schema,
        adjacency=adjacency,
        features=features,
        labels=labels,
        class_counts=class_counts,
        splits=splits,
    )
