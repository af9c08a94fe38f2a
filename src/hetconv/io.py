"""On-disk layout for graphs, binary arrays, and run artifacts.

A graph directory holds:
  schema.json            {"types": [...], "relations": [["A","P"], ...]}
  edges_<SRC>_<DST>.tsv  src_index<TAB>dst_index[<TAB>weight], 0-based
  features_<TYPE>.npy    2-D float64 array, one row per object
  labels_<TYPE>.tsv      object_index<TAB>class_index (absent = unlabeled)
  split_<TYPE>.json      {"train": [...], "val": [...], "test": [...]}

Arrays are NumPy ``.npy`` files (and ``.npz`` archives for checkpoints),
written and read with ``allow_pickle=False``. All writes go through a temp
file plus rename, so interrupted runs never leave a corrupt artifact
behind.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import lzma
import math
import numbers
import os
import tempfile
import tokenize
import warnings
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .graph import HinGraph, Schema, SparseAdj

# Rows formatted per write, so that a file's text is never held in memory
# whole.
_BLOCK_ROWS = 256

_NPY_MAGIC = b"\x93NUMPY"
_ZIP_MAGIC = b"PK\x03\x04"

_EDGE_DTYPE = np.dtype([("src", "i8"), ("dst", "i8"), ("weight", "f8")])
_LABEL_DTYPE = np.dtype([("index", "i8"), ("cls", "i8")])


# What np.load raises on a damaged .npy or .npz besides ValueError (a bad
# header, a short body, a pickled object array): TokenError for a header
# cut inside a bracket, OSError for an unreadable file; for a damaged
# archive BadZipFile, EOFError for a member cut short, RuntimeError
# (NotImplementedError included) when a member's header names encryption
# or an unknown compression method, and the decompressor's error on a
# damaged compressed member (zlib.error, OSError from bz2, LZMAError).
_DAMAGED_ARRAY_FILE = (
    ValueError,
    EOFError,
    tokenize.TokenError,
    OSError,
    zipfile.BadZipFile,
    RuntimeError,
    zlib.error,
    lzma.LZMAError,
)


@contextlib.contextmanager
def _atomic_open(path: Path | str, mode: str = "w"):
    """A file, text or (``mode="wb"``) binary, that replaces ``path`` only
    once the block exits cleanly."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as f:
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


def write_json_rows(path: Path | str, obj: dict, key: str, rows) -> None:
    """``write_json(path, {**obj, key: [...]})`` where the list's elements
    come from ``rows`` as compact JSON text, one write per block of
    ``_BLOCK_ROWS`` of them."""
    head = json.dumps(obj, separators=(",", ":"))[:-1] + ("," if obj else "")
    rows = iter(rows)
    with _atomic_open(path) as f:
        f.write(head + json.dumps(key) + ":[")
        sep = ""
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            f.write(sep + ",".join(block))
            sep = ","
        f.write("]}\n")


def _write_rows(f, fmt: str, n: int, rows) -> None:
    """Write ``fmt % row`` for rows 0..n-1, where ``rows(i, j)`` yields the
    tuples of rows i..j-1; one write per block of ``_BLOCK_ROWS`` rows."""
    for i in range(0, n, _BLOCK_ROWS):
        f.write("".join(map(fmt.__mod__, rows(i, i + _BLOCK_ROWS))))


def checked_matrix(where: str, a: np.ndarray, shape: tuple | None = None) -> np.ndarray:
    """``a`` if it is a finite float64 matrix of ``shape`` (any 2-D shape
    when None); otherwise a ValueError naming ``where``."""
    bad_shape = a.ndim != 2 if shape is None else a.shape != shape
    if bad_shape:
        raise ValueError(f"{where}: shape {a.shape}, expected {shape or '2-D'}")
    if a.dtype != np.float64:
        raise ValueError(f"{where}: dtype {a.dtype}, expected float64")
    if not np.isfinite(a).all():
        raise ValueError(f"{where}: non-finite value")
    return a


def _np_load(path: Path):
    """``np.load`` without pickle; a file without NumPy magic, or a damaged
    one, is a ValueError naming it."""
    try:
        with open(path, "rb") as f:
            magic = f.read(len(_NPY_MAGIC))
        # np.load would take any other file for a pickle
        if magic == _NPY_MAGIC or magic.startswith(_ZIP_MAGIC):
            return np.load(path, allow_pickle=False)
    except _DAMAGED_ARRAY_FILE as err:
        raise ValueError(f"{path}: not a readable NumPy file ({err})") from None
    raise ValueError(f"{path}: not a NumPy .npy or .npz file (no NumPy magic)")


def save_npz(path: Path | str, arrays: dict[str, np.ndarray]) -> None:
    """One uncompressed ``.npz`` archive of the named float64 arrays."""
    with _atomic_open(path, "wb") as f:
        np.savez(f, allow_pickle=False, **arrays)


def load_npz(path: Path | str) -> dict[str, np.ndarray]:
    """Every array of an ``.npz`` archive, by name, read without pickle.
    A damaged archive or member is a ValueError naming the file."""
    path = Path(path)
    archive = _np_load(path)
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: a single .npy array, not an .npz archive")
    with archive:
        try:
            arrays = {name: archive[name] for name in archive.files}
        except _DAMAGED_ARRAY_FILE as err:
            raise ValueError(f"{path}: not a readable NumPy file ({err})") from None
    for name, a in arrays.items():
        # NpzFile hands back a member without the .npy magic as raw bytes
        if not isinstance(a, np.ndarray):
            raise ValueError(f"{path}: member {name} is not a .npy array")
    return arrays


def _load_features(path: Path) -> np.ndarray:
    a = _np_load(path)
    if not isinstance(a, np.ndarray):
        a.close()
        raise ValueError(f"{path}: an .npz archive, not a single .npy array")
    return checked_matrix(str(path), a)


def save_graph(directory: Path | str, g: HinGraph) -> None:
    """Write ``g`` in the layout above, removing first the layout files
    of a graph saved there before, which ``g`` might not overwrite."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for pattern in ("features_*.npy", "edges_*_*.tsv", "labels_*.tsv", "split_*.json"):
        for stale in directory.glob(pattern):
            stale.unlink()
    write_json(directory / "schema.json", g.schema.to_json())
    for t, f in g.features.items():
        with _atomic_open(directory / f"features_{t}.npy", "wb") as out:
            np.save(out, np.ascontiguousarray(f, dtype=np.float64), allow_pickle=False)
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


def checked_integer(name: str, value, lo: int | None = None) -> int:
    """``value`` as an int if it is a Python or NumPy integer (not a bool)
    of at least ``lo``; otherwise a ValueError naming the field."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or (lo is not None and value < lo)
    ):
        bound = "" if lo is None else f" >= {lo}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def checked_finite(name: str, value, ok=None, bound: str = "") -> None:
    """A ValueError naming the field unless ``value`` is a finite real
    number (not a bool) for which ``ok``, if given, holds; ``bound`` says
    in words what ``ok`` checks."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or (ok is not None and not ok(value))
    ):
        bound = f" {bound}" if bound else ""
        raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")


def read_json(path: Path | str, build):
    """``build`` applied to the file's JSON; a decode error or a missing or
    mistyped field is re-raised as a ValueError naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return build(json.load(f))
    except KeyError as err:
        raise ValueError(f"{path}: missing key {err}") from None
    except (ValueError, TypeError, AttributeError, OverflowError) as err:
        raise ValueError(f"{path}: {err}") from None


def load_schema(path: Path | str) -> Schema:
    return read_json(path, Schema.from_json)


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
        if w <= 0:
            raise ValueError(f"non-positive weight {w!r}")
        return src, dst, w

    table = _parse_table(path, _EDGE_DTYPE)
    if table is None or not (
        _in_range(table["src"], n_cols)
        and _in_range(table["dst"], n_rows)
        and np.isfinite(table["weight"]).all()
        and (table["weight"] > 0).all()
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
        fpath = directory / f"features_{t}.npy"
        if not fpath.exists():
            old = fpath.with_suffix(".tsv")
            if old.exists():
                raise ValueError(
                    f"{old}: features in the old dense-TSV layout; this version reads "
                    f"{fpath.name}. Convert with: np.save('{fpath}', "
                    f"np.loadtxt('{old}', skiprows=1, ndmin=2))"
                )
            raise FileNotFoundError(f"missing feature file: {fpath}")
        features[t] = _load_features(fpath)
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
            splits[t] = read_json(spath, _split_parts)
    return HinGraph(
        schema=schema,
        adjacency=adjacency,
        features=features,
        labels=labels,
        class_counts=class_counts,
        splits=splits,
    )
