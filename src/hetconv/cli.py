"""Command-line entry point.

Subcommands: train, evaluate, explain, generate, benchmark, verify.
Exit codes: 0 success, 1 usage or config error, 2 data validation
error, 3 numerical check failure. The env var HETCONV_THREADS pins the
numeric kernels' internal thread count, through threadpoolctl when it is
importable and through the loaded OpenBLAS's own setter otherwise.
Every artifact is written through a temp-file-plus-rename, and every run
writes its fully resolved config.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

SPECTRAL_TOL = 1e-10
GRADCHECK_TOL = 1e-4


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


_thread_limiter = None


def _openblas(op: str) -> dict:
    """``openblas_<op>`` of each OpenBLAS mapped into this process, by
    library file name, under whichever exported name its build uses."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.split()[-1]}
    except OSError:  # no /proc: no library is found
        return {}
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in (f"scipy_openblas_{op}64_", f"scipy_openblas_{op}",
                    f"openblas_{op}64_", f"openblas_{op}"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                found[Path(path).name] = fn
                break
    return found


def _blas_threads() -> dict[str, int]:
    """The thread count each loaded OpenBLAS reports, by library file name."""
    counts = {}
    for name, fn in _openblas("get_num_threads").items():
        fn.argtypes, fn.restype = [], ctypes.c_int
        counts[name] = fn()
    return counts


def _pin_threads() -> int:
    """Apply HETCONV_THREADS to the BLAS/OpenMP pools; return the thread
    count in effect. Without threadpoolctl the variable is applied through
    each loaded OpenBLAS's own ``set_num_threads``, and the count is the
    largest that one of them reports back; with no OpenBLAS loaded it is
    the variable's value, or 1 when it is unset."""
    global _thread_limiter
    raw = os.environ.get("HETCONV_THREADS")
    if raw and (not raw.isdecimal() or int(raw) < 1):
        raise UsageError(f"HETCONV_THREADS must be a positive integer, got {raw!r}")
    try:
        import threadpoolctl
    except ImportError:
        if raw:
            for fn in _openblas("set_num_threads").values():
                fn.argtypes, fn.restype = [ctypes.c_int], None
                fn(int(raw))
        return max(_blas_threads().values(), default=int(raw or 1))
    if raw:
        _thread_limiter = threadpoolctl.threadpool_limits(limits=int(raw))
    return max((p["num_threads"] for p in threadpoolctl.threadpool_info()), default=1)


def _checked(convert, ok, expected: str):
    """An argparse type: ``convert(text)``, rejected unless ``ok`` holds for
    it; argparse reports the rejection under the option's name."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


def _int_at_least(lo: int):
    return _checked(int, lambda v: v >= lo, f"an integer >= {lo}")


_positive_int, _non_negative_int = _int_at_least(1), _int_at_least(0)
_percentage = _checked(float, lambda v: 0 < v < 100, "a percentage in (0, 100)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_graph(path: str):
    from .graph import validate_graph
    from .io import load_graph

    try:
        g = load_graph(path)
    except (OSError, ValueError, KeyError) as err:
        raise DataError(str(err)) from err
    problems = validate_graph(g)
    if problems:
        raise DataError("graph validation failed:\n  " + "\n  ".join(problems))
    return g


def _load_model(path: str, g):
    """A checkpoint's parameters, checked against the graph's schema and
    feature widths."""
    from .model import load_model, schema_hash

    try:
        params, schema = load_model(path)
    except (OSError, ValueError, KeyError) as err:
        raise DataError(f"bad checkpoint {path}: {err}") from err
    if schema_hash(schema) != schema_hash(g.schema):
        raise DataError("schema hash mismatch between checkpoint and data")
    for t in g.schema.object_types:
        if params.dims[0][t] != g.features[t].shape[1]:
            raise DataError(
                f"checkpoint {path}: type {t} takes input width {params.dims[0][t]}, "
                f"but the data's features_{t} has width {g.features[t].shape[1]}"
            )
    return params


def _read_input(path: str, build, what: str, error: type[Exception]):
    """``io.read_json(path, build)``; a file that cannot be read or built
    from is ``error`` with the message ``<what>: <path>: ...``."""
    from .io import read_json

    try:
        return read_json(path, build)
    except OSError as err:
        raise error(f"{what}: {path}: {err.strerror or err}") from err
    except ValueError as err:
        raise error(f"{what}: {err}") from err


def _train_config(config_path: str | None, seed: int | None):
    from .train import TrainConfig, config_from_json

    cfg = TrainConfig()
    if config_path:
        cfg = _read_input(config_path, config_from_json, "bad config", UsageError)
    return cfg if seed is None else dataclasses.replace(cfg, seed=seed)


def cmd_train(args) -> int:
    from .interpret import summarize_attention, summary_to_json
    from .io import atomic_write_text, write_json
    from .model import forward, save_model
    from .train import fit, split_indices, split_metrics

    cfg = _train_config(args.config, args.seed)
    g = _load_graph(args.data)
    if not g.labels:
        raise DataError(
            f"no labels found: expected a labels_<TYPE>.tsv file in {args.data}"
        )
    if not g.splits:
        raise DataError(
            f"no splits found: expected a split_<TYPE>.json file in {args.data}"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        params, log = fit(g, cfg)
    except ValueError as err:
        raise DataError(str(err)) from err
    except FloatingPointError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    resolved = dataclasses.asdict(cfg)
    # the dtype trained in: float64 where the features are too large for float32
    resolved.update(
        {
            "data": str(args.data),
            "out": str(args.out),
            "dims": params.dims,
            "dtype": params.dtype.name,
        }
    )
    write_json(out / "resolved_config.json", resolved)
    atomic_write_text(
        out / "training_log.jsonl",
        "".join(json.dumps(rec) + "\n" for rec in log),
    )
    save_model(out / "model", params, g.schema)
    # one eval pass answers both the attention summary and the test metrics
    final, records = forward(params, g, mode="eval")
    write_json(
        out / "attention_summary.json",
        summary_to_json(summarize_attention(records, g.schema)),
    )
    try:
        metrics = split_metrics(g, final, split_indices(g, "test"))
    except (KeyError, ValueError) as err:
        raise DataError(f"test split: {err}") from err
    write_json(out / "test_metrics.json", metrics)
    print(json.dumps(metrics, indent=2))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from .io import write_json
    from .train import evaluate

    g = _load_graph(args.data)
    params = _load_model(args.model, g)
    try:
        metrics = evaluate(params, g, args.split)
    except (KeyError, ValueError) as err:
        raise DataError(str(err)) from err
    if args.out:
        write_json(args.out, metrics)
    print(json.dumps(metrics, indent=2))
    return EXIT_OK


def cmd_explain(args) -> int:
    from .interpret import (
        per_object_json,
        per_object_masses,
        report_to_json,
        score_meta_paths,
        summarize_attention,
        summary_from_json,
    )
    from .io import write_json, write_json_rows
    from .model import forward

    if args.per_object and (args.summary or not (args.model and args.data)):
        raise UsageError("--per-object needs --model and --data")
    if args.per_object and not args.out:
        raise UsageError("--per-object needs --out: only the global ranking is printed")
    if args.summary:
        summary = _read_input(args.summary, summary_from_json, "bad summary file", DataError)
        schema = summary.schema
    elif args.model and args.data:
        g = _load_graph(args.data)
        params = _load_model(args.model, g)
        schema = g.schema
    else:
        raise UsageError("explain needs either --summary or both --model and --data")
    if args.target not in schema.object_types:
        raise UsageError(f"unknown target type: {args.target!r}")
    if not args.summary:
        # both reports read only the blocks the target's representation reads
        _, records = forward(params, g, mode="eval", outputs=[args.target])
        summary = summarize_attention(records, schema)
    try:
        ranked = score_meta_paths(summary, args.target)
    except KeyError as err:  # a block the ranking reads is missing
        if args.summary:
            raise DataError(f"bad summary file: {args.summary}: {err.args[0]}") from err
        # a pass over the data drops only blocks without rows
        raise DataError(
            f"data {args.data}: {err.args[0]} (a type without objects has no attention rows)"
        ) from err
    if args.top_k:
        ranked = ranked[: args.top_k]
    report = {"target": args.target, "global": report_to_json(ranked)}
    if args.per_object:
        prefixes, masses = per_object_masses(g, records, args.target, args.max_tracked)
        try:
            write_json_rows(
                args.out, report, "per_object", per_object_json(prefixes, masses, args.top_k)
            )
        except FloatingPointError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_NUMERIC
    elif args.out:
        write_json(args.out, report)
    print(json.dumps(report["global"], indent=2))
    return EXIT_OK


def cmd_generate(args) -> int:
    from .datagen import generate, spec_from_json, with_splits
    from .io import save_graph

    spec = _read_input(args.spec, spec_from_json, "bad generator spec", UsageError)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    try:
        g = generate(spec)
    except (KeyError, TypeError, ValueError) as err:
        raise UsageError(f"bad generator spec: {args.spec}: {err}") from err
    g = with_splits(g, args.train_fraction, seed=spec.seed)
    save_graph(args.out, g)
    print(
        json.dumps(
            {
                "objects": g.total_objects(),
                "links": g.total_links(),
                "counts": {t: g.n_objects(t) for t in g.schema.object_types},
            }
        )
    )
    return EXIT_OK


def cmd_benchmark(args) -> int:
    from .bench import default_scale_specs, run_scaling
    from .io import write_json

    cfg = _train_config(args.config, args.seed)
    report = run_scaling(
        default_scale_specs(seed=cfg.seed, n_scales=args.scales),
        cfg,
        repeats=args.repeats,
        threads=args.threads,
    )
    payload = report.to_json()
    payload["config"] = dataclasses.asdict(cfg)
    payload["environment"] = _environment()
    if args.out:
        write_json(args.out, payload)
    print(report.to_text())
    return EXIT_OK


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
    }


def _downscaled(g, max_objects: int, max_features: int):
    from .graph import induced_subgraph

    small = induced_subgraph(g, {t: max_objects for t in g.schema.object_types})
    feats = {t: f[:, :max_features] for t, f in small.features.items()}
    return dataclasses.replace(small, features=feats)


def cmd_verify(args) -> int:
    from .model import spectral_equivalence_on_graph
    from .train import TrainConfig, model_loss_gradcheck

    try:
        g = _load_graph(args.data)
    except DataError:
        print("validate_graph FAIL")
        raise
    failed = False
    print("validate_graph PASS: no violations")
    # both checks build dense matrices of the objects they are given
    small = _downscaled(g, args.max_objects, args.max_features)
    seen = set()
    for src, dst in g.schema.relations:
        pair = tuple(sorted((src, dst)))
        if pair in seen or (dst, src) not in g.schema.relations:
            continue
        seen.add(pair)
        dev, scale = spectral_equivalence_on_graph(small, dst, src, seed=args.seed)
        # rounding error grows with the output's magnitude
        scale = max(1.0, scale)
        ok = dev <= SPECTRAL_TOL * scale
        failed |= not ok
        print(
            f"spectral_equivalence {src}<->{dst} "
            f"{'PASS' if ok else 'FAIL'}: max deviation {dev:.3e} "
            f"(tol {SPECTRAL_TOL:g} x scale {scale:.3e})"
        )
    if not seen:
        print("spectral_equivalence SKIP: no bidirectional relation pairs")
    if any((lab >= 0).any() for lab in small.labels.values()):
        cfg = TrainConfig(layer_widths=(4, 3), d_a=3, seed=args.seed)
        report = model_loss_gradcheck(small, cfg, h=1e-5, tol=GRADCHECK_TOL)
        failed |= not report.passed
        for name in sorted(report.rel_err):
            rel, err = report.rel_err[name], report.abs_err[name]
            print(f"{name}: rel_err={rel:.3e} abs_err={err:.3e}")
        print(
            f"gradcheck {'PASS' if report.passed else 'FAIL'}: max rel err "
            f"{report.max_rel_err:.3e} (tol {report.tol:g}, floor {report.floor:.3e})"
        )
    else:
        print("gradcheck SKIP: no labels in data")
    return EXIT_NUMERIC if failed else EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="hetconv", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model on a graph directory")
    t.add_argument("--data", required=True)
    t.add_argument("--config", default=None, help="JSON file of TrainConfig keys")
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate", help="score a checkpoint on a split")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split", default="test")
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_evaluate)

    x = sub.add_parser("explain", help="rank meta-paths by importance")
    x.add_argument("--model", default=None)
    x.add_argument("--data", default=None)
    x.add_argument("--summary", default=None, help="attention summary JSON instead of a model")
    x.add_argument("--target", required=True)
    x.add_argument("--per-object", action="store_true", dest="per_object",
                   help="also rank each target object's meta-paths into --out; "
                   "needs --model and --data")
    x.add_argument("--top-k", type=_non_negative_int, default=0, dest="top_k")
    x.add_argument("--max-tracked", type=_positive_int, default=256, dest="max_tracked")
    x.add_argument("--out", default=None)
    x.set_defaults(func=cmd_explain)

    gn = sub.add_parser("generate", help="write a synthetic graph directory")
    gn.add_argument("--spec", required=True, help="generator spec JSON")
    gn.add_argument("--out", required=True)
    gn.add_argument("--seed", type=int, default=None)
    gn.add_argument("--train-fraction", type=_percentage, default=20.0, dest="train_fraction")
    gn.set_defaults(func=cmd_generate)

    b = sub.add_parser("benchmark", help="epoch-time scaling across graph sizes")
    b.add_argument("--out", default=None)
    # run_scaling's minimums: five scales for the line fit, three timed repeats
    b.add_argument("--scales", type=_int_at_least(5), default=6)
    b.add_argument("--repeats", type=_int_at_least(3), default=3)
    b.add_argument("--config", default=None)
    b.add_argument("--seed", type=int, default=None)
    b.set_defaults(func=cmd_benchmark)

    v = sub.add_parser("verify", help="validation, spectral equivalence, gradcheck")
    v.add_argument("--data", required=True)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--max-objects", type=_positive_int, default=40, dest="max_objects")
    v.add_argument("--max-features", type=_positive_int, default=6, dest="max_features")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.threads = _pin_threads()
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
