"""hetconv benchmark: one workload per process, one BLAS thread.

    python3 hetbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 hetbench/run.py --self-check

Run from the repository root; the package is imported from ``src/``.
Workloads: train_large, planted_pipeline, explain_per_object (see
``workloads.py``). The default workload seed is 0 and the held-out seed,
for checking a claim on inputs it was not tuned on, is 1.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
the median and tail of one operation's wall time, the median set-up time
and the peak resident set. With ``--trace 1`` every other operation runs
with spans around the package's public calls and the last line carries
the per-layer metrics; the spans are written to ``hetbench/_runs/``.
Lines before the last name every metric in the workload's own terms
(``epoch_s.p50`` and so on), the error rate, and the environment.
"""

import os
import sys

# Before numpy is imported anywhere in this process: the package cannot pin
# its own BLAS pool when threadpoolctl is missing, so the benchmark does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"

DEFAULT_SEED = 0
HELDOUT_SEED = 1
# Set-up repeats at least this often and for at least this long: a short
# set-up otherwise falls inside one of the host's slow or fast spells, and
# its median then jumps from run to run.
SETUP_REPEATS = 5
SETUP_SECONDS = 4.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

# End-to-end metrics under each workload's own names, with their units;
# --self-check requires every one of them.
NAMED_METRICS = {
    "setup_s": "s",
    "epoch_s.p50": "s",
    "epoch_s.tail": "s",
    "pipeline_s.p50": "s",
    "explain_s.p50": "s",
    "explain_s.tail": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


# Per-layer counts and sizes the workloads record, with their units.
VALUE_UNITS = {
    "autodiff.tape_records": "count",
    "autodiff.tape_bytes": "bytes",
    "train.test_micro_f1": "ratio",
    "io.graph_bytes": "bytes",
    "io.checkpoint_bytes": "bytes",
    "interpret.prefixes": "count",
    "interpret.truncated_mass": "mass",
    "graph.objects": "count",
    "graph.links": "count",
}


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples above it, by nearest rank. The median is not a tail, so below
    forty samples no percentile qualifies and the tail is the maximum,
    reported as percentile 100. Runs of ``run_seconds`` stay below forty
    on every workload, so the definition does not flip between runs."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = -(-n * p // 100)  # ceil(n * p / 100)
        if n - rank >= 10:
            return p, xs[int(rank) - 1]
    return 100.0, xs[-1]


def _openblas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.split()[-1]}
    except OSError:  # no /proc: the count stays unknown
        return found
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                found[Path(path).name] = int(fn())
                break
    return found


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                      "MKL_NUM_THREADS", "HETCONV_THREADS")},
        "blas_threads_in_effect": _openblas_threads(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
    }


def measure(workload, seed: int, seconds: float, tracer, traced: bool, workdir: Path) -> dict:
    """Set up at least ``SETUP_REPEATS`` times and for ``SETUP_SECONDS``,
    then run operations for ``seconds``.

    Warm-up operations are checked but not timed. When ``traced``, timed
    operations alternate between traced and untraced, so one run gives
    both the per-layer spans and the tracing overhead.
    """

    def request(rid, kind, on):
        if on:
            tracer.enable()
            return tracer.request(rid, kind)
        tracer.disable()
        return contextlib.nullcontext()

    setup_s = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        state = None  # release the previous set-up's graph first
        with request(f"setup.{len(setup_s)}", "setup", traced):
            t0 = time.perf_counter()
            state = workload.setup(seed, workdir, tracer.value)
            setup_s.append(time.perf_counter() - t0)
    op_s = {True: [], False: []}  # keyed by whether the operation was traced
    needed = (True, False) if traced else (False,)
    attempted = failed = raised = 0
    deadline = None
    i = 0
    while True:
        timed = i >= workload.warmup
        if timed and deadline is None:
            deadline = time.perf_counter() + seconds
        on = traced and timed and (i - workload.warmup) % 2 == 0
        attempted += 1
        try:
            with request(f"op.{i}", "op", on):
                t0 = time.perf_counter()
                out = workload.run(state, i)
                elapsed = time.perf_counter() - t0
            tracer.disable()
            if timed:
                op_s[on].append(elapsed)
            problems = workload.check(state, i, out, tracer.value)
        except Exception:
            tracer.disable()
            raised += 1
            problems = [f"operation {i} raised:\n{traceback.format_exc()}"]
        if problems:
            failed += 1
            print(f"FAILED {workload.name} op {i}: " + "; ".join(problems), file=sys.stderr)
        i += 1
        if deadline is not None and time.perf_counter() >= deadline and (
            all(op_s[k] for k in needed) or raised >= 3
        ):
            break
    tracer.disable()
    return {
        "setup_s": setup_s,
        "op_s": op_s[True] + op_s[False],
        "traced_s": op_s[True],
        "untraced_s": op_s[False],
        "attempted": attempted,
        "failed": failed,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for --self-check")
    p.add_argument("--self-check", action="store_true", dest="self_check",
                   help="run every workload at tiny sizes and check every metric is emitted")
    args = p.parse_args(argv)
    if args.self_check:
        return self_check()
    if not (ROOT / "src" / "hetconv").is_dir():
        print(f"error: no package source at {ROOT / 'src' / 'hetconv'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.tiny)
    tracer = Tracer()
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUNS))
    try:
        r = measure(workload, args.seed, args.seconds, tracer, args.trace == 1, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = r["attempted"], r["failed"]
    env = environment(args.seed)
    print("env " + json.dumps(env))
    if not r["op_s"] or (args.trace and not (r["traced_s"] and r["untraced_s"])):
        print("error: too few operations completed", file=sys.stderr)
        return 1
    pct, tail_s = tail(r["op_s"])
    p50 = statistics.median(r["op_s"])
    named = {
        "setup_s": _metric(statistics.median(r["setup_s"]), "s"),
        f"{workload.op_name}.p50": _metric(p50, "s"),
        f"{workload.op_name}.tail": _metric(tail_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "error_rate": _metric(failed / attempted, "ratio"),
    }
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(r['op_s'])} timed operations after {workload.warmup} warm-up, "
          f"{failed} of {attempted} failed; tail is p{pct:g} of {len(r['op_s'])} samples; "
          f"set-up is the median of {len(r['setup_s'])}")
    print("samples setup_s " + " ".join(f"{x:.4f}" for x in r["setup_s"]))
    print("samples op_s " + " ".join(f"{x:.4f}" for x in r["op_s"]))
    for name, m in named.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    if args.trace:
        metrics = {
            **{k: _metric(v, "count" if k == "train.epochs" else "s")
               for k, v in tracer.layer_metrics().items()},
            **{k: _metric(statistics.median(tracer.values[k]) if k in tracer.values else 0.0, u)
               for k, u in VALUE_UNITS.items()},
            "trace.coverage": _metric(tracer.coverage(), "ratio"),
            "trace.overhead_s": _metric(
                statistics.median(r["traced_s"]) - statistics.median(r["untraced_s"]), "s"),
        }
        spans = RUNS / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
        for name, m in metrics.items():
            print(f"layer {name} {m['value']!r} {m['unit']}")
    else:
        metrics = {
            "op_s.p50": named[f"{workload.op_name}.p50"],
            "op_s.tail": named[f"{workload.op_name}.tail"],
            "setup_s": named["setup_s"],
            "peak_rss_mb": named["peak_rss_mb"],
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def self_check() -> int:
    """Every workload at tiny sizes, traced and untraced, one process each;
    fails unless every metric in BENCHMARK.json and in ``NAMED_METRICS``
    is emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    named: dict[str, str] = {}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{w['name']} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{w['name']} trace {trace}: metrics {got} != {want[trace]}")
            if result["attempted"] < 1:
                problems.append(f"{w['name']} trace {trace}: nothing attempted")
            for line in lines:
                if line.startswith("metric "):
                    _, name, _, unit = line.split()
                    named[name] = unit
            print(f"{w['name']} trace {trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    for name, unit in NAMED_METRICS.items():
        if named.get(name) != unit:
            problems.append(f"named metric {name} not emitted with unit {unit}")
    for msg in problems:
        print("SELF-CHECK FAILED: " + msg, file=sys.stderr)
    if not problems:
        print("self-check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
