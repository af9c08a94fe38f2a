#!/usr/bin/env python3
"""Depth study: train models of increasing depth on one planted graph.

The planted label needs two relation hops (anchor -> intermediate ->
target), so depth 2 should sit near the random baseline and depth 3 should
jump. Prints one row per depth with test micro/macro F1.
"""

import argparse

from hetconv.datagen import DegreeSpec, EdgeSpec, GenSpec, generate, with_splits
from hetconv.io import write_json
from hetconv.train import TrainConfig, evaluate, fit

WIDTH_LADDER = [64, 64, 64, 64, 32, 16, 8]  # deepest models prepend more 64s


def widths_for_depth(depth: int, n_classes: int) -> tuple[int, ...]:
    hidden = WIDTH_LADDER[-(depth - 1):] if depth > 1 else []
    return tuple(hidden[:-1]) + (n_classes,)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--authors", type=int, default=800)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--noise", type=float, default=0.05)
    ap.add_argument("--train-fraction", type=float, default=60.0)
    ap.add_argument("--min-depth", type=int, default=2)
    ap.add_argument("--max-depth", type=int, default=6)
    ap.add_argument("--max-epochs", type=int, default=100)
    ap.add_argument("--out", default=None, help="optional JSON output path")
    args = ap.parse_args()

    a = args.authors
    spec = GenSpec(
        counts={"A": a, "P": round(3.125 * a), "C": 20, "T": round(2.1 * a)},
        n_classes=4,
        noise=args.noise,
        seed=args.seed,
        edges=(
            EdgeSpec("P", "C", DegreeSpec(dist="const", value=1)),
            EdgeSpec("A", "P", DegreeSpec(exponent=2.0, min_degree=4, max_degree=40)),
            EdgeSpec("P", "T", DegreeSpec(exponent=2.5, min_degree=1, max_degree=40)),
        ),
    )
    g = with_splits(generate(spec), args.train_fraction, seed=args.seed)
    print(f"graph: {g.total_objects()} objects, {g.total_links()} links")
    print(f"{'depth':>5} {'epochs':>7} {'micro_f1':>9} {'macro_f1':>9}")
    rows = []
    for depth in range(args.min_depth, args.max_depth + 1):
        cfg = TrainConfig(
            layer_widths=widths_for_depth(depth, 4),
            seed=args.seed,
            max_epochs=args.max_epochs,
            patience=min(25, args.max_epochs),
        )
        params, log = fit(g, cfg)
        m = evaluate(params, g, "test")["A"]
        print(f"{depth:>5} {len(log):>7} {m['micro_f1']:>9.4f} {m['macro_f1']:>9.4f}")
        rows.append({"depth": depth, "epochs": len(log), **m})
    if args.out:
        write_json(args.out, rows)


if __name__ == "__main__":
    main()
