"""Scalability harness: epoch time versus graph size.

Each scale's graph is generated up front (generation and any file I/O are
excluded from timing); only full training epochs (forward, loss, backward,
optimizer step) are measured. The first epoch per scale is a warmup and is
discarded; the remaining repeats are summarized and a least-squares line of
median epoch time against |V| + |E| quantifies how close the growth is to
linear.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .datagen import GenSpec, dblp_spec, generate, with_splits
from .graph import HinGraph
from .train import AdamState, TrainConfig, build_params, train_step

TRAIN_FRACTION = 20.0  # percent of each labeled type's objects in the train split


@dataclass
class ScaleResult:
    n_objects: int
    n_links: int
    epoch_seconds: list[float]
    mean_seconds: float
    std_seconds: float
    median_seconds: float

    @property
    def size(self) -> int:
        return self.n_objects + self.n_links


@dataclass
class BenchReport:
    scales: list[ScaleResult]
    slope: float
    intercept: float
    r_squared: float
    ratios: list[dict]  # consecutive {"scale_ratio", "time_ratio"}
    repeats: int
    threads: int
    failures: list[str]

    def __post_init__(self):
        sizes = [s.size for s in self.scales]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("scales must be strictly increasing in |V| + |E|")
        if self.repeats < 3:
            raise ValueError("need at least 3 timed repeats per scale")

    def to_json(self) -> dict:
        return {
            "scales": [
                {
                    "n_objects": s.n_objects,
                    "n_links": s.n_links,
                    "epoch_seconds": s.epoch_seconds,
                    "mean_seconds": s.mean_seconds,
                    "std_seconds": s.std_seconds,
                    "median_seconds": s.median_seconds,
                }
                for s in self.scales
            ],
            "fit": {
                "slope": self.slope,
                "intercept": self.intercept,
                "r_squared": self.r_squared,
            },
            "ratios": self.ratios,
            "repeats": self.repeats,
            "threads": self.threads,
            "failures": self.failures,
        }

    def to_text(self) -> str:
        lines = [
            f"{'objects':>10} {'links':>10} {'|V|+|E|':>10} "
            f"{'median_s':>10} {'mean_s':>10} {'std_s':>10}"
        ]
        for s in self.scales:
            lines.append(
                f"{s.n_objects:>10} {s.n_links:>10} {s.size:>10} "
                f"{s.median_seconds:>10.4f} {s.mean_seconds:>10.4f} "
                f"{s.std_seconds:>10.4f}"
            )
        lines.append(
            f"linear fit: time = {self.slope:.3e} * size + "
            f"{self.intercept:.3e}  (R^2 = {self.r_squared:.4f})"
        )
        for r in self.ratios:
            lines.append(
                f"size x{r['scale_ratio']:.2f} -> time x{r['time_ratio']:.2f}"
            )
        for f in self.failures:
            lines.append(f"FAILED: {f}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["n_objects,n_links,size,median_seconds,mean_seconds,std_seconds"]
        for s in self.scales:
            lines.append(
                f"{s.n_objects},{s.n_links},{s.size},"
                f"{s.median_seconds},{s.mean_seconds},{s.std_seconds}"
            )
        return "\n".join(lines) + "\n"


def default_scale_specs(seed: int = 0, n_scales: int = 6) -> list[GenSpec]:
    """A doubling ladder of DBLP-like graphs; at six scales the size
    |V| + |E| spans 32x and the largest graph has about 2e5 links."""
    return [dblp_spec(235 * 2**i, seed=seed, noise=0.05) for i in range(n_scales)]


def _timed_epoch(g: HinGraph, params, adam, cfg: TrainConfig, epoch: int) -> float:
    train_idx = {t: g.splits[t]["train"] for t in g.splits}
    t0 = time.perf_counter()
    train_step(g, params, adam, cfg, train_idx, epoch)
    return time.perf_counter() - t0


def run_scaling(
    specs: list[GenSpec],
    cfg: TrainConfig | None = None,
    repeats: int = 3,
    threads: int = 1,
) -> BenchReport:
    """Time training epochs across graph scales and fit time vs size.

    Scales run sequentially to keep timings interference-free. A scale
    that runs out of memory is recorded as a failure and skipped; the fit
    uses the remaining scales.
    """
    if len(specs) < 5:
        raise ValueError("need at least 5 scales for a meaningful fit")
    if repeats < 3:
        raise ValueError("need at least 3 timed repeats")
    cfg = cfg or TrainConfig()
    results: list[ScaleResult] = []
    failures: list[str] = []
    for spec in specs:
        try:
            g = with_splits(generate(spec), TRAIN_FRACTION, seed=spec.seed)
            params = build_params(g, cfg)
            adam = AdamState.for_params(params.named())
            _timed_epoch(g, params, adam, cfg, epoch=0)  # warmup
            times = [
                _timed_epoch(g, params, adam, cfg, epoch=e)
                for e in range(1, repeats + 1)
            ]
        except MemoryError:
            failures.append(
                f"out of memory at scale with counts {dict(spec.counts)}"
            )
            continue
        results.append(
            ScaleResult(
                n_objects=g.total_objects(),
                n_links=g.total_links(),
                epoch_seconds=times,
                mean_seconds=float(np.mean(times)),
                std_seconds=float(np.std(times)),
                median_seconds=float(np.median(times)),
            )
        )
    x = np.array([r.size for r in results], dtype=np.float64)
    y = np.array([r.median_seconds for r in results])
    if len(results) >= 2:
        slope, intercept = np.polyfit(x, y, 1)
        residuals = y - (slope * x + intercept)
        total = np.sum((y - y.mean()) ** 2)
        r_squared = 1.0 - float(np.sum(residuals**2) / total) if total > 0 else 1.0
    else:
        slope, intercept, r_squared = 0.0, float(y[0]) if len(y) else 0.0, 1.0
    ratios = [
        {
            "scale_ratio": float(x[i + 1] / x[i]),
            "time_ratio": float(y[i + 1] / y[i]) if y[i] > 0 else float("inf"),
        }
        for i in range(len(results) - 1)
    ]
    return BenchReport(
        scales=results,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        ratios=ratios,
        repeats=repeats,
        threads=threads,
        failures=failures,
    )
