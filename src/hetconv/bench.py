"""Scalability harness: epoch time versus graph size.

Each scale's graph is generated up front (generation and any file I/O are
excluded from timing) and trained through ``train.epochs``, the loop
``fit`` runs, for ``repeats + 1`` epochs. The scales take turns, one
epoch each per round. The timings are the ``epoch_seconds`` of the log
records, so an epoch is the train step (forward, loss, backward,
optimizer step) and the validation pass. The first epoch per scale is a
warmup and is discarded. The summaries, among them a least-squares line
of median epoch time against |V| + |E| that quantifies how close the
growth is to linear, are computed from the remaining epochs' seconds
when read. Each scale also records the multiply-adds of its epoch's
forward passes, a count that grows with the work and not with the
host's noise.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .datagen import GenSpec, dblp_spec, generate, with_splits
from .graph import HinGraph, split_rows
from .model import ModelParams, multiply_adds
from .train import TrainConfig, build_params, epochs

TRAIN_FRACTION = 20.0  # percent of each labeled type's objects in the train split


@dataclass
class ScaleResult:
    """One scale's size and timed epochs; ``multiply_adds`` is its
    ``epoch_multiply_adds``, where counted."""

    n_objects: int
    n_links: int
    epoch_seconds: list[float]
    multiply_adds: int | None = None

    @property
    def size(self) -> int:
        return self.n_objects + self.n_links

    @property
    def mean_seconds(self) -> float:
        return float(np.mean(self.epoch_seconds))

    @property
    def std_seconds(self) -> float:
        return float(np.std(self.epoch_seconds))

    @property
    def median_seconds(self) -> float:
        return float(np.median(self.epoch_seconds))


@dataclass
class BenchReport:
    scales: list[ScaleResult]
    repeats: int
    threads: int
    failures: list[str]

    def __post_init__(self):
        sizes = [s.size for s in self.scales]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("scales must be strictly increasing in |V| + |E|")
        if self.repeats < 3:
            raise ValueError("need at least 3 timed repeats per scale")

    @property
    def line(self) -> dict[str, float]:
        """``slope``, ``intercept`` and ``r_squared`` of the least-squares
        line of median epoch seconds against |V| + |E|."""
        x = np.array([s.size for s in self.scales], dtype=np.float64)
        y = np.array([s.median_seconds for s in self.scales])
        if len(self.scales) < 2:
            return {"slope": 0.0, "intercept": float(y[0]) if len(y) else 0.0, "r_squared": 1.0}
        slope, intercept = np.polyfit(x, y, 1)
        residuals = y - (slope * x + intercept)
        total = np.sum((y - y.mean()) ** 2)
        r_squared = 1.0 - float(np.sum(residuals**2) / total) if total > 0 else 1.0
        return {"slope": float(slope), "intercept": float(intercept), "r_squared": r_squared}

    @property
    def r_squared(self) -> float:
        return self.line["r_squared"]

    @property
    def ratios(self) -> list[dict]:
        """Consecutive ``{"scale_ratio", "time_ratio"}`` of size and median
        epoch seconds."""
        return [
            {
                "scale_ratio": b.size / a.size,
                "time_ratio": b.median_seconds / a.median_seconds
                if a.median_seconds > 0
                else float("inf"),
            }
            for a, b in zip(self.scales, self.scales[1:])
        ]

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
                    **({} if s.multiply_adds is None else {"multiply_adds": s.multiply_adds}),
                }
                for s in self.scales
            ],
            "fit": self.line,
            "ratios": self.ratios,
            "repeats": self.repeats,
            "threads": self.threads,
            "failures": self.failures,
        }

    def to_text(self) -> str:
        lines = [
            f"{'objects':>10} {'links':>10} {'|V|+|E|':>10} "
            f"{'median_s':>10} {'mean_s':>10} {'std_s':>10} {'mult_adds':>14}"
        ]
        for s in self.scales:
            lines.append(
                f"{s.n_objects:>10} {s.n_links:>10} {s.size:>10} "
                f"{s.median_seconds:>10.4f} {s.mean_seconds:>10.4f} "
                f"{s.std_seconds:>10.4f} {'-' if s.multiply_adds is None else s.multiply_adds:>14}"
            )
        line = self.line
        lines.append(
            f"linear fit: time = {line['slope']:.3e} * size + "
            f"{line['intercept']:.3e}  (R^2 = {line['r_squared']:.4f})"
        )
        for r in self.ratios:
            lines.append(
                f"size x{r['scale_ratio']:.2f} -> time x{r['time_ratio']:.2f}"
            )
        for f in self.failures:
            lines.append(f"FAILED: {f}")
        return "\n".join(lines) + "\n"


def default_scale_specs(seed: int = 0, n_scales: int = 6) -> list[GenSpec]:
    """A doubling ladder of DBLP-like graphs; at six scales the size
    |V| + |E| spans 32x and the largest graph has about 2e5 links."""
    return [dblp_spec(235 * 2**i, seed=seed, noise=0.05) for i in range(n_scales)]


def epoch_multiply_adds(g: HinGraph, params: ModelParams) -> int:
    """The multiply-adds (``model.multiply_adds``) of the passes an epoch
    of ``train.epochs`` makes over ``graph.split_rows``: train, and val
    where there are such rows. Deterministic, so the scaling of an
    epoch's work shows without timing noise."""
    passes = (split_rows(g, "train"), split_rows(g, "val"))
    return sum(multiply_adds(params, g, rows) for rows in passes if rows)


def run_scaling(
    specs: list[GenSpec],
    cfg: TrainConfig | None = None,
    repeats: int = 3,
    threads: int = 1,
) -> BenchReport:
    """Time ``fit``'s epochs across graph scales and fit time vs size.

    Every scale trains through its own ``train.epochs`` generator, and the
    generators advance round-robin, one epoch per scale per round, so a
    stretch of host noise lands on every scale rather than on one. A
    scale that runs out of memory is recorded as a failure and dropped;
    the fit uses the remaining scales.
    """
    if len(specs) < 5:
        raise ValueError("need at least 5 scales for a meaningful fit")
    if repeats < 3:
        raise ValueError("need at least 3 timed repeats")
    epochs_per_scale = repeats + 1
    # epochs never stops early; patience only has to fit max_epochs
    cfg = dataclasses.replace(
        cfg or TrainConfig(), max_epochs=epochs_per_scale, patience=epochs_per_scale
    )
    runs: dict[int, tuple[HinGraph, Iterator[dict]]] = {}
    work: dict[int, int] = {}
    failures: list[str] = []

    def fail(i: int) -> None:
        runs.pop(i, None)
        failures.append(f"out of memory at scale with counts {dict(specs[i].counts)}")

    for i, spec in enumerate(specs):
        try:
            g = with_splits(generate(spec), TRAIN_FRACTION, seed=spec.seed)
            params = build_params(g, cfg)
            work[i] = epoch_multiply_adds(g, params)
            runs[i] = g, epochs(g, cfg, params)
        except MemoryError:
            fail(i)
    seconds: dict[int, list[float]] = {i: [] for i in runs}
    for _ in range(epochs_per_scale):
        for i, (_, run) in list(runs.items()):
            try:
                seconds[i].append(next(run)["epoch_seconds"])
            except MemoryError:
                fail(i)
    results = [
        ScaleResult(
            n_objects=g.total_objects(),
            n_links=g.total_links(),
            epoch_seconds=seconds[i][1:],  # the first epoch is the warmup
            multiply_adds=work[i],
        )
        for i, (g, _) in runs.items()
    ]
    return BenchReport(scales=results, repeats=repeats, threads=threads, failures=failures)
