import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hetconv import bench
from hetconv.bench import (
    TRAIN_FRACTION,
    BenchReport,
    ScaleResult,
    default_scale_specs,
    epoch_multiply_adds,
    run_scaling,
)
from hetconv.datagen import GenSpec, generate, with_splits
from hetconv.model import multiply_adds
from hetconv.train import TrainConfig, build_params


def tiny_specs(n=5, seed=0):
    return [
        GenSpec(
            counts={"A": 20 * 2**i, "P": 60 * 2**i, "C": 8, "T": 30 * 2**i},
            n_classes=2,
            seed=seed,
            feature_dim=8,
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def tiny_report():
    cfg = TrainConfig(layer_widths=(8, 2), d_a=4, seed=0)
    return run_scaling(tiny_specs(), cfg, repeats=3)


class TestRunScaling:
    def test_needs_five_scales(self):
        with pytest.raises(ValueError, match="5 scales"):
            run_scaling(tiny_specs(3), TrainConfig(), repeats=3)

    def test_needs_three_repeats(self):
        with pytest.raises(ValueError, match="3 timed repeats"):
            run_scaling(tiny_specs(), TrainConfig(), repeats=2)

    def test_scales_strictly_increasing(self, tiny_report):
        sizes = [s.size for s in tiny_report.scales]
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == len(sizes)

    def test_each_scale_times_all_repeats(self, tiny_report):
        for s in tiny_report.scales:
            assert len(s.epoch_seconds) == 3
            assert all(t > 0 for t in s.epoch_seconds)
            assert s.median_seconds == pytest.approx(float(np.median(s.epoch_seconds)))

    def test_fit_fields_present(self, tiny_report):
        assert np.isfinite(tiny_report.line["slope"])
        assert np.isfinite(tiny_report.r_squared)
        assert len(tiny_report.ratios) == len(tiny_report.scales) - 1
        assert tiny_report.failures == []

    def test_report_serializations(self, tiny_report):
        blob = json.dumps(tiny_report.to_json())
        assert "r_squared" in blob
        text = tiny_report.to_text()
        assert "linear fit" in text


@pytest.fixture(scope="module")
def ladder():
    """The default ladder's graphs, split as ``run_scaling`` splits them,
    with default-config parameters."""
    graphs = [
        with_splits(generate(spec), TRAIN_FRACTION, seed=spec.seed)
        for spec in default_scale_specs(0, 6)
    ]
    return [(g, build_params(g, TrainConfig())) for g in graphs]


class TestWorkCount:
    def test_each_scale_reports_its_count(self, tiny_report):
        counts = [s.multiply_adds for s in tiny_report.scales]
        assert all(isinstance(c, int) for c in counts) and counts == sorted(counts)
        assert [s["multiply_adds"] for s in tiny_report.to_json()["scales"]] == counts

    def test_count_is_linear_in_graph_size(self, ladder):
        # the paper's quasi-linear cost, stated without timing noise
        sizes = np.array([g.total_objects() + g.total_links() for g, _ in ladder], dtype=float)
        counts = np.array([epoch_multiply_adds(g, params) for g, params in ladder], dtype=float)
        slope, intercept = np.polyfit(sizes, counts, 1)
        residuals = counts - (slope * sizes + intercept)
        r_squared = 1.0 - np.sum(residuals**2) / np.sum((counts - counts.mean()) ** 2)
        assert r_squared >= 0.999
        ratios = counts[1:] / counts[:-1]
        assert ((1.9 <= ratios) & (ratios <= 2.1)).all(), ratios

    def test_train_rows_cost_at_most_six_tenths_of_every_row(self, ladder):
        g, params = ladder[-1]  # dblp_spec(7520)
        every = multiply_adds(params, g, ["A"])
        train = multiply_adds(params, g, {"A": g.splits["A"]["train"]})
        assert train <= 0.6 * every


class TestBenchReportInvariants:
    def _scale(self, size):
        return ScaleResult(
            n_objects=size // 2,
            n_links=size - size // 2,
            epoch_seconds=[0.1, 0.1, 0.1],
        )

    def test_decreasing_scales_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            BenchReport(
                scales=[self._scale(100), self._scale(50)],
                repeats=3, threads=1, failures=[],
            )

    def test_too_few_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            BenchReport(
                scales=[self._scale(100)],
                repeats=2, threads=1, failures=[],
            )


def test_summaries_are_computed_from_the_epoch_seconds():
    # epoch time exactly proportional to size |V| + |E| = 2n
    scales = [
        ScaleResult(n_objects=n, n_links=n, epoch_seconds=[n * 1e-5, n * 2e-5, n * 1.5e-5])
        for n in (50, 100, 200)
    ]
    report = BenchReport(scales=scales, repeats=3, threads=1, failures=[])
    assert [s.median_seconds for s in scales] == pytest.approx([7.5e-4, 1.5e-3, 3e-3])
    assert scales[0].mean_seconds == pytest.approx(7.5e-4)
    assert scales[0].std_seconds == pytest.approx(float(np.std([5e-4, 1e-3, 7.5e-4])))
    assert report.line == pytest.approx({"slope": 7.5e-6, "intercept": 0.0, "r_squared": 1.0})
    assert report.ratios == pytest.approx([{"scale_ratio": 2.0, "time_ratio": 2.0}] * 2)
    scales[2].epoch_seconds = [0.0] * 3  # a later change to the seconds shows in every summary
    assert report.ratios[1]["time_ratio"] == 0.0
    assert report.r_squared < 1.0
    assert report.to_json()["fit"] == report.line
    assert report.to_json()["scales"][2] == {
        "n_objects": 200,
        "n_links": 200,
        "epoch_seconds": [0.0, 0.0, 0.0],
        "mean_seconds": 0.0,
        "std_seconds": 0.0,
        "median_seconds": 0.0,
    }


def test_run_scaling_times_fit_epochs_after_the_warmup(monkeypatch):
    logs = []
    epochs = bench.epochs

    def logged_epochs(g, cfg, params):
        log = []
        logs.append(log)
        for record in epochs(g, cfg, params):
            log.append(record)
            yield record

    monkeypatch.setattr(bench, "epochs", logged_epochs)
    report = run_scaling(tiny_specs(), TrainConfig(layer_widths=(8, 2), d_a=4, seed=0), repeats=3)
    assert [len(log) for log in logs] == [4] * 5
    assert [s.epoch_seconds for s in report.scales] == [
        [r["epoch_seconds"] for r in log[1:]] for log in logs
    ]


def test_run_scaling_takes_the_scales_in_turn(monkeypatch):
    turns = []
    epochs = bench.epochs

    def logged_epochs(g, cfg, params):
        for record in epochs(g, cfg, params):
            turns.append((g.total_objects(), record["epoch"]))
            yield record

    monkeypatch.setattr(bench, "epochs", logged_epochs)
    run_scaling(tiny_specs(), TrainConfig(layer_widths=(8, 2), d_a=4, seed=0), repeats=3)
    sizes = sorted({n for n, _ in turns})
    assert turns == [(n, epoch) for epoch in range(1, 5) for n in sizes]
def test_default_scale_specs_cover_ten_x():
    specs = default_scale_specs(seed=0, n_scales=6)
    assert len(specs) == 6
    authors = [s.counts["A"] for s in specs]
    assert authors[-1] / authors[0] >= 10


HETBENCH = Path(__file__).resolve().parents[1] / "hetbench"


def _hetbench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"hetbench_{name}", HETBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_benchmark_harness_runs_against_the_package(tmp_path, monkeypatch):
    # hetbench/ patches package attributes by name and calls the public
    # functions: enabling the tracer getattrs every patched attribute, and
    # one tiny traced operation per workload must run and pass its check
    spans = _hetbench_module("spans", monkeypatch)
    workloads = _hetbench_module("workloads", monkeypatch)
    tracer = spans.Tracer()
    tracer.enable()
    try:
        outs = {}
        for name, workload_cls in workloads.WORKLOADS.items():
            workload = workload_cls(tiny=True)
            workdir = tmp_path / name
            workdir.mkdir()
            with tracer.request(f"setup.{name}", "setup"):
                state = workload.setup(0, workdir, tracer.value)
            with tracer.request(f"op.{name}", "op"):
                outs[name] = (workload, state, workload.run(state, 0))
    finally:
        tracer.disable()
    for name in ("train_large", "explain_per_object"):
        workload, state, out = outs[name]
        assert workload.check(state, 0, out, tracer.value) == [], name
    # the tiny planted graph is too small for the criterion-6 checks to pass
    assert outs["planted_pipeline"][2]["code"] == 0
    assert {"model.forward_train", "model.forward_eval", "cli.main"} <= {
        span[0] for span in tracer.spans
    }
