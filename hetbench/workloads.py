"""The benchmark's three workloads.

Each is a closed loop with one client: the runner starts an operation
only after the previous one has returned. ``setup`` builds the inputs
from the workload seed alone; ``run`` is the timed operation and calls
the package only through its public functions; ``check`` verifies the
outputs afterwards, untimed, and returns the failed checks.

Every call into the package goes through a module attribute
(``datagen.generate``, not a name imported from it), so that a traced
operation sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import re
import shutil
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from hetconv import autodiff, cli, datagen, graph, io, model, rng, train

# The acceptance gate's planted-label graph (criteria 6 and 7).
PLANTED_EDGES = (
    datagen.EdgeSpec("P", "C", datagen.DegreeSpec(dist="const", value=1)),
    datagen.EdgeSpec(
        "A", "P", datagen.DegreeSpec(dist="powerlaw", exponent=2.0, min_degree=4, max_degree=40)
    ),
    datagen.EdgeSpec(
        "P", "T", datagen.DegreeSpec(dist="powerlaw", exponent=2.5, min_degree=1, max_degree=40)
    ),
)
PLANTED_COUNTS = {"A": 800, "P": 2500, "C": 20, "T": 1680}  # 5000 objects


def planted_spec(seed: int, scale: float = 1.0) -> datagen.GenSpec:
    return datagen.GenSpec(
        counts={t: max(4, round(n * scale)) for t, n in PLANTED_COUNTS.items()},
        n_classes=4,
        noise=0.05,
        seed=seed,
        edges=PLANTED_EDGES,
    )


def _prepared(g, values) -> None:
    """Validate a generated graph and record its size; setup aborts on a bad graph."""
    problems = graph.validate_graph(g)
    if problems:
        raise RuntimeError("generated graph is invalid: " + "; ".join(problems))
    values("graph.objects", g.total_objects())
    values("graph.links", g.total_links())


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _quiet_cli(argv: list[str]) -> int:
    """``hetconv`` in this process, its report on stdout discarded."""
    with contextlib.redirect_stdout(stdio.StringIO()):
        return cli.main(argv)


@dataclass
class _Epochs:
    g: object
    cfg: train.TrainConfig
    params: object
    named: dict
    adam: train.AdamState
    norm_adj: dict
    train_idx: dict
    val_idx: dict


class TrainLarge:
    """Fit-equivalent epochs on the largest rung of the scaling ladder.

    One operation is one epoch as ``train.fit`` runs it: train forward,
    loss, backward, Adam, then the validation ``evaluate``. The older
    ``hetconv benchmark`` epoch time leaves the validation pass out.
    """

    name = "train_large"
    op_name = "epoch_s"
    warmup = 1

    def __init__(self, tiny: bool):
        self.n_authors = 60 if tiny else 7520  # 57,962 objects, 184,312 links

    def setup(self, seed: int, workdir: Path, values) -> _Epochs:
        spec = datagen.dblp_spec(self.n_authors, seed=seed, noise=0.05)
        g = datagen.with_splits(datagen.generate(spec), 20.0, seed=seed)
        _prepared(g, values)
        norm_adj = model.normalized_adjacency(g)
        cfg = train.TrainConfig(seed=seed)
        params = train.build_params(g, cfg)
        named = params.named()
        return _Epochs(
            g=g,
            cfg=cfg,
            params=params,
            named=named,
            adam=train.AdamState.for_params(named),
            norm_adj=norm_adj,
            train_idx={t: s["train"] for t, s in g.splits.items()},
            val_idx={t: s["val"] for t, s in g.splits.items()},
        )

    def run(self, s: _Epochs, i: int) -> float:
        epoch = i + 1
        tape = autodiff.Tape()
        s.params.attach(tape)
        h, _ = model.forward(
            s.params,
            s.g,
            mode="train",
            rng=rng.stream(s.cfg.seed, "dropout", epoch),
            dropout_rate=s.cfg.dropout_rate,
            norm_adj=s.norm_adj,
        )
        loss = train.cross_entropy_loss(h, s.g.labels, s.train_idx, s.cfg.loss_weights)
        tape.backward(loss)
        train.adam_step(s.named, s.adam, s.cfg.learning_rate, s.cfg.l2_weight)
        s.params.attach(None)
        train.evaluate(s.params, s.g, s.val_idx, norm_adj=s.norm_adj)
        return float(loss.value[0, 0])

    def check(self, s: _Epochs, i: int, loss: float, values) -> list[str]:
        return [] if math.isfinite(loss) else [f"epoch {i + 1}: loss is {loss}"]


@dataclass
class _Pipeline:
    seed: int
    workdir: Path
    # Operation indices of recent seeds that missed each criterion-6 target.
    misses: dict = field(default_factory=lambda: {"f1": [], "top1": []})


class PlantedPipeline:
    """The acceptance gate's criterion-6 workflow, once per derived seed.

    generate + with_splits, fit for a fixed number of epochs, evaluate on
    test, save graph and model, then ``hetconv explain --top-k 1`` in this
    process. ``patience == max_epochs`` keeps the epoch count independent
    of where early stopping would land.

    Criterion 6 asks for test micro-F1 >= 0.90 on 8 of 10 seeds and for
    the planted path C-P-A as top-1 explanation on 8 of 10 seeds, not on
    every seed. Some seeds miss with a working program: seed 22001
    reaches F1 0.8625 after 40 epochs and 0.838 after 100, and on seed
    1375952737001 early stopping keeps an epoch whose explanation ranks
    P-A (0.218) above C-P-A (0.162), at 40 epochs and at criterion 6's
    100 with patience 25 alike. So a miss is reported on a ``note`` line,
    and an operation fails when it is the third miss of its kind within
    ten consecutive seeds, which no passing set of ten seeds can hold.
    Every seed must still make training progress and reach ``F1_FLOOR``,
    which catches training that has stopped working.
    """

    name = "planted_pipeline"
    op_name = "pipeline_s"
    warmup = 0
    F1_FLOOR = 0.80
    F1_GATE = 0.90
    MISS_WINDOW, MISSES_ALLOWED = 10, 2  # criterion 6: 8 of 10 seeds

    def __init__(self, tiny: bool):
        self.scale = 0.2 if tiny else 1.0
        self.epochs = 4 if tiny else 40

    def _inputs(self, seed: int):
        return datagen.with_splits(
            datagen.generate(planted_spec(seed, self.scale)), 60.0, seed=seed
        )

    def setup(self, seed: int, workdir: Path, values) -> _Pipeline:
        # The operations generate their own graphs; set-up is bringing the
        # first one into memory, validated, with its adjacency normalized.
        g = self._inputs(seed * 1000)
        _prepared(g, values)
        model.normalized_adjacency(g)
        return _Pipeline(seed=seed, workdir=workdir)

    def run(self, s: _Pipeline, i: int) -> dict:
        seed = s.seed * 1000 + i
        data, ckpt = s.workdir / f"data{i}", s.workdir / f"model{i}"
        report = s.workdir / f"report{i}.json"
        g = self._inputs(seed)
        cfg = train.TrainConfig(
            layer_widths=(64, 32, 4), seed=seed, max_epochs=self.epochs, patience=self.epochs
        )
        params, log = train.fit(g, cfg)
        micro = train.evaluate(params, g, "test")["A"]["micro_f1"]
        io.save_graph(data, g)
        model.save_model(ckpt, params, g.schema)
        code = _quiet_cli(
            ["explain", "--model", str(ckpt), "--data", str(data),
             "--target", "A", "--top-k", "1", "--out", str(report)]
        )
        return {"seed": seed, "losses": [r["train_loss"] for r in log], "micro": micro,
                "code": code, "data": data, "ckpt": ckpt, "report": report}

    def _miss(self, s: _Pipeline, kind: str, i: int, what: str) -> list[str]:
        recent = [j for j in s.misses[kind] if j > i - self.MISS_WINDOW] + [i]
        s.misses[kind] = recent
        print(f"note {what}")
        if len(recent) > self.MISSES_ALLOWED:
            return [f"{what}: {len(recent)} such seeds in the last {self.MISS_WINDOW}, "
                    f"where criterion 6 allows {self.MISSES_ALLOWED}"]
        return []

    def check(self, s: _Pipeline, i: int, out: dict, values) -> list[str]:
        seed, losses = out["seed"], out["losses"]
        values("train.test_micro_f1", out["micro"])
        values("io.graph_bytes", _dir_bytes(out["data"]))
        values("io.checkpoint_bytes", _dir_bytes(out["ckpt"]))
        problems = []
        if len(losses) != self.epochs:
            problems.append(f"seed {seed}: fit ran {len(losses)} epochs, not {self.epochs}")
        if not all(math.isfinite(x) for x in losses):
            problems.append(f"seed {seed}: a train loss is not finite")
        elif losses and not losses[-1] <= 0.5 * losses[0]:
            problems.append(f"seed {seed}: train loss went from {losses[0]:.4g} to "
                            f"{losses[-1]:.4g}, not below half")
        if out["micro"] < self.F1_FLOOR:
            problems.append(f"seed {seed}: test micro-F1 {out['micro']:.4f} < {self.F1_FLOOR}")
        if out["micro"] < self.F1_GATE:
            problems += self._miss(
                s, "f1", i, f"seed {seed}: test micro-F1 {out['micro']:.4f} < {self.F1_GATE}")
        if out["code"] != cli.EXIT_OK:
            problems.append(f"seed {seed}: explain exited {out['code']}")
        else:
            top = json.loads(out["report"].read_text())["global"][0]
            if top["meta_path"][-1] != "A" or not 0.0 < top["score"] <= 1.0 + 1e-9:
                problems.append(f"seed {seed}: top-1 explanation {top} is not a scored path to A")
            if top["meta_path"] != ["C", "P", "A"]:
                path = "-".join(top["meta_path"])
                problems += self._miss(
                    s, "top1", i, f"seed {seed}: top-1 meta-path {path}, not C-P-A")
        for p in (out["data"], out["ckpt"]):
            shutil.rmtree(p)
        out["report"].unlink(missing_ok=True)
        return problems


_TRUNCATED = re.compile(r"truncated (\d+) prefixes with total mass (\S+);")


@dataclass
class _Explain:
    data: Path
    ckpt: Path
    report: Path
    n_target: int


class ExplainPerObject:
    """``hetconv explain --per-object`` against a graph and model on disk.

    The read-only path: ``io`` only loads, the model runs in eval mode
    without a tape, and ``interpret`` runs its per-object dynamic program
    (26 meta-paths at six layers, none truncated).
    """

    name = "explain_per_object"
    op_name = "explain_s"
    warmup = 1
    target = "A"

    def __init__(self, tiny: bool):
        self.n_authors = 60 if tiny else 1880  # 14,505 objects, 46,174 links

    def setup(self, seed: int, workdir: Path, values) -> _Explain:
        g = datagen.generate(datagen.dblp_spec(self.n_authors, seed=seed, noise=0.05))
        _prepared(g, values)
        cfg = train.TrainConfig(layer_widths=(32, 32, 16, 16, 8), seed=seed)
        params = train.build_params(g, cfg)
        s = _Explain(
            data=workdir / "data",
            ckpt=workdir / "model",
            report=workdir / "report.json",
            n_target=g.n_objects(self.target),
        )
        io.save_graph(s.data, g)
        model.save_model(s.ckpt, params, g.schema)
        values("io.graph_bytes", _dir_bytes(s.data))
        values("io.checkpoint_bytes", _dir_bytes(s.ckpt))
        return s

    def run(self, s: _Explain, i: int) -> tuple[int, list]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _quiet_cli(
                ["explain", "--model", str(s.ckpt), "--data", str(s.data),
                 "--target", self.target, "--per-object", "--out", str(s.report)]
            )
        return code, caught

    def check(self, s: _Explain, i: int, out: tuple[int, list], values) -> list[str]:
        code, caught = out
        # per_object_scores reports discarded prefixes only as a warning.
        truncated = [_TRUNCATED.search(str(w.message)) for w in caught]
        values("interpret.truncated_mass", sum(float(m[2]) for m in truncated if m))
        if code != cli.EXIT_OK:
            return [f"request {i}: explain exited {code}"]
        report = json.loads(s.report.read_text())
        problems = []
        total = math.fsum(e["score"] for e in report["global"])
        if abs(total - 1.0) > 1e-9:
            problems.append(f"request {i}: global scores sum to {total!r}")
        per_object = report["per_object"]
        if len(per_object) != s.n_target:
            problems.append(f"request {i}: {len(per_object)} per-object rows, not {s.n_target}")
        masses = [math.fsum(e["score"] for e in row) for row in per_object]
        scores = [e["score"] for row in per_object for e in row]
        if any(not -1e-9 <= x <= 1.0 + 1e-9 for x in masses + scores):
            problems.append(f"request {i}: a per-object mass lies outside [0, 1]")
        values("interpret.prefixes", len({tuple(e["meta_path"]) for row in per_object for e in row}))
        return problems


WORKLOADS = {w.name: w for w in (TrainLarge, PlantedPipeline, ExplainPerObject)}
