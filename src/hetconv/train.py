"""Semi-supervised classification: objective, optimizer, fit loop, metrics."""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Iterator, Mapping

import numpy as np

from . import rng as rng_mod
from .autodiff import GradCheckReport, GradMatrix, Tape, cross_entropy, gradcheck
# normalized_adjacency is unused here, but hetbench/spans.py patches train's reference
from .graph import HinGraph, normalized_adjacency, split_rows, validate_graph  # noqa: F401
from .io import checked_finite, checked_integer
from .model import ModelParams, clone_with, forward, init_params


@dataclass
class TrainConfig:
    """Hyperparameters; defaults follow the reference setup.

    ``layer_widths`` are the widths of layers 2..N. For labeled types the
    final layer width is forced to the class count so the last layer's
    rows act as classification logits; unlabeled types keep the configured
    final width.
    """

    learning_rate: float = 0.01
    l2_weight: float = 5e-4
    dropout_rate: float = 0.5
    max_epochs: int = 300
    patience: int = 30
    seed: int = 0
    layer_widths: tuple[int, ...] = (64, 32, 16, 8)
    d_a: int = 64
    mean_variant: bool = False
    loss_weights: dict[str, float] | None = None

    def __post_init__(self):
        self.max_epochs = checked_integer("max_epochs", self.max_epochs, 0)
        self.patience = checked_integer("patience", self.patience, 0)
        self.seed = checked_integer("seed", self.seed)
        self.d_a = checked_integer("d_a", self.d_a, 1)
        if not isinstance(self.layer_widths, (list, tuple)) or not self.layer_widths:
            raise ValueError(
                f"layer_widths must be a non-empty list of integers, got {self.layer_widths!r}"
            )
        self.layer_widths = tuple(
            checked_integer(f"layer_widths[{i}]", w, 1) for i, w in enumerate(self.layer_widths)
        )
        if not isinstance(self.mean_variant, bool):
            raise ValueError(f"mean_variant must be true or false, got {self.mean_variant!r}")
        checked_finite("learning_rate", self.learning_rate, lambda v: v > 0, "> 0")
        checked_finite("l2_weight", self.l2_weight, lambda v: v >= 0, ">= 0")
        checked_finite("dropout_rate", self.dropout_rate, lambda v: 0 <= v < 1, "in [0, 1)")
        if self.patience > self.max_epochs:
            raise ValueError("patience must not exceed max_epochs")
        if not isinstance(self.loss_weights, (dict, type(None))):
            raise ValueError("loss_weights must map object types to weights")
        for t, w in (self.loss_weights or {}).items():
            checked_finite(f"loss_weights[{t!r}]", w, lambda v: v >= 0, ">= 0")


def config_from_json(obj) -> TrainConfig:
    """TrainConfig from a JSON object; unknown keys are rejected."""
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - {f.name for f in fields(TrainConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return TrainConfig(**obj)


# Adam's moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment estimates per named parameter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @staticmethod
    def for_params(named: Mapping[str, GradMatrix]) -> "AdamState":
        return AdamState(
            m={k: np.zeros_like(p.value) for k, p in named.items()},
            v={k: np.zeros_like(p.value) for k, p in named.items()},
        )


def adam_step(
    named: Mapping[str, GradMatrix],
    state: AdamState,
    lr: float,
    l2_weight: float = 0.0,
) -> None:
    """Bias-corrected Adam update in place.

    The l2 penalty enters as an extra gradient term ``l2_weight * theta``
    before the moment updates (coupled weight decay). A non-finite gradient,
    or one whose square overflows the bias-corrected second moment, raises
    FloatingPointError naming the step, which is the epoch in ``fit``, and
    the parameter, before that parameter is updated.
    """
    state.step += 1
    t = state.step
    for name, p in named.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.value)
        if l2_weight:
            g = g + l2_weight * p.value
        state.m[name] = BETA1 * state.m[name] + (1 - BETA1) * g
        # v_hat is at least v, so a finite v_hat means a finite v, hence a
        # finite g and m; on step 1 v_hat is 1000 v and can overflow alone
        with np.errstate(over="ignore"):
            state.v[name] = BETA2 * state.v[name] + (1 - BETA2) * g * g
            v_hat = state.v[name] / (1 - BETA2**t)
        if not np.isfinite(v_hat).all():
            raise FloatingPointError(
                f"epoch {t}: parameter {name}: non-finite gradient or moment"
            )
        m_hat = state.m[name] / (1 - BETA1**t)
        p.value = p.value - lr * m_hat / (np.sqrt(v_hat) + EPS)


def cross_entropy_loss(
    final: Mapping[str, GradMatrix],
    labels: Mapping[str, np.ndarray],
    labeled_idx: Mapping[str, np.ndarray],
    weights: Mapping[str, float] | None = None,
) -> GradMatrix:
    """Softmax cross-entropy summed over the labeled objects of each type.

    Per-type weights are optional; the default is the plain (unweighted)
    sum over types.
    """
    terms = []
    for t in labeled_idx:
        idx = np.asarray(labeled_idx[t], dtype=np.int64)
        if len(idx):
            weight = float(weights[t]) if weights and t in weights else 1.0
            terms.append((final[t], idx, labels[t][idx], weight))
    if not terms:
        raise ValueError("no labeled objects to compute a loss over")
    return cross_entropy(terms)


def classification_metrics(
    y_true: np.ndarray, y_pred: np.ndarray, n_classes: int
) -> dict:
    """Accuracy, micro/macro F1, per-class F1 over ``range(n_classes)``.

    Micro counts are pooled over classes; in single-label classification
    that makes micro F1 equal accuracy. Classes absent from both the truth
    and the predictions contribute an F1 of 0 to the macro average.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) == 0:
        raise ValueError("cannot score an empty index set")
    tp = np.zeros(n_classes)
    fp = np.zeros(n_classes)
    fn = np.zeros(n_classes)
    for c in range(n_classes):
        tp[c] = np.sum((y_pred == c) & (y_true == c))
        fp[c] = np.sum((y_pred == c) & (y_true != c))
        fn[c] = np.sum((y_pred != c) & (y_true == c))
    denom = 2 * tp + fp + fn
    per_class = np.divide(2 * tp, denom, out=np.zeros(n_classes), where=denom > 0)
    micro_denom = 2 * tp.sum() + fp.sum() + fn.sum()
    return {
        "accuracy": float(np.mean(y_true == y_pred)),
        "micro_f1": float(2 * tp.sum() / micro_denom) if micro_denom else 0.0,
        "macro_f1": float(per_class.mean()),
        "per_class_f1": [float(x) for x in per_class],
    }


def split_indices(g: HinGraph, split: str | Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The non-empty index arrays per type of a split, given by name
    (``graph.split_rows``) or as an index map; a ValueError names the
    split if nothing is left."""
    if isinstance(split, str):
        name, parts = f"split {split!r}", split_rows(g, split)
        types = sorted(t for t, named in g.splits.items() if split in named)
    else:
        name, types = "split", sorted(split)
        parts = {t: np.asarray(v, dtype=np.int64) for t, v in split.items() if len(v)}
    if not parts:
        where = f"types {types}" if types else "no type"
        raise ValueError(f"empty {name} for {where}: nothing to evaluate")
    return parts


def split_metrics(
    g: HinGraph, final: Mapping[str, GradMatrix], parts: Mapping[str, np.ndarray]
) -> dict[str, dict]:
    """Metrics per type of ``split_indices``' ``parts``, classifying each
    object by the argmax of its eval-mode final representation."""
    out = {}
    for t, idx in parts.items():
        truth = g.labels[t][idx]
        if truth.min() < 0:
            raise ValueError(f"split for type {t} contains unlabeled objects")
        pred = final[t].value[idx].argmax(axis=1)
        out[t] = classification_metrics(truth, pred, g.class_counts[t])
    return out


def evaluate(
    params: ModelParams,
    g: HinGraph,
    split: str | Mapping[str, np.ndarray],
    norm_adj=None,
) -> dict[str, dict]:
    """Metrics per labeled type on the given split (name or index map),
    from one eval-mode ``forward`` given the split's index map: it
    computes only the rows those objects read (``graph.row_plan``)."""
    parts = split_indices(g, split)
    h, _ = forward(params, g, mode="eval", norm_adj=norm_adj, outputs=parts)
    return split_metrics(g, h, parts)


def _val_score(metrics: Mapping[str, dict]) -> float:
    return float(np.mean([m["micro_f1"] for m in metrics.values()]))


def build_params(g: HinGraph, cfg: TrainConfig) -> ModelParams:
    """Initialize model parameters sized for the graph and config: float32,
    or float64 when the features are too large to train in float32
    (``HinGraph.trains_in_float32``)."""
    widths: list[int | dict[str, int]] = list(cfg.layer_widths[:-1])
    final = {
        t: g.class_counts[t] if t in g.class_counts and t in g.labels else cfg.layer_widths[-1]
        for t in g.schema.object_types
    }
    widths.append(final)
    in_dims = {t: g.features[t].shape[1] for t in g.schema.object_types}
    dtype = np.float32 if g.trains_in_float32() else np.float64
    return init_params(
        g.schema, in_dims, widths, cfg.d_a, cfg.seed, cfg.mean_variant, dtype
    )


def model_loss_gradcheck(
    g: HinGraph,
    cfg: TrainConfig,
    h: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """End-to-end gradient check of forward + loss over every parameter of
    a fresh ``build_params(g, cfg)``, in float64.

    Runs in eval mode (no dropout) so the objective is deterministic; the
    loss covers all labeled objects. The pass is given their index map,
    so it computes only the blocks, and in them the rows, that the loss
    reads (``graph.row_plan``); where some objects are unlabeled, the
    check runs through the row gathers and the final scatter. A parameter of a block the loss does not read
    gets a zero gradient on both routes; the report still lists it.
    """
    params = build_params(g, cfg)
    labeled_idx = {
        t: np.nonzero(lab >= 0)[0] for t, lab in g.labels.items() if (lab >= 0).any()
    }
    if not labeled_idx:
        raise ValueError("gradcheck needs at least one labeled object")
    values = {k: p.value for k, p in params.named().items()}

    def f(leaves):
        model = clone_with(params, g.schema, leaves)
        final, _ = forward(model, g, mode="eval", outputs=labeled_idx)
        return cross_entropy_loss(final, g.labels, labeled_idx)

    return gradcheck(f, values, h=h, tol=tol)


def train_step(
    g: HinGraph,
    params: ModelParams,
    adam: AdamState,
    cfg: TrainConfig,
    train_idx: Mapping[str, np.ndarray],
    epoch: int,
) -> float:
    """One optimization step: train-mode forward, the weighted loss over
    ``train_idx``, backward, Adam. Returns the loss; a non-finite loss
    raises FloatingPointError naming the epoch before the backward pass.

    The dropout masks come from the stream of ``(cfg.seed, epoch)``, so a
    step is reproducible from its epoch number alone. The forward pass is
    given ``train_idx``, so it computes only the blocks, and in them the
    rows, that the loss reads (``graph.row_plan``), and draws masks for
    those rows alone. It is the pass ``forward``'s train-mode default
    makes, bit for bit, when ``train_idx`` is ``split_rows(g, "train")``,
    as in ``epochs``.
    """
    tape = Tape()
    params.attach(tape)
    h, _ = forward(
        params,
        g,
        mode="train",
        rng=rng_mod.stream(cfg.seed, "dropout", epoch),
        dropout_rate=cfg.dropout_rate,
        outputs=train_idx,
    )
    loss = cross_entropy_loss(h, g.labels, train_idx, cfg.loss_weights)
    value = float(loss.value[0, 0])
    if not np.isfinite(value):
        raise FloatingPointError(f"epoch {epoch}: train loss is {value}")
    tape.backward(loss)
    adam_step(params.named(), adam, cfg.learning_rate, cfg.l2_weight)
    params.attach(None)
    return value


def epochs(g: HinGraph, cfg: TrainConfig, params: ModelParams) -> Iterator[dict]:
    """Train ``params`` in place with Adam, one epoch per step of the
    generator, and yield each epoch's log record.

    Per epoch: one train-mode forward over the rows the train split
    reads, the loss over the train split, one backward pass, one
    optimizer step, then an eval-mode pass over the rows the validation
    split reads, for the validation metrics. Runs at most
    ``cfg.max_epochs`` epochs and never stops early; the consumer does.
    The graph is checked before the first epoch. A non-finite train loss,
    gradient or Adam moment raises FloatingPointError naming the epoch.
    """
    problems = validate_graph(g)
    if problems:
        raise ValueError("invalid graph: " + "; ".join(problems))
    train_idx = split_rows(g, "train")
    if not train_idx:
        raise ValueError("training needs at least one labeled object with splits")
    unused = sorted(set(cfg.loss_weights or ()) - set(train_idx))
    if unused:
        raise ValueError(f"loss_weights name types with no train labels: {unused}")
    # without val rows, early stopping follows -loss
    val_idx = split_rows(g, "val")
    adam = AdamState.for_params(params.named())
    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        loss = train_step(g, params, adam, cfg, train_idx, epoch)
        val_metrics = evaluate(params, g, val_idx) if val_idx else {}
        yield {
            "epoch": epoch,
            "train_loss": loss,
            "val_micro_f1": _val_score(val_metrics) if val_metrics else None,
            "val_macro_f1": float(
                np.mean([m["macro_f1"] for m in val_metrics.values()])
            )
            if val_metrics
            else None,
            "epoch_seconds": time.perf_counter() - t0,
        }


def fit(g: HinGraph, cfg: TrainConfig) -> tuple[ModelParams, list[dict]]:
    """Train a fresh ``build_params(g, cfg)`` through ``epochs``, with
    early stopping on validation micro F1 (on -loss without a validation
    split), and keep the parameters of the best epoch. The log holds one
    record per epoch run.
    """
    params = build_params(g, cfg)
    named = params.named()
    log: list[dict] = []
    best_score = -np.inf
    best_values: dict[str, np.ndarray] = {k: p.value.copy() for k, p in named.items()}
    stale = 0
    for record in epochs(g, cfg, params):
        log.append(record)
        score = record["val_micro_f1"]
        if score is None:
            score = -record["train_loss"]
        if score > best_score:
            best_score = score
            best_values = {k: p.value.copy() for k, p in named.items()}
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience > 0:
                break
    for k, p in named.items():
        p.value = best_values[k]
    return params, log
