"""Spans around the package's public calls, recorded from outside it.

A traced operation swaps selected module attributes, and two ``Tape``
methods, for thin wrappers that record one span per call: name, start,
end, parent span and request id. The package's source is not touched and
``disable`` puts every original back, so untraced operations run the
unmodified code. Spans stay in memory until ``write``.

Callers inside the package look these names up at call time (``fit``
calls ``train.forward``, the CLI imports ``io.load_graph`` inside its
command functions), which is why each name is patched in every module
that holds a reference to it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

from hetconv import autodiff, cli, datagen, graph, interpret, io, model, train

# (module, attribute, span name); forward's span name also carries its mode.
_TARGETS = (
    (datagen, "generate", "datagen.generate"),
    (datagen, "with_splits", "datagen.with_splits"),
    (graph, "validate_graph", "graph.validate_graph"),
    (train, "validate_graph", "graph.validate_graph"),
    (model, "normalized_adjacency", "model.normalized_adjacency"),
    (train, "normalized_adjacency", "model.normalized_adjacency"),
    (model, "forward", "model.forward"),
    (train, "forward", "model.forward"),
    (train, "cross_entropy_loss", "train.cross_entropy_loss"),
    (train, "adam_step", "train.adam_step"),
    (train, "evaluate", "train.evaluate"),
    (train, "fit", "train.fit"),
    (io, "save_graph", "io.save_graph"),
    (io, "load_graph", "io.load_graph"),
    (io, "write_json", "io.write_json"),
    (model, "save_model", "model.save_model"),
    (model, "load_model", "model.load_model"),
    (interpret, "summarize_attention", "interpret.summarize_attention"),
    (interpret, "score_meta_paths", "interpret.score_meta_paths"),
    (interpret, "per_object_scores", "interpret.per_object_scores"),
    (cli, "main", "cli.main"),
    (autodiff.Tape, "backward", "autodiff.backward"),
)

# Per-layer time metric -> span name.
TIMED = {
    "autodiff.backward_s": "autodiff.backward",
    "model.forward_train_s": "model.forward_train",
    "model.forward_eval_s": "model.forward_eval",
    "model.normalized_adjacency_s": "model.normalized_adjacency",
    "model.save_s": "model.save_model",
    "model.load_s": "model.load_model",
    "train.evaluate_s": "train.evaluate",
    "train.adam_step_s": "train.adam_step",
    "train.loss_s": "train.cross_entropy_loss",
    "train.fit_s": "train.fit",
    "io.save_graph_s": "io.save_graph",
    "io.load_graph_s": "io.load_graph",
    "io.write_json_s": "io.write_json",
    "interpret.summarize_s": "interpret.summarize_attention",
    "interpret.score_meta_paths_s": "interpret.score_meta_paths",
    "interpret.per_object_s": "interpret.per_object_scores",
    "datagen.generate_s": "datagen.generate",
    "graph.validate_s": "graph.validate_graph",
    "cli.explain_s": "cli.main",
}


class Tracer:
    """In-memory span and value recorder for one benchmark process."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.values: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._request: str | None = None
        self._originals: list[tuple[object, str, object]] = []
        self._records = 0
        self._record_bytes = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._request])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, request_id: str, kind: str):
        """One setup or operation: a root span that the layer spans nest in."""
        self._request = request_id
        idx = self._open(kind)
        try:
            yield
        finally:
            self._close(idx)
            self._request = None

    def value(self, name: str, x: float) -> None:
        """Record a count or size measured at a layer boundary."""
        self.values.setdefault(name, []).append(float(x))

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        if name == "model.forward":

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
                idx = tracer._open(f"model.forward_{mode}")
                records, nbytes = tracer._records, tracer._record_bytes
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                    if mode == "train":
                        tracer.value("autodiff.tape_records", tracer._records - records)
                        tracer.value("autodiff.tape_bytes", tracer._record_bytes - nbytes)

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def enable(self) -> None:
        """Install the wrappers; a no-op when they are already installed."""
        if self._originals:
            return
        for owner, attr, name in _TARGETS:
            fn = getattr(owner, attr)
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))
        record = autodiff.Tape.record
        tracer = self

        def counted(tape, out, backward):
            tracer._records += 1
            tracer._record_bytes += out.value.nbytes
            return record(tape, out, backward)

        self._originals.append((autodiff.Tape, "record", record))
        autodiff.Tape.record = counted

    def disable(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    # -- summaries ---------------------------------------------------------

    def _per_request(self) -> dict[str, dict[str, float]]:
        """Total inclusive seconds per span name, per request."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, _, req in self.spans:
            per = out.setdefault(name, {})
            per[req] = per.get(req, 0.0) + (end - start)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Median of a layer's time per operation, over the operations that
        call it; for a layer only set-up calls, per set-up. A layer that
        the workload never calls reads 0."""
        per = self._per_request()
        metrics = {}
        for metric, span in TIMED.items():
            times = per.get(span, {})
            in_ops = [t for req, t in times.items() if req.startswith("op.")]
            metrics[metric] = statistics.median(in_ops or times.values()) if times else 0.0
        train_forwards = [
            req for name, *_, req in self.spans if name == "model.forward_train"
        ]
        metrics["train.epochs"] = float(
            statistics.median(train_forwards.count(r) for r in set(train_forwards))
            if train_forwards
            else 0.0
        )
        return metrics

    def coverage(self) -> float:
        """Median share of a traced operation's time inside its layer spans."""
        children: dict[int, float] = {}
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        shares = [
            children.get(i, 0.0) / (end - start)
            for i, (name, start, end, parent, _) in enumerate(self.spans)
            if name == "op"
        ]
        return statistics.median(shares) if shares else 0.0

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, req in self.spans:
                f.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - self.t0,
                            "end": end - self.t0,
                            "parent": parent,
                            "request": req,
                        }
                    )
                    + "\n"
                )
