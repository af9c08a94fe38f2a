"""Meta-path importance extraction from attention records.

Every block's object-level averaging plus type-level attention defines a
selection probability distribution over {stay, hop to a neighbor type}.
Reading those selections backward from the output layer enumerates every
meta-path the model can evaluate up to its depth; multiplying the chosen
coefficients scores it. Global scores use the mean attention distribution
of each block; per-object scores propagate exact per-object coefficients
and row-normalized link weights through a dynamic program over layers.

Stay-choices come in two kinds: the dummy self projection, which does not
consume a schema relation and is collapsed out of the reported meta-path,
and a real self-relation of the schema, which is kept as an explicit hop.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .graph import HinGraph, Schema, row_plan

# a dummy-self choice; real self-relations use the type name instead
Choice = str | None

MEAN_SUM_TOL = 1e-6


@dataclass(frozen=True)
class AttentionSummary:
    """Mean attention distribution of each block at each transition.

    ``tables[i][omega]`` is the column mean of block ``omega``'s attention
    at the transition from layer ``i + 1`` to ``i + 2``, over
    [Self] + neighbor types in schema order. Blocks may be absent from a
    transition (e.g. summaries restricted to what a report needs).
    """

    schema: Schema
    tables: tuple[Mapping[str, np.ndarray], ...]

    def __post_init__(self):
        frozen = []
        for i, table in enumerate(self.tables):
            clean = {}
            for omega, vec in table.items():
                vec = np.asarray(vec, dtype=np.float64)
                want = 1 + len(self.schema.neighbor_types(omega))
                if vec.shape != (want,):
                    raise ValueError(
                        f"transition {i + 1}-{i + 2} block {omega}: expected "
                        f"{want} coefficients, got shape {vec.shape}"
                    )
                if (
                    not np.isfinite(vec).all()
                    or abs(vec.sum() - 1.0) > MEAN_SUM_TOL
                    or vec.min() < 0
                ):
                    raise ValueError(
                        f"transition {i + 1}-{i + 2} block {omega}: mean "
                        "attention is not a probability distribution"
                    )
                clean[omega] = vec
            frozen.append(clean)
        object.__setattr__(self, "tables", tuple(frozen))

    @property
    def n_layers(self) -> int:
        return len(self.tables) + 1

    def coefficient(self, transition: int, omega: str, choice: Choice) -> float:
        """Mean coefficient for a choice at a 0-based transition index."""
        table = self.tables[transition]
        if omega not in table:
            raise KeyError(
                f"summary has no block {omega} at transition "
                f"{transition + 1}-{transition + 2}"
            )
        if choice is None:
            return float(table[omega][0])
        return float(table[omega][1 + self.schema.neighbor_types(omega).index(choice)])


def summarize_attention(
    records: Sequence[Mapping[str, np.ndarray]], schema: Schema
) -> AttentionSummary:
    """Column means of the per-object attention from a forward pass."""
    tables = []
    for layer in records:
        tables.append(
            {omega: att.mean(axis=0) for omega, att in layer.items() if len(att)}
        )
    return AttentionSummary(schema=schema, tables=tuple(tables))


@dataclass(frozen=True)
class ChoiceSequence:
    """One backward chain of per-transition selections for a target type.

    ``choices[0]`` is the selection at the topmost transition and
    ``choices[-1]`` the one into layer 1; ``None`` stays in the block via
    the dummy self projection, a type name hops to that neighbor block.
    """

    target: str
    choices: tuple[Choice, ...]
    score: float = 0.0

    def blocks(self) -> tuple[str, ...]:
        """Block type per layer, from the output layer down to layer 1."""
        out = [self.target]
        for c in self.choices:
            out.append(out[-1] if c is None else c)
        return tuple(out)

    def meta_path(self) -> tuple[str, ...]:
        """Type sequence read source to target, dummy self-hops collapsed."""
        blocks = self.blocks()
        path = [blocks[-1]]
        for i in range(len(self.choices) - 1, -1, -1):
            if self.choices[i] is not None:
                path.append(blocks[i])
        return tuple(path)


@dataclass(frozen=True)
class MetaPathScore:
    """A meta-path with its total importance and its merged contributors."""

    meta_path: tuple[str, ...]
    score: float
    contributors: tuple[ChoiceSequence, ...]


def enumerate_choice_sequences(
    schema: Schema, target: str, n_layers: int
) -> list[ChoiceSequence]:
    """All backward chains of ``n_layers - 1`` selections from the target
    block: each step stays put or moves to a neighbor type of the current
    block. Deterministic order: self first, then neighbors in schema order."""
    if target not in schema.object_types:
        raise KeyError(f"unknown object type: {target!r}")
    if n_layers < 2:
        raise ValueError("need at least 2 layers (one transition)")
    sequences: list[ChoiceSequence] = []

    def descend(block: str, chosen: tuple[Choice, ...]) -> None:
        if len(chosen) == n_layers - 1:
            sequences.append(ChoiceSequence(target=target, choices=chosen))
            return
        descend(block, chosen + (None,))
        for gamma in schema.neighbor_types(block):
            descend(gamma, chosen + (gamma,))

    descend(target, ())
    return sequences


def score_meta_paths(
    summary: AttentionSummary, target: str
) -> list[MetaPathScore]:
    """Rank meta-paths by the product of mean attention coefficients.

    Each choice sequence scores the product of the chosen coefficients
    across transitions; sequences whose collapsed type sequence coincides
    merge by summation. Ranked descending, ties broken lexicographically
    on the type sequence.
    """
    n_layers = summary.n_layers
    merged: dict[tuple[str, ...], list[ChoiceSequence]] = {}
    for seq in enumerate_choice_sequences(summary.schema, target, n_layers):
        blocks = seq.blocks()
        score = 1.0
        for i, choice in enumerate(seq.choices):
            transition = n_layers - 2 - i
            score *= summary.coefficient(transition, blocks[i], choice)
        scored = ChoiceSequence(target=target, choices=seq.choices, score=score)
        merged.setdefault(scored.meta_path(), []).append(scored)
    results = [
        MetaPathScore(
            meta_path=path,
            score=sum(s.score for s in seqs),
            contributors=tuple(seqs),
        )
        for path, seqs in merged.items()
    ]
    results.sort(key=lambda r: (-r.score, r.meta_path))
    return results


def per_object_masses(
    g: HinGraph,
    records: Sequence[Mapping[str, np.ndarray]],
    target: str,
    max_tracked: int = 256,
) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """Exact per-object meta-path masses by forward dynamic programming.

    Returns the target's tracked prefixes (meta-paths) and an
    ``n_paths x n_objects`` float64 array whose row ``p`` is prefix ``p``'s
    mass over the target's objects.

    For every type we keep, per meta-path prefix, a mass vector over that
    type's objects. A dummy-self step multiplies by the object's own self
    coefficient; a relation step pushes mass through the row-normalized
    adjacency times the per-object attention coefficient and extends the
    prefix. Prefix masses per object sum to 1 at every layer when nothing
    is truncated and no object is isolated.

    Each layer carries only the blocks of the target's ``graph.row_plan``,
    cached by the ``forward(outputs=[target])`` that gives ``records``,
    and a relation step reads the block's plan ``adjacency``. When a block
    tracks more than ``max_tracked`` prefixes, the lowest-mass prefixes
    are dropped with a warning stating how many were dropped and their
    total mass; both count only prefixes that can reach the target, and
    the kept ones follow in descending total mass, ties in prefix order.
    """
    plan = row_plan(g, (target,), len(records))
    scores: dict[str, dict[tuple[str, ...], np.ndarray]] = {
        t: {(t,): np.ones(g.n_objects(t))} for t in g.schema.object_types
    }
    dropped_mass = 0.0
    dropped_prefixes = 0
    for layer, blocks in zip(records, plan.blocks):
        new_scores: dict[str, dict[tuple[str, ...], np.ndarray]] = {}
        for omega, reads in blocks.items():
            att = layer[omega]
            acc: dict[tuple[str, ...], np.ndarray] = {}
            for prefix, mass in scores[omega].items():
                acc[prefix] = att[:, 0] * mass
            for j, (gamma, a_hat) in enumerate(reads.adjacency.items()):
                coeff = att[:, 1 + j]
                for prefix, mass in scores[gamma].items():
                    pushed = coeff * a_hat.matmul(mass[:, None])[:, 0]
                    key = prefix + (omega,)
                    if key in acc:
                        acc[key] = acc[key] + pushed
                    else:
                        acc[key] = pushed
            if len(acc) > max_tracked:
                ranked = sorted(
                    acc.items(), key=lambda kv: (-kv[1].sum(), kv[0])
                )
                for key, mass in ranked[max_tracked:]:
                    dropped_mass += float(mass.sum())
                    dropped_prefixes += 1
                acc = dict(ranked[:max_tracked])
            new_scores[omega] = acc
        scores = new_scores
    if dropped_prefixes:
        warnings.warn(
            f"per-object meta-path tracking truncated {dropped_prefixes} "
            f"prefixes with total mass {dropped_mass:.6g}; raise max_tracked "
            "for exact scores",
            RuntimeWarning,
            stacklevel=2,
        )
    tracked = scores[target]
    masses = np.array(list(tracked.values())).reshape(len(tracked), g.n_objects(target))
    return list(tracked), masses


def per_object_scores(
    g: HinGraph,
    records: Sequence[Mapping[str, np.ndarray]],
    target: str,
    max_tracked: int = 256,
) -> list[dict[tuple[str, ...], float]]:
    """``per_object_masses`` as one dict per target object, mapping each
    meta-path with nonzero mass to that mass, in prefix order."""
    prefixes, masses = per_object_masses(g, records, target, max_tracked)
    out: list[dict[tuple[str, ...], float]] = [{} for _ in range(masses.shape[1])]
    for prefix, mass in zip(prefixes, masses):
        for i in np.nonzero(mass)[0]:
            out[i][prefix] = float(mass[i])
    return out


def per_object_json(
    prefixes: Sequence[tuple[str, ...]], masses: np.ndarray, top_k: int = 0
) -> Iterator[str]:
    """Each object's ranked meta-paths as compact JSON text, one object
    (column of ``masses``) at a time.

    An object's list is ``[{"meta_path": [...], "score": mass}, ...]``
    over its nonzero masses in descending order, ties in prefix order,
    cut to the first ``top_k`` (all when 0): the bytes ``json.dumps`` with
    compact separators writes for that list. Each path's JSON is encoded
    once; a score is written as ``repr(float)``, as ``json`` writes a
    finite float, so non-finite masses are a FloatingPointError.
    """
    if not np.isfinite(masses).all():
        raise FloatingPointError("non-finite per-object meta-path mass")
    heads = [
        '{"meta_path":' + json.dumps(list(p), separators=(",", ":")) + ',"score":'
        for p in prefixes
    ]
    # a stable sort keeps equal masses in prefix order, as sorted() does
    order = np.argsort(-masses, axis=0, kind="stable")
    ranked = np.take_along_axis(masses, order, axis=0)
    keep = ranked != 0
    if top_k:
        keep &= np.cumsum(keep, axis=0) <= top_k
    # object-major: each object's kept entries, best first
    paths = order.T[keep.T].tolist()
    scores = ranked.T[keep.T].tolist()
    start = 0
    for end in np.cumsum(keep.sum(axis=0)).tolist():
        yield "[" + ",".join(
            [heads[p] + repr(s) + "}" for p, s in zip(paths[start:end], scores[start:end])]
        ) + "]"
        start = end


def summary_to_json(summary: AttentionSummary) -> dict:
    """Self-contained JSON form mirroring the per-transition mean tables."""
    transitions = []
    for i, table in enumerate(summary.tables):
        blocks = {}
        for omega, vec in table.items():
            neighbors = summary.schema.neighbor_types(omega)
            blocks[omega] = {
                "self": float(vec[0]),
                "neighbors": {gm: float(vec[1 + j]) for j, gm in enumerate(neighbors)},
            }
        transitions.append({"layers": f"{i + 1}-{i + 2}", "blocks": blocks})
    return {
        "n_layers": summary.n_layers,
        "schema": summary.schema.to_json(),
        "transitions": transitions,
    }


def summary_from_json(obj: Mapping) -> AttentionSummary:
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    schema = Schema.from_json(obj["schema"])
    tables = []
    for entry in obj["transitions"]:
        table = {}
        for omega, coeffs in entry["blocks"].items():
            neighbors = schema.neighbor_types(omega)
            vec = [coeffs["self"]] + [coeffs["neighbors"][gm] for gm in neighbors]
            table[omega] = np.array(vec)
        tables.append(table)
    return AttentionSummary(schema=schema, tables=tuple(tables))


def report_to_json(results: Sequence[MetaPathScore]) -> list[dict]:
    """Ranked report: meta-path, score, and merged contributor sequences."""
    return [
        {
            "meta_path": list(r.meta_path),
            "score": r.score,
            "contributors": [
                {"choices": list(c.choices), "score": c.score}
                for c in r.contributors
            ],
        }
        for r in results
    ]

