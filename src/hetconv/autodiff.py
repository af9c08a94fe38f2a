"""Dense kernels and a minimal reverse-mode tape.

The tape is closed-world: it records exactly the five primitives the
model needs and nothing else:

- ``matmul``: dense product, optionally written into a given array;
- ``spmm``: sparse-dense product (the adjacency carries no gradient);
- ``attend``: a block's type-level step, attention over the per-type
  candidates, their mix and the output ELU. It reads the candidates as
  one candidate-major k x n x d array: ``model.hetero_conv`` writes them
  into the slabs of one such buffer, and any other list is stacked once;
- ``dropout``: inverted dropout;
- ``cross_entropy``: the whole weighted classification loss.

All values are 2-D float32 or float64 arrays; a scalar is a 1x1 matrix.
Every primitive computes in its operands' dtype. In ``model.forward``
that is the parameters' dtype, in train and eval mode alike: float32
unless the features are too large (see ``train.build_params``).
Probabilities and losses are float64 either way: ``attend`` computes its
attention logits and softmax, and ``cross_entropy`` its log-sum-exp, in
float64 and hands the gradients back in the operands' dtype.

A ``GradMatrix`` is tracked when it carries a tape reference. Operations
record a backward closure when any input is tracked; ``Tape.backward``
replays the records in exact reverse order, accumulating into ``.grad``
arrays that are allocated lazily.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .graph import SparseAdj


# glibc mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _retain_freed_memory() -> None:
    """Keep the memory a backward pass frees in the process heap, once per process.

    Every taped pass allocates and frees its activations and gradients.
    With glibc's adaptive defaults the heap top goes back to the OS
    whenever a few MB lie free there, so the next forward pass faults its
    working set back in page by page: 10,000 faults, about a fifth of the
    epoch, on the ``dblp_spec(940)`` graph and none on the graph half its
    size, which bent epoch time upward between those two scales.
    Fixed thresholds (arrays up to 32 MB from the heap, no trimming below
    1 GB of free top) keep the pages mapped; peak memory is unchanged.
    A no-op where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


class Tape:
    """Ordered record of primitive operations for one forward pass.

    The first tape of a process makes the heap keep freed memory; see
    ``_retain_freed_memory``.
    """

    def __init__(self):
        _retain_freed_memory()
        self._records: list[tuple["GradMatrix", Callable[[np.ndarray], None]]] = []

    def record(self, out: "GradMatrix", backward: Callable[[np.ndarray], None]) -> None:
        self._records.append((out, backward))

    def backward(self, loss: "GradMatrix") -> None:
        """Accumulate d(loss)/d(leaf) into every tracked leaf's ``.grad``.

        One-shot: each record (and with it the activations it saved) is
        released as soon as its backward has run, so the gradients of the
        lower layers reuse the memory of the upper layers' activations.
        Values are consumed too: ``attend`` writes its candidate gradients
        over its candidate buffer, every slab included, tracked or not.
        """
        if loss.value.shape != (1, 1):
            raise ValueError(f"backward needs a scalar loss, got {loss.value.shape}")
        if loss.tape is not self:
            return  # constant loss: all gradients stay zero
        loss.grad = np.ones((1, 1), dtype=loss.value.dtype)
        records = self._records
        while records:
            out, backward = records.pop()
            if out.grad is not None:
                backward(out.grad)


_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


class GradMatrix:
    """A 2-D float32 or float64 value, optionally tracked on a tape.

    Float32 and float64 values are kept as they are; any other value is
    cast to float64.
    """

    __slots__ = ("value", "tape", "grad")

    def __init__(self, value: np.ndarray, tape: Tape | None = None):
        value = np.asarray(value)
        if value.dtype not in _FLOATS:
            value = value.astype(np.float64)
        if value.ndim != 2:
            raise ValueError(f"GradMatrix must be 2-D, got shape {value.shape}")
        self.value = value
        self.tape = tape
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def watch(self, tape: Tape | None) -> "GradMatrix":
        """(Re-)attach to a tape as a leaf, clearing any accumulated gradient."""
        self.tape = tape
        self.grad = None
        return self

    def __repr__(self):
        return f"GradMatrix(shape={self.value.shape}, tracked={self.tape is not None})"


def constant(value: np.ndarray) -> GradMatrix:
    return GradMatrix(value, tape=None)


def _tape_of(*xs: GradMatrix) -> Tape | None:
    tapes = {x.tape for x in xs if x.tape is not None}
    if len(tapes) > 1:
        raise ValueError("operands belong to different tapes")
    return tapes.pop() if tapes else None


def _accum(x: GradMatrix, g: np.ndarray) -> None:
    """Add ``g`` into ``x.grad``. Every backward pass hands over a ``g``
    that nothing else reads, freshly allocated or a slab of ``attend``'s
    candidate buffer, so the first one is adopted without a copy."""
    if x.tape is None:
        return
    if x.grad is None:
        x.grad = g
    else:
        x.grad += g


def matmul(a: GradMatrix, b: GradMatrix, out: np.ndarray | None = None) -> GradMatrix:
    """Dense product. Given ``out``, an array of the product's shape, the
    product is written there and the result's value is ``out`` itself:
    ``hetero_conv`` writes its candidates into the slabs of one buffer
    this way."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    if out is not None and out.shape != (a.shape[0], b.shape[1]):
        raise ValueError(f"matmul output shape mismatch: {a.shape} x {b.shape} into {out.shape}")
    tape = _tape_of(a, b)
    out = GradMatrix(np.matmul(a.value, b.value, out=out), tape)
    if tape is not None:
        av, bv = a.value, b.value

        # an untracked operand (the constant input features) needs no product
        def backward(g: np.ndarray) -> None:
            if a.tape is not None:
                _accum(a, g @ bv.T)
            if b.tape is not None:
                _accum(b, av.T @ g)

        tape.record(out, backward)
    return out


def spmm(a: SparseAdj, b: GradMatrix) -> GradMatrix:
    """Sparse-dense product; the sparse operand carries no gradient."""
    if a.n_cols != b.shape[0]:
        raise ValueError(
            f"spmm shape mismatch: ({a.n_rows}, {a.n_cols}) x {b.shape}"
        )
    tape = b.tape
    out = GradMatrix(a.matmul(b.value), tape)
    if tape is not None:

        def backward(g: np.ndarray) -> None:
            _accum(b, a.t_matmul(g))

        tape.record(out, backward)
    return out


def _elu(x: np.ndarray) -> np.ndarray:
    """Exponential linear unit, as a new array: x for x > 0, exp(x) - 1
    otherwise."""
    # expm1(min(x, 0)) is 0 where x > 0 and never below x, so the maximum
    # picks the right branch; one buffer, no masks
    neg = np.minimum(x, 0.0)
    np.expm1(neg, out=neg)
    return np.maximum(neg, x, out=neg)


def _candidate_buffer(values: Sequence[GradMatrix], dtype: np.dtype) -> np.ndarray:
    """The k x n x d array whose slab j is ``values[j]``'s value: the
    buffer the candidates were written into (see ``model.hetero_conv``),
    or, for any other list, one stacked copy."""
    k, (n, d) = len(values), values[0].shape
    buf = values[0].value.base
    if (
        isinstance(buf, np.ndarray)
        and buf.shape == (k, n, d)
        and buf.dtype == dtype
        and buf.flags.c_contiguous
        and all(
            z.value.base is buf
            and z.value.strides == buf.strides[1:]
            and z.value.ctypes.data == buf.ctypes.data + j * buf.strides[0]
            for j, z in enumerate(values)
        )
    ):
        return buf
    return np.stack([z.value for z in values], dtype=dtype)


def attend(
    values: Sequence[GradMatrix],
    w_k: GradMatrix | None = None,
    w_q: GradMatrix | None = None,
    w_a: GradMatrix | None = None,
) -> tuple[GradMatrix, np.ndarray]:
    """A block's type-level step as one record: attention over k same-shape
    candidates, their weighted mix and the output ELU.

    With the d x d_a key map ``w_k``, query map ``w_q`` and the 2d_a x 1
    attention vector ``w_a``, row i's weights are
    softmax_j(ELU([values[j][i] @ w_k || values[0][i] @ w_q] @ w_a)):
    ``values[0]`` is the query side and every candidate is a key. Without
    them every candidate weighs 1/k (the mean variant). Returns
    ELU(sum_j weight_j * values[j]) and the n x k weights, column j
    belonging to ``values[j]``. The backward pass differentiates the ELU,
    mix, softmax, logits and maps together and skips every untracked
    operand.

    The candidates are read as one candidate-major k x n x d array: the
    buffer whose consecutive slabs they are, as ``model.hetero_conv``
    returns them, or else one stacked copy. The logits are one mat-vec
    over its k*n rows; the mix is one batched product, each object's
    1 x k weights times its k x d rows. The backward pass writes all k
    candidate gradients over that k x n x d array with one batched product
    (per object, its weights and logit gradients times its row of the mix
    gradient and the folded key map) and hands each candidate its slab.
    So when any candidate is tracked, backward overwrites the whole buffer,
    every slab included, tracked or not: a candidate's value is no longer
    its forward value after ``Tape.backward``. Slabs of one buffer must
    therefore feed no other record, as ``model.hetero_conv``'s feed only
    this one; a stacked copy is attend's own.

    The logits, softmax and their backward run in float64 (k is small),
    and the returned weights are float64; the mix, the output ELU and
    every n x d gradient run in the candidates' dtype.
    """
    if not values:
        raise ValueError("attend needs at least one candidate")
    n, d = values[0].shape
    for z in values[1:]:
        if z.shape != (n, d):
            raise ValueError(f"attend candidates differ in shape: {(n, d)} vs {z.shape}")
    maps = tuple(m for m in (w_k, w_q, w_a) if m is not None)
    if len(maps) not in (0, 3):
        raise ValueError("attend needs the key map, the query map and w_a, or none")
    k = len(values)
    dtype = values[0].value.dtype
    buf = _candidate_buffer(values, dtype)
    flat = buf.reshape(k * n, d)
    # the weights are k x n, candidate-major like the buffer, so that their
    # reductions over the k candidates run along the long axis
    if not maps:
        att = np.full((k, n), 1.0 / k)
    else:
        d_a = w_k.shape[1]
        if w_k.shape != (d, d_a) or w_q.shape != (d, d_a) or w_a.shape != (2 * d_a, 1):
            raise ValueError(
                f"attend maps must be ({d}, {d_a}) and w_a ({2 * d_a}, 1), "
                f"got {w_k.shape}, {w_q.shape} and {w_a.shape}"
            )
        # the logit of [key || query] against w_a splits into two dot
        # products; folding w_a's halves into the maps first keeps every
        # per-object intermediate a single column; the maps are read in the
        # candidates' dtype
        m_k, m_q, m_a = (m.value.astype(dtype, copy=False) for m in maps)
        a_k, a_q = m_a[:d_a], m_a[d_a:]
        key, query = m_k @ a_k, m_q @ a_q
        # the logits and softmax are float64 whatever the compute dtype
        pre = (flat @ key[:, 0]).reshape(k, n).astype(np.float64, copy=False)
        pre += buf[0] @ query[:, 0]
        logits = _elu(pre)
        e = np.exp(logits - logits.max(axis=0))
        att = e / e.sum(axis=0)
    # the mix runs in the candidates' dtype, with the weights cast once;
    # each object's k weights times its k x d candidate rows, batched
    weights = att.astype(dtype, copy=False)
    by_object = buf.transpose(1, 0, 2)  # n x k x d, a view
    out_val = _elu(np.matmul(weights.T[:, None, :], by_object)[:, 0])
    tape = _tape_of(*values, *maps)
    out = GradMatrix(out_val, tape)
    if tape is not None:
        tracked = [j for j, z in enumerate(values) if z.tape is not None]

        def backward(g: np.ndarray) -> None:
            # object i's k candidate gradients are its k x r coefficients
            # times row i of the r basis slabs: the mix gradient and, with
            # maps, the key map folded with w_a
            basis = np.empty((2 if maps else 1, n, d), dtype=dtype)
            coef = np.empty((n, k, len(basis)), dtype=dtype)
            coef[:, :, 0] = weights.T
            # the output ELU's slope is 1 where the mix is > 0 and
            # exp(mix) = out + 1 elsewhere
            g_mix = np.minimum(out_val, 0.0, out=basis[0])
            g_mix += 1.0
            g_mix *= g
            if maps:
                # k x n and float64, like the weights
                d_att = np.matmul(by_object, g_mix[:, :, None])[:, :, 0].T
                d_att = d_att.astype(np.float64, order="C")
                slope = np.exp(np.minimum(pre, 0.0))
                d_pre = slope * att * (d_att - (d_att * att).sum(axis=0))
                d_q = d_pre.sum(axis=0)
                # back to the compute dtype for the n x d and parameter products
                d_pre = d_pre.astype(dtype, copy=False)
                d_q = d_q.astype(dtype, copy=False)
                coef[:, :, 1] = d_pre.T
                basis[1] = key[:, 0]
                d_key = flat.T @ d_pre.ravel()
                d_query = buf[0].T @ d_q
                if w_k.tape is not None:
                    _accum(w_k, np.outer(d_key, a_k))
                if w_q.tape is not None:
                    _accum(w_q, np.outer(d_query, a_q))
                if w_a.tape is not None:
                    _accum(w_a, np.concatenate([m_k.T @ d_key, m_q.T @ d_query])[:, None])
            if tracked:
                # written over the candidates, which nothing reads from here
                # on, so candidate j's gradient is slab j of the buffer
                np.matmul(coef, basis.transpose(1, 0, 2), out=buf.transpose(1, 0, 2))
                if maps:
                    # the query side is candidate 0's alone; the key slab is
                    # free for the product
                    buf[0] += np.multiply(d_q[:, None], query.T, out=basis[1])
                for j in tracked:
                    _accum(values[j], buf[j])

        tape.record(out, backward)
    return out, att.T


_MASK_LEVELS = 1 << 16  # a dropout mask draws uint16 integers


def dropout(x: GradMatrix, rate: float, rng: np.random.Generator) -> GradMatrix:
    """Inverted dropout: each entry is dropped with probability ``rate``
    rounded to a multiple of 2^-16 (at most 1 - 2^-16), and survivors are
    scaled by the inverse of the rounded keep probability, so an
    evaluation pass, which applies no dropout, needs no rescaling. The
    mask, of ``x``'s shape, compares uint16 draws from ``rng`` against the
    threshold, a quarter of the random bits of float64 draws. A rate of 0
    returns ``x`` without drawing from ``rng``."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    # a rate within 2^-17 of 1 rounds to 2^16, which would wrap to 0 in uint16
    threshold = min(round(rate * _MASK_LEVELS), _MASK_LEVELS - 1)
    keep = rng.integers(0, _MASK_LEVELS, size=x.shape, dtype=np.uint16) >= threshold
    scale = _MASK_LEVELS / (_MASK_LEVELS - threshold)
    out_val = np.multiply(x.value, keep)
    out_val *= scale
    tape = x.tape
    out = GradMatrix(out_val, tape)
    if tape is not None:

        def backward(g: np.ndarray) -> None:
            gx = np.multiply(g, keep)
            gx *= scale
            _accum(x, gx)

        tape.record(out, backward)
    return out


def cross_entropy(
    terms: Sequence[tuple[GradMatrix, np.ndarray, np.ndarray, float]],
) -> GradMatrix:
    """A whole classification loss as one record.

    Each term ``(logits, rows, targets, weight)`` adds ``weight`` times the
    sum of -ln softmax(logits[rows[i]])[targets[i]] over i; terms are
    summed in order. Fused log-sum-exp form in float64 over the selected
    rows: stable for large logits, and the backward pass scatters
    weight * (softmax - onehot) onto those rows in the logits' dtype,
    accumulating where a row repeats. The loss is float64.
    """
    saved = []
    total = 0.0
    for logits, rows, targets, weight in terms:
        rows = np.asarray(rows, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        x = logits.value[rows].astype(np.float64, copy=False)
        n, c = x.shape
        if len(targets) != n:
            raise ValueError(f"{len(targets)} targets for {n} rows")
        if n and (targets.min() < 0 or targets.max() >= c):
            raise ValueError(f"label index out of range for {c} classes")
        m = x.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=1))
        total += weight * float((lse - x[np.arange(n), targets]).sum())
        saved.append((logits, rows, targets, weight, x, lse))
    tape = _tape_of(*(s[0] for s in saved))
    out = GradMatrix(np.array([[total]]), tape)
    if tape is not None:

        def backward(g: np.ndarray) -> None:
            for logits, rows, targets, weight, x, lse in saved:
                if logits.tape is None:
                    continue
                soft = np.exp(x - lse[:, None])
                soft[np.arange(len(rows)), targets] -= 1.0
                full = np.zeros_like(logits.value)
                soft = (float(g[0, 0]) * weight * soft).astype(full.dtype, copy=False)
                np.add.at(full, rows, soft)
                _accum(logits, full)

        tape.record(out, backward)
    return out


def xavier_uniform(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. uniform on [-sqrt(6/(rows+cols)), +sqrt(6/(rows+cols))]."""
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


@dataclass
class GradCheckReport:
    """Per-parameter comparison of analytic and central-difference gradients.

    ``rel_err[p]`` is max over elements of |analytic - numeric| /
    max(|analytic|, |numeric|, floor): relative where gradients exceed the
    floor, absolute below it so near-zero entries do not divide away the
    tolerance. ``floor`` is max(1, eps * |f(x0)| / h), with eps the float64
    machine epsilon: the rounding of f hides any gradient below about
    that from a central difference. It is 1 while |f| < h / eps.
    """

    rel_err: dict[str, float]
    abs_err: dict[str, float]
    h: float
    tol: float
    floor: float
    max_rel_err: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.max_rel_err = max(self.rel_err.values(), default=0.0)
        self.passed = self.max_rel_err <= self.tol


def gradcheck(
    f: Callable[[Mapping[str, GradMatrix]], GradMatrix],
    params: Mapping[str, np.ndarray],
    h: float = 1e-5,
    tol: float = 1e-5,
) -> GradCheckReport:
    """Check the tape's backward pass against central finite differences.

    ``f`` maps named GradMatrix leaves to a scalar GradMatrix. The analytic
    gradient comes from one taped forward/backward; the numeric one
    perturbs every parameter element by +-h through untracked re-evaluation,
    so the two routes share no code beyond ``f`` itself.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    tape = Tape()
    leaves = {k: GradMatrix(np.array(v, dtype=np.float64), tape) for k, v in params.items()}
    out = f(leaves)
    if out.value.shape != (1, 1) or not np.isfinite(out.value[0, 0]):
        raise ValueError("gradcheck needs a finite scalar function value")
    floor = max(1.0, np.finfo(np.float64).eps * abs(float(out.value[0, 0])) / h)
    tape.backward(out)
    analytic = {
        k: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value))
        for k, leaf in leaves.items()
    }

    def eval_at(values: Mapping[str, np.ndarray]) -> float:
        consts = {k: constant(v) for k, v in values.items()}
        y = f(consts)
        if not np.isfinite(y.value[0, 0]):
            raise ValueError("non-finite function value during finite differences")
        return float(y.value[0, 0])

    base = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    rel_err: dict[str, float] = {}
    abs_err: dict[str, float] = {}
    for name, v in base.items():
        numeric = np.zeros_like(v)
        flat = v.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = eval_at(base)
            flat[i] = orig - h
            down = eval_at(base)
            flat[i] = orig
            num_flat[i] = (up - down) / (2.0 * h)
        diff = np.abs(analytic[name] - numeric)
        denom = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(numeric)), floor)
        rel_err[name] = float((diff / denom).max()) if diff.size else 0.0
        abs_err[name] = float(diff.max()) if diff.size else 0.0
    return GradCheckReport(rel_err=rel_err, abs_err=abs_err, h=h, tol=tol, floor=floor)
