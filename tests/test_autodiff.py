import tracemalloc

import numpy as np
import pytest

from hetconv import autodiff
from hetconv import rng as rng_mod
from hetconv.autodiff import (
    GradMatrix,
    _candidate_buffer,
    Tape,
    attend,
    constant,
    cross_entropy,
    dropout,
    gradcheck,
    matmul,
    spmm,
    xavier_uniform,
)
from hetconv.graph import SparseAdj


def fd_check(build, shapes, seed=0, tol=1e-5, h=1e-5):
    """Check one composite expression against central differences.

    ``build`` maps named leaves to a scalar GradMatrix; leaves are random.
    """
    rng = np.random.default_rng(seed)
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    report = gradcheck(build, params, h=h, tol=tol)
    assert report.passed, f"max rel err {report.max_rel_err:.2e} > {tol:g}"
    return report


def loss(x, seed=0):
    """Cross-entropy of every row of ``x`` against targets fixed by ``seed``:
    the scalar reduction of the finite-difference checks."""
    targets = np.random.default_rng(seed).integers(0, x.shape[1], size=x.shape[0])
    return cross_entropy([(x, np.arange(x.shape[0]), targets, 1.0)])


class TestMatmul:
    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = matmul(constant(np.eye(2)), constant(x))
        assert np.array_equal(out.value, x)

    def test_small_product(self):
        out = matmul(constant(np.array([[1.0, 2.0]])), constant(np.array([[3.0], [4.0]])))
        assert out.value[0, 0] == pytest.approx(11.0)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 2))))

    def test_writes_into_out(self):
        a, b = np.arange(6.0).reshape(2, 3), np.arange(12.0).reshape(3, 4)
        buf = np.zeros((2, 2, 4))
        out = matmul(constant(a), constant(b), out=buf[1])
        assert out.value.base is buf and np.array_equal(buf[1], a @ b)
        assert not buf[0].any()
        with pytest.raises(ValueError, match=r"output shape mismatch: .* into \(2, 3\)"):
            matmul(constant(a), constant(b), out=np.zeros((2, 3)))

    def test_gradient_matches_finite_differences(self):
        fd_check(
            lambda p: loss(matmul(p["a"], p["b"])),
            {"a": (3, 4), "b": (4, 2)},
        )

    def test_untracked_operand_gets_no_gradient(self):
        rng = np.random.default_rng(1)
        x, w = rng.normal(size=(5, 4)), rng.normal(size=(4, 3))
        grads = {}
        for tracked in ("both", "w"):
            tape = Tape()
            a = GradMatrix(x, tape if tracked == "both" else None)
            b = GradMatrix(w, tape)
            tape.backward(loss(matmul(a, b)))
            grads[tracked] = b.grad
            if tracked == "w":
                assert a.grad is None
        assert np.array_equal(grads["both"], grads["w"])


class TestSpmm:
    def test_mean_of_neighbors(self):
        a = SparseAdj.from_edges(1, 2, [0, 0], [0, 1], [0.5, 0.5])
        out = spmm(a, constant(np.array([[2.0], [4.0]])))
        assert out.value[0, 0] == pytest.approx(3.0)

    def test_zero_row_gives_zero_output(self):
        a = SparseAdj.from_edges(2, 2, [1], [0], [1.0])
        out = spmm(a, constant(np.ones((2, 3))))
        assert np.all(out.value[0] == 0.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        dense = rng.random((5, 7)) * (rng.random((5, 7)) < 0.4)
        rows, cols = np.nonzero(dense)
        a = SparseAdj.from_edges(5, 7, rows, cols, dense[rows, cols])
        b = rng.normal(size=(7, 3))
        assert np.abs(spmm(a, constant(b)).value - dense @ b).max() < 1e-12

    def test_backward_is_transpose_product(self):
        rng = np.random.default_rng(4)
        dense = rng.random((4, 6)) * (rng.random((4, 6)) < 0.5)
        rows, cols = np.nonzero(dense)
        a = SparseAdj.from_edges(4, 6, rows, cols, dense[rows, cols])
        fd_check(lambda p: loss(spmm(a, p["b"])), {"b": (6, 2)}, seed=4)


class TestElu:
    """The output ELU of ``attend``: with one candidate the mix is the
    candidate itself."""

    def test_values(self):
        x = constant(np.array([[0.0, 2.5, -1.0]]))
        out = attend([x])[0].value
        assert out[0, 0] == 0.0
        assert out[0, 1] == 2.5
        assert out[0, 2] == pytest.approx(np.expm1(-1.0))

    def test_large_positive_no_overflow(self):
        out = attend([constant(np.array([[800.0]]))])[0]
        assert out.value[0, 0] == 800.0

    def test_gradient(self):
        fd_check(lambda p: loss(attend([p["x"]])[0]), {"x": (3, 3)}, seed=5)


class TestAttend:
    MAPS = {"k": (3, 2), "q": (3, 2), "a": (4, 1)}

    def _dense(self, zs, w_k, w_q, w_a):
        def elu(x):
            return np.where(x > 0, x, np.expm1(np.minimum(x, 0)))

        query = zs[0] @ w_q
        logits = elu(np.hstack([np.hstack([z @ w_k, query]) @ w_a for z in zs]))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        att = e / e.sum(axis=1, keepdims=True)
        return elu(sum(att[:, j : j + 1] * z for j, z in enumerate(zs))), att

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(20)
        zs = [rng.normal(size=(6, 3)) for _ in range(3)]
        maps = [rng.normal(size=shape) for shape in self.MAPS.values()]
        out, att = attend([constant(z) for z in zs], *map(constant, maps))
        want_out, want_att = self._dense(zs, *maps)
        assert np.abs(out.value - want_out).max() < 1e-12
        assert np.abs(att - want_att).max() < 1e-12
        assert (out.value < 0).any() and (out.value > 0).any()

    def test_uniform_without_maps(self):
        zs = [np.full((2, 2), 1.0), np.full((2, 2), 4.0)]
        out, att = attend([constant(z) for z in zs])
        assert np.all(att == 0.5)
        assert np.all(out.value == 2.5)

    def test_bad_operands_rejected(self):
        z = constant(np.ones((2, 3)))
        w_k, w_q = constant(np.ones((3, 2))), constant(np.ones((3, 2)))
        with pytest.raises(ValueError, match="differ in shape"):
            attend([z, constant(np.ones((2, 2)))])
        for partial in ((w_k,), (w_k, w_q), (None, w_q, constant(np.ones((4, 1))))):
            with pytest.raises(ValueError, match="or none"):
                attend([z, z], *partial)
        with pytest.raises(ValueError, match=r"w_a \(4, 1\), got .* and \(3, 1\)"):
            attend([z, z], w_k, w_q, constant(np.ones((3, 1))))
        with pytest.raises(ValueError, match=r"\(3, 2\)"):
            attend([z, z], w_k, constant(np.ones((2, 2))), constant(np.ones((4, 1))))

    def test_gradient_attention(self):
        fd_check(
            lambda p: loss(attend([p["z0"], p["z1"], p["z2"]], p["k"], p["q"], p["a"])[0]),
            {"z0": (4, 3), "z1": (4, 3), "z2": (4, 3), **self.MAPS},
            seed=22,
            tol=1e-4,
        )

    def test_gradient_uniform(self):
        fd_check(
            lambda p: loss(attend([p["z0"], p["z1"]])[0]),
            {"z0": (4, 3), "z1": (4, 3)},
            seed=24,
            tol=1e-4,
        )

    def test_gradient_with_untracked_candidates(self):
        rng = np.random.default_rng(25)
        fixed = [constant(rng.normal(size=(4, 3))) for _ in range(2)]
        fd_check(
            lambda p: loss(attend([fixed[0], p["z1"], fixed[1]], p["k"], p["q"], p["a"])[0]),
            {"z1": (4, 3), **self.MAPS},
            seed=26,
            tol=1e-4,
        )
        fd_check(
            lambda p: loss(attend([p["z0"], fixed[0]], p["k"], p["q"], p["a"])[0]),
            {"z0": (4, 3), **self.MAPS},
            seed=27,
            tol=1e-4,
        )

    def test_gradient_with_untracked_maps(self):
        rng = np.random.default_rng(28)
        maps = [constant(rng.normal(size=shape)) for shape in self.MAPS.values()]
        fd_check(
            lambda p: loss(attend([p["z0"], p["z1"], p["z2"]], *maps)[0]),
            {"z0": (4, 3), "z1": (4, 3), "z2": (4, 3)},
            seed=29,
            tol=1e-4,
        )

    def test_gradient_only_w_a_tracked(self):
        rng = np.random.default_rng(30)
        zs = [constant(rng.normal(size=(4, 3))) for _ in range(3)]
        w_k, w_q = constant(rng.normal(size=(3, 2))), constant(rng.normal(size=(3, 2)))
        fd_check(lambda p: loss(attend(zs, w_k, w_q, p["a"])[0]), {"a": (4, 1)}, seed=31, tol=1e-4)


def attend_oracle(zs, maps=None):
    """``attend``'s forward formula transcribed row by row in float64:
    per-row ELU logits of [key || query] against w_a, their softmax, a
    loop over the candidates for the mix, and the output ELU."""
    zs = [np.asarray(z, dtype=np.float64) for z in zs]
    k, (n, d) = len(zs), zs[0].shape
    out, att = np.empty((n, d)), np.empty((n, k))
    for i in range(n):
        if maps is None:
            att[i] = 1.0 / k
        else:
            w_k, w_q, w_a = (np.asarray(m, dtype=np.float64) for m in maps)
            logits = np.empty(k)
            for j in range(k):
                x = np.concatenate([zs[j][i] @ w_k, zs[0][i] @ w_q]) @ w_a[:, 0]
                logits[j] = x if x > 0 else np.expm1(x)
            e = np.exp(logits - logits.max())
            att[i] = e / e.sum()
        mix = np.zeros(d)
        for j in range(k):
            mix += att[i, j] * zs[j][i]
        out[i] = np.where(mix > 0, mix, np.expm1(np.minimum(mix, 0.0)))
    return out, att


class TestAttendOracle:
    """``attend`` against ``attend_oracle``, on candidates that are the
    slabs of one k x n x d buffer (as ``hetero_conv`` writes them) and on
    separate arrays (one stacked copy); the two layouts give the same bits."""

    N, D, D_A = 7, 3, 2

    def _case(self, k, with_maps, dtype, seed):
        rng = np.random.default_rng(seed)
        zs = rng.normal(size=(k, self.N, self.D))
        maps = None
        if with_maps:
            shapes = ((self.D, self.D_A), (self.D, self.D_A), (2 * self.D_A, 1))
            maps = [rng.normal(size=shape).astype(dtype) for shape in shapes]
        return zs.astype(dtype), maps

    def _run(self, buf, separate, maps, tracked):
        """attend on slabs of a copy of ``buf`` or on separate copies;
        candidate j is tracked where ``tracked[j]``; returns the output,
        weights, candidate gradients and map gradients after one backward
        pass. Backward writes the gradients over the candidate buffer, so
        ``buf`` itself is left for the caller to read again."""
        tape = Tape()
        zs = [z.copy() for z in buf] if separate else buf.copy()
        values = [GradMatrix(z, tape if t else None) for z, t in zip(zs, tracked)]
        leaves = [GradMatrix(m, tape) for m in maps] if maps is not None else []
        out, att = attend(values, *leaves)
        tape.backward(loss(out, seed=3))
        return out.value, att, [z.grad for z in values], [m.grad for m in leaves]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("with_maps", [True, False])
    def test_matches_the_row_by_row_formula_in_both_layouts(self, k, with_maps):
        buf, maps = self._case(k, with_maps, np.float64, seed=10 + k)
        tracked = [j % 2 == 0 for j in range(k)] if k > 1 else [True]
        want_out, want_att = attend_oracle(buf, maps)
        runs = [self._run(buf, separate, maps, tracked) for separate in (False, True)]
        for out, att, grads, map_grads in runs:
            assert np.abs(out - want_out).max() < 1e-12
            assert np.abs(att - want_att).max() < 1e-12
            assert [g is None for g in grads] == [not t for t in tracked]
        (_, _, grads_a, maps_a), (_, _, grads_b, maps_b) = runs
        for a, b in zip(grads_a + maps_a, grads_b + maps_b):
            assert (a is None and b is None) or np.array_equal(a, b)

    def test_buffer_slabs_are_read_in_place_and_other_lists_are_stacked(self):
        buf, _ = self._case(3, False, np.float64, seed=5)
        slabs = [GradMatrix(z) for z in buf]
        assert _candidate_buffer(slabs, buf.dtype) is buf
        # out of order, repeated, or copies: one stacked copy
        for values in (slabs[::-1], [slabs[0], slabs[0], slabs[2]], [GradMatrix(z.copy()) for z in buf]):
            stacked = _candidate_buffer(values, buf.dtype)
            assert stacked is not buf and stacked.shape == buf.shape
            assert np.array_equal(stacked, np.stack([z.value for z in values]))

    @pytest.mark.parametrize("k", [2, 4])
    def test_float32_matches_the_float64_formula(self, k):
        buf, maps = self._case(k, True, np.float32, seed=20 + k)
        want_out, want_att = attend_oracle(buf, maps)
        for separate in (False, True):
            out, att, grads, _ = self._run(buf, separate, maps, [True] * k)
            assert out.dtype == np.float32 and att.dtype == np.float64
            assert all(g.dtype == np.float32 for g in grads)
            assert np.abs(out - want_out).max() <= 1e-6 * np.abs(want_out).max()
            assert np.abs(att - want_att).max() <= 1e-6

    @pytest.mark.parametrize("separate", [False, True])
    def test_backward_writes_the_gradients_over_the_candidate_buffer(self, separate, monkeypatch):
        # the buffer attend reads: the slabs' own, or its stacked copy
        read = []

        def spy(values, dtype):
            read.append(_candidate_buffer(values, dtype))
            return read[-1]

        monkeypatch.setattr(autodiff, "_candidate_buffer", spy)
        buf, maps = self._case(3, True, np.float64, seed=7)
        tracked = [True, False, True]
        _, _, grads, _ = self._run(buf, separate, maps, tracked)
        (cand,) = read
        assert cand.shape == buf.shape and not np.shares_memory(cand, buf)
        for j, g in enumerate(grads):
            if tracked[j]:
                assert g.base is cand and g.ctypes.data == cand[j].ctypes.data

    def test_backward_allocates_less_than_the_candidate_gradients(self):
        # at (k, n, d) = (4, 2000, 64) in float32 the k gradients take
        # k*n*d*4 bytes; written over the candidates they need none of it
        k, n, d, d_a = 4, 2000, 64, 16
        rng = np.random.default_rng(9)
        tape = Tape()
        buf = rng.normal(size=(k, n, d)).astype(np.float32)
        values = [GradMatrix(z, tape) for z in buf]
        maps = [
            GradMatrix(rng.normal(size=shape).astype(np.float32), tape)
            for shape in ((d, d_a), (d, d_a), (2 * d_a, 1))
        ]
        attend(values, *maps)
        ((_, backward),) = tape._records
        g = rng.normal(size=(n, d)).astype(np.float32)
        tracemalloc.start()
        try:
            backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(z.grad is not None for z in values)
        assert peak < k * n * d * 4, peak

    def test_gradient_through_one_buffer(self):
        # the candidates are matmul products written into one buffer's slabs
        def build(p):
            buf = np.empty((3, 4, 3))
            values = [matmul(p[f"x{j}"], p[f"w{j}"], out=buf[j]) for j in range(3)]
            assert _candidate_buffer(values, buf.dtype) is buf
            return loss(attend(values, p["k"], p["q"], p["a"])[0])

        shapes = {f"x{j}": (4, 2) for j in range(3)}
        shapes.update({f"w{j}": (2, 3) for j in range(3)})
        fd_check(build, {**shapes, **TestAttend.MAPS}, seed=32, tol=1e-4)


class TestDropout:
    def test_rate_zero_identity(self):
        x = constant(np.ones((4, 4)))
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_rate_out_of_range(self):
        for rate in (-0.1, 1.0):
            with pytest.raises(ValueError, match="rate"):
                dropout(constant(np.ones((1, 1))), rate, np.random.default_rng(0))

    def test_inverted_scaling_keeps_mean(self):
        x = constant(np.ones((1000, 100)))
        out = dropout(x, 0.5, rng_mod.stream(0, "drop"))
        assert out.value.mean() == pytest.approx(1.0, abs=0.02)
        survivors = out.value[out.value != 0]
        assert np.all(survivors == 2.0)

    def test_keep_fraction(self):
        out = dropout(constant(np.ones((1000, 100))), 0.3, rng_mod.stream(1, "drop"))
        kept = out.value != 0
        assert kept.mean() == pytest.approx(0.7, abs=0.005)
        # survivors carry the inverse of the keep probability the 16-bit
        # threshold rounds to: round(0.3 * 2^16) = 19661 of 2^16 values drop
        assert np.all(out.value[kept] == 2**16 / (2**16 - 19661))

    def test_rate_next_to_one_does_not_wrap(self):
        # round((1 - 2^-20) * 2^16) is 2^16, which wraps to 0 in uint16
        # and would keep every entry; it clamps to keeping 1 in 2^16
        out = dropout(constant(np.ones((1000, 100))), 1 - 2**-20, rng_mod.stream(2, "drop"))
        kept = out.value != 0
        assert kept.sum() < 20
        assert np.all(out.value[kept] == 2.0**16)

    @pytest.mark.parametrize("rate", [0.3, 0.5, 1 - 2**-20])
    def test_mask_is_one_draw_of_the_input_shape(self, rate):
        x = constant(np.random.default_rng(5).normal(size=(37, 6)))
        out = dropout(x, rate, np.random.default_rng(6))
        threshold = min(round(rate * 2**16), 2**16 - 1)
        draws = np.random.default_rng(6).integers(0, 2**16, size=x.shape, dtype=np.uint16)
        keep = draws >= threshold
        assert np.array_equal(out.value != 0, keep)
        assert np.array_equal(out.value[keep], x.value[keep] * (2**16 / (2**16 - threshold)))

    def test_fixed_mask_gradient(self):
        # same stream seed on every evaluation: the mask is constant
        fd_check(
            lambda p: loss(dropout(p["x"], 0.4, rng_mod.stream(3, "m"))),
            {"x": (4, 4)},
            seed=11,
        )


class TestCrossEntropyRows:
    def test_confident_correct_is_near_zero(self):
        out = cross_entropy([(constant(np.array([[50.0, -50.0]])), [0], [0], 1.0)])
        assert out.value[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_prediction_is_log_k(self):
        out = cross_entropy([(constant(np.zeros((1, 4))), [0], [2], 1.0)])
        assert out.value[0, 0] == pytest.approx(np.log(4.0))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label index"):
            cross_entropy([(constant(np.zeros((1, 3))), [0], [3], 1.0)])

    def test_targets_match_rows(self):
        with pytest.raises(ValueError, match="2 targets for 1 rows"):
            cross_entropy([(constant(np.zeros((3, 3))), [1], [0, 2], 1.0)])

    def test_gradient(self):
        targets = np.array([0, 2, 1, 1])
        fd_check(
            lambda p: cross_entropy([(p["x"], np.arange(4), targets, 1.0)]),
            {"x": (4, 3)},
            seed=12,
        )

    def test_gradient_two_logits(self):
        fd_check(
            lambda p: cross_entropy(
                [(p["x"], [3, 0, 3], [1, 0, 2], 0.7), (p["y"], [1, 0], [0, 1], 1.5)]
            ),
            {"x": (4, 3), "y": (2, 2)},
            seed=13,
        )

    def test_weighted_terms_and_repeated_rows(self):
        # uniform logits: every row's loss is ln 2, its softmax [0.5, 0.5]
        tape = Tape()
        x = GradMatrix(np.zeros((3, 2)), tape)
        y = GradMatrix(np.zeros((1, 2)), tape)
        out = cross_entropy([(x, [1, 1, 0], [0, 0, 1], 2.0), (y, [0], [1], 0.5)])
        assert out.value[0, 0] == pytest.approx((2.0 * 3 + 0.5) * np.log(2.0))
        tape.backward(out)
        assert np.array_equal(x.grad, [[1.0, -1.0], [-2.0, 2.0], [0.0, 0.0]])
        assert np.array_equal(y.grad, [[0.25, -0.25]])

    def test_untracked_term_gets_no_gradient(self):
        rng = np.random.default_rng(14)
        logits = rng.normal(size=(3, 2))
        tape = Tape()
        x = GradMatrix(logits, tape)
        y = constant(rng.normal(size=(2, 2)))
        tape.backward(cross_entropy([(x, [0, 2], [1, 0], 1.0), (y, [1], [0], 1.0)]))
        assert y.grad is None
        soft = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        want = np.zeros((3, 2))
        want[[0, 2]] = soft[[0, 2]] - np.eye(2)[[1, 0]]
        assert np.abs(x.grad - want).max() < 1e-15


class TestXavierUniform:
    def test_support_bound(self):
        m = xavier_uniform(100, 100, rng_mod.stream(0, "x"))
        bound = np.sqrt(6.0 / 200)
        assert np.abs(m).max() <= bound

    def test_mean_near_zero(self):
        n = 100_000
        m = xavier_uniform(1000, 100, rng_mod.stream(1, "x"))
        bound = np.sqrt(6.0 / 1100)
        sigma = bound / np.sqrt(3.0)
        assert abs(m.mean()) < 3 * sigma / np.sqrt(n)

    def test_seeded_reproducibility(self):
        a = xavier_uniform(7, 5, rng_mod.stream(42, "x"))
        b = xavier_uniform(7, 5, rng_mod.stream(42, "x"))
        assert np.array_equal(a, b)

    def test_streams_are_independent(self):
        a = xavier_uniform(7, 5, rng_mod.stream(42, "x"))
        b = xavier_uniform(7, 5, rng_mod.stream(42, "y"))
        assert not np.array_equal(a, b)


class TestGradcheck:
    def test_softmax_closed_form(self):
        def f(p):
            return cross_entropy([(p["x"], [0], [1], 1.0)])

        x = np.array([[1.0, 2.0]])
        tape = Tape()
        leaf = GradMatrix(x, tape)
        out = f({"x": leaf})
        tape.backward(out)
        soft = np.exp(x) / np.exp(x).sum()
        assert np.allclose(leaf.grad, soft - [[0.0, 1.0]])
        report = gradcheck(f, {"x": x}, h=1e-6, tol=1e-8)
        assert report.passed
        assert report.max_rel_err < 1e-8
        assert report.floor == 1.0

    def test_floor_scales_with_function_value(self):
        # next to a 1e200 term, y's O(1) gradient is below the rounding of
        # f: every central difference in y is exactly 0
        def f(p):
            return cross_entropy([(p["x"], [0], [0], 1e200), (p["y"], [0], [0], 1.0)])

        values = {"x": np.array([[0.0, 1.0]]), "y": np.array([[0.0, 1.0]])}
        report = gradcheck(f, values)
        value = f({k: constant(v) for k, v in values.items()}).value[0, 0]
        assert report.floor == pytest.approx(np.finfo(np.float64).eps * value / report.h)
        assert report.abs_err["y"] == pytest.approx(np.e / (1.0 + np.e))
        assert report.passed

    def test_constant_function_zero_gradient(self):
        report = gradcheck(
            lambda p: constant(np.array([[3.5]])), {"x": np.ones((2, 2))}
        )
        assert report.passed and report.max_rel_err == 0.0

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            gradcheck(
                lambda p: constant(np.array([[np.inf]])), {"x": np.ones((1, 1))}
            )

    def test_bad_h_rejected(self):
        with pytest.raises(ValueError, match="h"):
            gradcheck(lambda p: loss(p["x"]), {"x": np.ones((1, 1))}, h=0.0)


class TestTapeDeterminism:
    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 4))
        outs = []
        for _ in range(2):
            tape = Tape()
            leaf = GradMatrix(x.copy(), tape)
            hidden = dropout(leaf, 0.3, rng_mod.stream(9, "d"))
            w_k, w_q = constant(np.ones((4, 2))), constant(np.full((4, 2), 0.5))
            out, _ = attend([hidden, leaf], w_k, w_q, constant(np.ones((4, 1))))
            outs.append(out.value.copy())
        assert np.array_equal(outs[0], outs[1])

    def test_mixed_tapes_rejected(self):
        a = GradMatrix(np.ones((1, 1)), Tape())
        b = GradMatrix(np.ones((1, 1)), Tape())
        with pytest.raises(ValueError, match="different tapes"):
            matmul(a, b)

    def test_backward_needs_scalar(self):
        tape = Tape()
        x = GradMatrix(np.ones((2, 2)), tape)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(matmul(x, x))


class TestDtypes:
    def test_grad_matrix_keeps_float32_and_casts_the_rest(self):
        assert GradMatrix(np.ones((2, 2), dtype=np.float32)).value.dtype == np.float32
        assert GradMatrix(np.ones((2, 2), dtype=np.float64)).value.dtype == np.float64
        assert GradMatrix(np.ones((2, 2), dtype=np.int64)).value.dtype == np.float64
        assert GradMatrix(np.ones((2, 2), dtype=np.float16)).value.dtype == np.float64

    def test_float32_attend_matches_float64(self):
        rng = np.random.default_rng(40)
        zs = [rng.normal(size=(50, 3)) for _ in range(3)]
        maps = [rng.normal(size=shape) for shape in TestAttend.MAPS.values()]
        results = {}
        for dtype in (np.float64, np.float32):
            tape = Tape()
            leaves = [GradMatrix(x.astype(dtype), tape) for x in zs + maps]
            out, att = attend(leaves[:3], *leaves[3:])
            assert out.value.dtype == dtype and att.dtype == np.float64
            tape.backward(loss(out, seed=41))
            assert all(leaf.grad.dtype == dtype for leaf in leaves)
            results[dtype] = [out.value, att] + [leaf.grad for leaf in leaves]
        for got, want in zip(results[np.float32], results[np.float64]):
            assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max()

    def test_float32_loss_is_float64_with_float32_gradient(self):
        tape = Tape()
        logits = GradMatrix(np.array([[1.0, 2.0], [0.5, -1.0]], dtype=np.float32), tape)
        loss = cross_entropy([(logits, np.array([0, 1]), np.array([1, 0]), 1.0)])
        assert loss.value.dtype == np.float64
        tape.backward(loss)
        assert logits.grad.dtype == np.float32
        want = cross_entropy(
            [(constant(logits.value.astype(np.float64)), np.array([0, 1]), np.array([1, 0]), 1.0)]
        )
        assert loss.value[0, 0] == pytest.approx(want.value[0, 0], rel=1e-6)
