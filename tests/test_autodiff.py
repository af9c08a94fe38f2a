import numpy as np
import pytest

from hetconv import rng as rng_mod
from hetconv.autodiff import (
    GradMatrix,
    Tape,
    add,
    attend,
    constant,
    cross_entropy_rows,
    dropout,
    elu,
    gradcheck,
    matmul,
    mul,
    row_select,
    spmm,
    sum_all,
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

    def test_gradient_matches_finite_differences(self):
        fd_check(
            lambda p: sum_all(elu(matmul(p["a"], p["b"]))),
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
            tape.backward(sum_all(elu(matmul(a, b))))
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
        fd_check(lambda p: sum_all(elu(spmm(a, p["b"]))), {"b": (6, 2)}, seed=4)


class TestElu:
    def test_values(self):
        x = constant(np.array([[0.0, 2.5, -1.0]]))
        out = elu(x).value
        assert out[0, 0] == 0.0
        assert out[0, 1] == 2.5
        assert out[0, 2] == pytest.approx(np.expm1(-1.0))

    def test_large_positive_no_overflow(self):
        out = elu(constant(np.array([[800.0]])))
        assert out.value[0, 0] == 800.0

    def test_gradient(self):
        fd_check(lambda p: sum_all(elu(p["x"])), {"x": (3, 3)}, seed=5)


class TestAttend:
    def _dense(self, zs, key, query):
        pre = np.hstack([z @ key for z in zs]) + zs[0] @ query
        logits = np.where(pre > 0, pre, np.expm1(np.minimum(pre, 0)))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        att = e / e.sum(axis=1, keepdims=True)
        return sum(att[:, j : j + 1] * z for j, z in enumerate(zs)), att

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(20)
        zs = [rng.normal(size=(6, 3)) for _ in range(3)]
        key, query = rng.normal(size=(3, 1)), rng.normal(size=(3, 1))
        mixed, att = attend([constant(z) for z in zs], constant(key), constant(query))
        want_mixed, want_att = self._dense(zs, key, query)
        assert np.abs(mixed.value - want_mixed).max() < 1e-12
        assert np.abs(att - want_att).max() < 1e-12

    def test_uniform_without_maps(self):
        zs = [np.full((2, 2), 1.0), np.full((2, 2), 4.0)]
        mixed, att = attend([constant(z) for z in zs])
        assert np.all(att == 0.5)
        assert np.all(mixed.value == 2.5)

    def test_bad_operands_rejected(self):
        z = constant(np.ones((2, 3)))
        with pytest.raises(ValueError, match="differ in shape"):
            attend([z, constant(np.ones((2, 2)))])
        with pytest.raises(ValueError, match="or neither"):
            attend([z, z], constant(np.ones((3, 1))))
        with pytest.raises(ValueError, match=r"\(3, 1\)"):
            attend([z, z], constant(np.ones((2, 1))), constant(np.ones((2, 1))))

    def test_gradient_attention(self):
        weights = constant(np.random.default_rng(21).normal(size=(4, 3)))
        fd_check(
            lambda p: sum_all(mul(attend([p["z0"], p["z1"], p["z2"]], p["k"], p["q"])[0], weights)),
            {"z0": (4, 3), "z1": (4, 3), "z2": (4, 3), "k": (3, 1), "q": (3, 1)},
            seed=22,
            tol=1e-4,
        )

    def test_gradient_uniform(self):
        weights = constant(np.random.default_rng(23).normal(size=(4, 3)))
        fd_check(
            lambda p: sum_all(mul(attend([p["z0"], p["z1"]])[0], weights)),
            {"z0": (4, 3), "z1": (4, 3)},
            seed=24,
            tol=1e-4,
        )

    def test_gradient_with_untracked_candidates(self):
        rng = np.random.default_rng(25)
        fixed = [constant(rng.normal(size=(4, 3))) for _ in range(2)]
        fd_check(
            lambda p: sum_all(elu(attend([fixed[0], p["z1"], fixed[1]], p["k"], p["q"])[0])),
            {"z1": (4, 3), "k": (3, 1), "q": (3, 1)},
            seed=26,
            tol=1e-4,
        )
        fd_check(
            lambda p: sum_all(elu(attend([p["z0"], fixed[0]], p["k"], p["q"])[0])),
            {"z0": (4, 3), "k": (3, 1), "q": (3, 1)},
            seed=27,
            tol=1e-4,
        )

    def test_gradient_with_untracked_maps(self):
        rng = np.random.default_rng(28)
        key, query = constant(rng.normal(size=(3, 1))), constant(rng.normal(size=(3, 1)))
        fd_check(
            lambda p: sum_all(elu(attend([p["z0"], p["z1"], p["z2"]], key, query)[0])),
            {"z0": (4, 3), "z1": (4, 3), "z2": (4, 3)},
            seed=29,
            tol=1e-4,
        )


class TestRowSelectMulAdd:
    def test_row_select_duplicates_accumulate(self):
        tape = Tape()
        x = GradMatrix(np.arange(6.0).reshape(3, 2), tape)
        out = sum_all(row_select(x, np.array([1, 1, 0])))
        tape.backward(out)
        assert np.array_equal(x.grad, [[1, 1], [2, 2], [0, 0]])

    def test_mismatched_shapes_rejected(self):
        a, b = constant(np.ones((4, 1))), constant(np.ones((4, 3)))
        for op in (add, mul):
            with pytest.raises(ValueError, match=r"\(4, 1\) vs \(4, 3\)"):
                op(a, b)

    def test_add_gradient(self):
        fd_check(
            lambda p: sum_all(elu(add(p["a"], p["b"]))), {"a": (2, 3), "b": (2, 3)}, seed=10
        )


class TestDropout:
    def test_rate_zero_identity(self):
        x = constant(np.ones((4, 4)))
        assert dropout(x, 0.0, True, np.random.default_rng(0)) is x

    def test_eval_mode_identity(self):
        x = constant(np.ones((4, 4)))
        assert dropout(x, 0.5, False, np.random.default_rng(0)) is x

    def test_rate_out_of_range(self):
        for rate in (-0.1, 1.0):
            with pytest.raises(ValueError, match="rate"):
                dropout(constant(np.ones((1, 1))), rate, True, np.random.default_rng(0))

    def test_inverted_scaling_keeps_mean(self):
        x = constant(np.ones((1000, 100)))
        out = dropout(x, 0.5, True, rng_mod.stream(0, "drop"))
        assert out.value.mean() == pytest.approx(1.0, abs=0.02)
        survivors = out.value[out.value != 0]
        assert np.all(survivors == 2.0)

    def test_fixed_mask_gradient(self):
        # same stream seed on every evaluation: the mask is constant
        fd_check(
            lambda p: sum_all(dropout(p["x"], 0.4, True, rng_mod.stream(3, "m"))),
            {"x": (4, 4)},
            seed=11,
        )


class TestCrossEntropyRows:
    def test_confident_correct_is_near_zero(self):
        out = cross_entropy_rows(constant(np.array([[50.0, -50.0]])), np.array([0]))
        assert out.value[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_prediction_is_log_k(self):
        out = cross_entropy_rows(constant(np.zeros((1, 4))), np.array([2]))
        assert out.value[0, 0] == pytest.approx(np.log(4.0))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label index"):
            cross_entropy_rows(constant(np.zeros((1, 3))), np.array([3]))

    def test_gradient(self):
        targets = np.array([0, 2, 1, 1])
        fd_check(
            lambda p: cross_entropy_rows(p["x"], targets), {"x": (4, 3)}, seed=12
        )


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
    def test_sum_of_squares_closed_form(self):
        def f(p):
            return sum_all(mul(p["x"], p["x"]))

        x = np.array([[1.0, 2.0]])
        tape = Tape()
        leaf = GradMatrix(x, tape)
        out = f({"x": leaf})
        tape.backward(out)
        assert np.allclose(leaf.grad, [[2.0, 4.0]])
        report = gradcheck(f, {"x": x}, h=1e-6, tol=1e-8)
        assert report.passed
        assert report.max_rel_err < 1e-8

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
            gradcheck(lambda p: sum_all(p["x"]), {"x": np.ones((1, 1))}, h=0.0)


class TestTapeDeterminism:
    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 4))
        outs = []
        for _ in range(2):
            tape = Tape()
            leaf = GradMatrix(x.copy(), tape)
            hidden = dropout(elu(leaf), 0.3, True, rng_mod.stream(9, "d"))
            key, query = constant(np.ones((4, 1))), constant(np.full((4, 1), 0.5))
            out, _ = attend([hidden, leaf], key, query)
            outs.append(out.value.copy())
        assert np.array_equal(outs[0], outs[1])

    def test_mixed_tapes_rejected(self):
        a = GradMatrix(np.ones((1, 1)), Tape())
        b = GradMatrix(np.ones((1, 1)), Tape())
        with pytest.raises(ValueError, match="different tapes"):
            add(a, b)

    def test_backward_needs_scalar(self):
        tape = Tape()
        x = GradMatrix(np.ones((2, 2)), tape)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(elu(x))
