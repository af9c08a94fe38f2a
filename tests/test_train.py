import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetconv.autodiff import GradMatrix, constant
from hetconv.train import (
    AdamState,
    TrainConfig,
    adam_step,
    classification_metrics,
    cross_entropy_loss,
    evaluate,
    build_params,
    fit,
    model_loss_gradcheck,
    train_step,
)


class TestTrainConfig:
    def test_defaults_follow_reference_setup(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.01
        assert cfg.l2_weight == 5e-4
        assert cfg.dropout_rate == 0.5
        assert cfg.layer_widths == (64, 32, 16, 8)
        assert cfg.d_a == 64

    def test_patience_cannot_exceed_epochs(self):
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(max_epochs=10, patience=20)

    def test_rate_ranges(self):
        with pytest.raises(ValueError):
            TrainConfig(dropout_rate=1.0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    def test_numpy_integers_become_ints(self):
        cfg = TrainConfig(layer_widths=[np.int32(4), 2], seed=np.int64(3), d_a=np.uint8(5))
        assert cfg.layer_widths == (4, 2) and cfg.seed == 3 and cfg.d_a == 5
        assert all(type(v) is int for v in (*cfg.layer_widths, cfg.seed, cfg.d_a))
        with pytest.raises(ValueError, match="seed must be an integer"):
            TrainConfig(seed=np.float64(3.0))


class TestCrossEntropyLoss:
    def test_confident_correct_near_zero(self):
        final = {"B": constant(np.array([[50.0, -50.0]]))}
        loss = cross_entropy_loss(final, {"B": np.array([0])}, {"B": np.array([0])})
        assert loss.value[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_prediction_ln4(self):
        final = {"B": constant(np.zeros((1, 4)))}
        loss = cross_entropy_loss(final, {"B": np.array([1])}, {"B": np.array([0])})
        assert loss.value[0, 0] == pytest.approx(np.log(4.0))

    def test_two_types_add(self):
        rng = np.random.default_rng(0)
        fa, fb = rng.normal(size=(3, 2)), rng.normal(size=(4, 3))
        la, lb = np.array([0, 1, 0]), np.array([2, 0, 1, 1])
        ia, ib = np.array([0, 2]), np.array([1, 3])
        both = cross_entropy_loss(
            {"A": constant(fa), "B": constant(fb)},
            {"A": la, "B": lb},
            {"A": ia, "B": ib},
        ).value[0, 0]
        only_a = cross_entropy_loss({"A": constant(fa)}, {"A": la}, {"A": ia}).value[0, 0]
        only_b = cross_entropy_loss({"B": constant(fb)}, {"B": lb}, {"B": ib}).value[0, 0]
        assert both == pytest.approx(only_a + only_b)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            f = {"B": constant(rng.normal(size=(6, 3)) * 10)}
            loss = cross_entropy_loss(
                f, {"B": rng.integers(0, 3, 6)}, {"B": np.arange(6)}
            )
            assert loss.value[0, 0] >= 0.0

    def test_per_type_weights(self):
        f = {"B": constant(np.zeros((1, 2)))}
        plain = cross_entropy_loss(f, {"B": np.array([0])}, {"B": np.array([0])})
        scaled = cross_entropy_loss(
            f, {"B": np.array([0])}, {"B": np.array([0])}, weights={"B": 2.0}
        )
        assert scaled.value[0, 0] == pytest.approx(2 * plain.value[0, 0])

    def test_no_labeled_objects_error(self):
        with pytest.raises(ValueError, match="labeled"):
            cross_entropy_loss({}, {}, {})


def _param(value):
    return {"w": GradMatrix(np.array(value, dtype=float))}


class TestAdamStep:
    def test_first_step_magnitude_is_lr(self):
        named = _param([[0.0, 0.0]])
        named["w"].grad = np.array([[3.0, -7.0]])
        state = AdamState.for_params(named)
        adam_step(named, state, lr=0.01)
        # bias correction makes the first update lr * g / (|g| + eps)
        assert np.allclose(np.abs(named["w"].value), 0.01, atol=1e-6)
        assert named["w"].value[0, 0] < 0 < named["w"].value[0, 1]

    def test_update_opposes_gradient(self):
        named = _param([[1.0, 1.0]])
        named["w"].grad = np.array([[5.0, -5.0]])
        adam_step(named, AdamState.for_params(named), lr=0.1)
        assert named["w"].value[0, 0] < 1.0 < named["w"].value[0, 1]

    def test_zero_grad_zero_moments_no_change(self):
        named = _param([[2.0, -3.0]])
        named["w"].grad = np.zeros((1, 2))
        adam_step(named, AdamState.for_params(named), lr=0.1, l2_weight=0.0)
        assert np.array_equal(named["w"].value, [[2.0, -3.0]])

    def test_l2_added_as_gradient(self):
        named = _param([[2.0]])
        named["w"].grad = np.zeros((1, 1))
        adam_step(named, AdamState.for_params(named), lr=0.1, l2_weight=5e-4)
        assert named["w"].value[0, 0] < 2.0

    def test_identical_runs_identical_trajectories(self):
        runs = []
        for _ in range(2):
            named = _param([[1.0, -2.0], [0.5, 0.25]])
            state = AdamState.for_params(named)
            rng = np.random.default_rng(0)
            for _ in range(20):
                named["w"].grad = rng.normal(size=(2, 2))
                adam_step(named, state, lr=0.01, l2_weight=5e-4)
            runs.append(named["w"].value.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_bias_correction_overflow_raises(self):
        # v = 1e307 is finite, but step 1's v_hat = v / 0.001 is not
        named = _param([[1.0, 2.0]])
        named["w"].grad = np.array([[1e155, 0.0]])
        with pytest.raises(FloatingPointError, match="epoch 1: parameter w:"):
            adam_step(named, AdamState.for_params(named), lr=0.01)
        assert np.array_equal(named["w"].value, [[1.0, 2.0]])


class TestMetrics:
    def test_all_correct(self):
        y = np.array([0, 1, 2, 1])
        m = classification_metrics(y, y, 3)
        assert m["micro_f1"] == 1.0
        assert m["macro_f1"] == 1.0
        assert m["accuracy"] == 1.0

    def test_degenerate_binary_predictions(self):
        # all predicted class 0, truth balanced: micro 0.5, macro 1/3
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.zeros(4, dtype=int)
        m = classification_metrics(y_true, y_pred, 2)
        assert m["micro_f1"] == pytest.approx(0.5)
        assert m["macro_f1"] == pytest.approx(1 / 3)
        assert m["per_class_f1"] == [pytest.approx(2 / 3), 0.0]

    def test_absent_class_contributes_zero_to_macro(self):
        y = np.array([0, 0])
        m = classification_metrics(y, y, 3)
        assert m["per_class_f1"][2] == 0.0
        assert m["macro_f1"] == pytest.approx(1 / 3)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_micro_equals_accuracy(self, seed):
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(2, 6))
        y_true = rng.integers(0, n_classes, 30)
        y_pred = rng.integers(0, n_classes, 30)
        m = classification_metrics(y_true, y_pred, n_classes)
        assert m["micro_f1"] == pytest.approx(m["accuracy"])

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            classification_metrics(np.array([]), np.array([]), 2)


class TestEvaluate:
    def test_argmax_invariant_to_row_shifts(self, toy_graph):
        from hetconv.model import forward
        from hetconv.train import build_params

        params = build_params(toy_graph, TrainConfig(layer_widths=(3, 2), d_a=2, seed=0))
        base = evaluate(params, toy_graph, "test")
        h, _ = forward(params, toy_graph)
        shifted = h["B"].value + np.random.default_rng(0).normal(size=(3, 1))
        pred_base = h["B"].value.argmax(axis=1)
        assert np.array_equal(shifted.argmax(axis=1), pred_base)
        assert set(base) == {"B"}

    def test_named_split_is_its_split_rows(self):
        from dataclasses import replace

        from hetconv.datagen import dblp_spec, generate, with_splits
        from hetconv.graph import split_rows

        g = with_splits(generate(dblp_spec(40, seed=1)), 40.0, seed=1)
        n_p = g.n_objects("P")
        # labels on P too, in schema order before A, with an empty val part
        g = replace(
            g,
            labels={**g.labels, "P": np.arange(n_p) % 3},
            class_counts={**g.class_counts, "P": 3},
            splits={**g.splits, "P": {"train": np.arange(0, n_p, 2),
                                      "val": np.array([], dtype=np.int64)}},
        )
        params = build_params(g, TrainConfig(layer_widths=(8, 4), d_a=4, seed=1))
        for part in ("train", "val"):
            metrics = evaluate(params, g, part)
            assert metrics == evaluate(params, g, split_rows(g, part))
            assert list(metrics) == list(split_rows(g, part))
        assert list(evaluate(params, g, "train")) == ["P", "A"]

    def test_empty_split_error(self, toy_graph):
        params = _fit_quick(toy_graph, 0)[0]
        with pytest.raises(ValueError, match="empty"):
            evaluate(params, toy_graph, {"B": np.array([], dtype=int)})


def _fit_quick(g, epochs, **kw):
    cfg = TrainConfig(
        layer_widths=(3, 2), d_a=2, seed=0, max_epochs=epochs,
        patience=min(epochs, 30), **kw,
    )
    return fit(g, cfg)


class TestFit:
    def test_zero_epochs_returns_initialized(self, toy_graph):
        params, log = _fit_quick(toy_graph, 0)
        assert log == []
        assert params.n_layers == 3

    def test_loss_decreases_over_ten_epochs(self, toy_graph):
        _, log = _fit_quick(toy_graph, 10, dropout_rate=0.0)
        assert log[9]["train_loss"] < log[0]["train_loss"]

    def test_log_schema(self, toy_graph):
        _, log = _fit_quick(toy_graph, 3)
        assert {"epoch", "train_loss", "val_micro_f1", "val_macro_f1", "epoch_seconds"} <= set(log[0])
        assert [r["epoch"] for r in log] == [1, 2, 3]

    def test_bit_deterministic_given_seed(self, toy_graph):
        p1, log1 = _fit_quick(toy_graph, 5)
        p2, log2 = _fit_quick(toy_graph, 5)
        for name, p in p1.named().items():
            assert np.array_equal(p.value, p2.named()[name].value)
        assert [r["train_loss"] for r in log1] == [r["train_loss"] for r in log2]

    def test_train_step_applies_loss_weights(self, toy_graph):
        train_idx = {"B": toy_graph.splits["B"]["train"]}
        losses = []
        for weights in (None, {"B": 2.0}):
            cfg = TrainConfig(layer_widths=(3, 2), d_a=2, seed=0, loss_weights=weights)
            params = build_params(toy_graph, cfg)
            adam = AdamState.for_params(params.named())
            losses.append(train_step(toy_graph, params, adam, cfg, train_idx, epoch=1))
        assert losses[1] == pytest.approx(2.0 * losses[0], rel=1e-12)

    def test_no_labels_error(self, toy_graph):
        from dataclasses import replace

        bare = replace(toy_graph, labels={}, class_counts={}, splits={})
        with pytest.raises(ValueError, match="labeled"):
            _fit_quick(bare, 3)

    def test_final_width_is_class_count(self, toy_graph):
        params, _ = _fit_quick(toy_graph, 1)
        assert params.dims[-1]["B"] == toy_graph.class_counts["B"]

    def test_mean_variant_trains_with_uniform_attention(self, toy_graph):
        from hetconv.model import forward

        cfg = TrainConfig(
            layer_widths=(3, 2), d_a=2, seed=0, max_epochs=3, patience=3,
            mean_variant=True,
        )
        params, log = fit(toy_graph, cfg)
        assert len(log) == 3
        _, records = forward(params, toy_graph)
        for layer in records:
            for att in layer.values():
                assert np.allclose(att, 1.0 / att.shape[1])

    def test_planted_signal_reaches_high_f1(self):
        from hetconv.datagen import GenSpec, DegreeSpec, EdgeSpec, generate, with_splits

        edges = (
            EdgeSpec("P", "C", DegreeSpec(dist="const", value=1)),
            EdgeSpec("A", "P", DegreeSpec(exponent=2.0, min_degree=4, max_degree=30)),
            EdgeSpec("P", "T", DegreeSpec(exponent=2.5, min_degree=1, max_degree=30)),
        )
        spec = GenSpec(
            counts={"A": 250, "P": 900, "C": 12, "T": 500},
            n_classes=4, noise=0.0, seed=3, edges=edges,
        )
        g = with_splits(generate(spec), 60.0, seed=3)
        cfg = TrainConfig(layer_widths=(64, 4), seed=3, max_epochs=60, patience=20)
        params, log = fit(g, cfg)
        best_val = max(r["val_micro_f1"] for r in log)
        assert best_val >= 0.9


class TestModelLossGradcheck:
    def test_toy_two_layer(self, toy_graph):
        cfg = TrainConfig(layer_widths=(3, 2), d_a=2, seed=0)
        report = model_loss_gradcheck(toy_graph, cfg, h=1e-5, tol=1e-4)
        assert report.passed, f"max rel err {report.max_rel_err:.2e}"

    def test_reports_every_parameter_and_zero_for_dead_blocks(self, toy_graph):
        cfg = TrainConfig(layer_widths=(3, 2), d_a=2, seed=0)
        report = model_loss_gradcheck(toy_graph, cfg, h=1e-5, tol=1e-4)
        assert set(report.rel_err) == set(build_params(toy_graph, cfg).named())
        # the loss reads only B, so the last layer's A block is dead
        dead = [k for k in report.abs_err if k.startswith("L3_A_")]
        assert dead and all(report.abs_err[k] == 0.0 for k in dead)


class TestFloat32:
    CFG = dict(layer_widths=(3, 2), d_a=2, seed=0)

    def test_train_step_keeps_parameters_gradients_and_moments_float32(self, toy_graph):
        from hetconv.autodiff import Tape
        from hetconv.model import forward

        cfg = TrainConfig(**self.CFG)
        params = build_params(toy_graph, cfg)
        named = params.named()
        adam = AdamState.for_params(named)
        train_idx = {"B": toy_graph.splits["B"]["train"]}
        train_step(toy_graph, params, adam, cfg, train_idx, epoch=1)
        tape = Tape()
        params.attach(tape)
        h, _ = forward(params, toy_graph, mode="train")
        tape.backward(cross_entropy_loss(h, toy_graph.labels, train_idx))
        adam_step(named, adam, cfg.learning_rate, cfg.l2_weight)
        # blocks the loss never reads get no gradient
        assert {p.grad.dtype for p in named.values() if p.grad is not None} == {np.dtype(np.float32)}
        for name, p in named.items():
            assert p.value.dtype == np.float32, name
            assert adam.m[name].dtype == adam.v[name].dtype == np.float32, name

    def test_attention_records_are_float64_distributions(self, toy_graph):
        from hetconv.model import forward
        from hetconv import rng as rng_mod

        params = build_params(toy_graph, TrainConfig(**self.CFG))
        for mode, kw in (("train", {"rng": rng_mod.stream(0, "t"), "dropout_rate": 0.5}),
                         ("eval", {})):
            h, records = forward(params, toy_graph, mode=mode, **kw)
            assert h["B"].value.dtype == np.float32
            for layer in records:
                for att in layer.values():
                    assert att.dtype == np.float64
                    assert np.abs(att.sum(axis=1) - 1.0).max() <= 1e-6

    def test_seeded_fits_bit_identical(self, toy_graph):
        p1, log1 = _fit_quick(toy_graph, 5)
        p2, log2 = _fit_quick(toy_graph, 5)
        assert p1.dtype == np.float32
        for name, p in p1.named().items():
            assert p.value.tobytes() == p2.named()[name].value.tobytes()
        assert [r["train_loss"] for r in log1] == [r["train_loss"] for r in log2]

    def test_seeded_float64_fits_bit_identical(self, toy_graph):
        from dataclasses import replace

        feats = {t: f * 1e16 for t, f in toy_graph.features.items()}
        big = replace(toy_graph, features=feats)
        p1, log1 = _fit_quick(big, 5)
        p2, log2 = _fit_quick(replace(toy_graph, features=feats), 5)
        assert p1.dtype == np.float64
        for name, p in p1.named().items():
            assert p.value.tobytes() == p2.named()[name].value.tobytes()
        assert [r["train_loss"] for r in log1] == [r["train_loss"] for r in log2]

    @pytest.mark.parametrize("scale,dtype", [(1e15, np.float32), (2e15, np.float64), (1e200, np.float64)])
    def test_large_features_give_float64(self, toy_graph, scale, dtype):
        from dataclasses import replace

        big = replace(toy_graph, features={**toy_graph.features, "A": np.full((3, 2), -scale)})
        params = build_params(big, TrainConfig(**self.CFG))
        assert all(p.value.dtype == dtype for p in params.named().values())


class TestEmptyValidation:
    def test_empty_val_part_falls_back_to_loss(self, toy_graph):
        from dataclasses import replace

        splits = {"B": {**toy_graph.splits["B"], "val": np.array([], dtype=int)}}
        params, log = _fit_quick(replace(toy_graph, splits=splits), 3)
        assert len(log) == 3
        assert all(r["val_micro_f1"] is None for r in log)

    def test_empty_split_error_names_split_and_types(self, toy_graph):
        from dataclasses import replace

        splits = {"B": {**toy_graph.splits["B"], "val": np.array([], dtype=int)}}
        params = build_params(toy_graph, TrainConfig(**TestFloat32.CFG))
        with pytest.raises(ValueError, match=r"empty split 'val' for types \['B'\]"):
            evaluate(params, replace(toy_graph, splits=splits), "val")
        with pytest.raises(ValueError, match="empty split 'dev' for no type"):
            evaluate(params, toy_graph, "dev")


class TestGoldenFit:
    # sha256 of repr([(train_loss, val_micro_f1) per epoch]) followed by
    # every parameter's bytes in named() order, for a seeded fit on
    # dblp_spec(235, seed=4) with 20% splits, at feature scale 1 (float32)
    # and 1e16 (float64), on one BLAS thread (see conftest.py)
    GOLDEN = {
        1.0: "e64525d8b34bcbd6bad87101198711dae75337f0604ed44e7ed4df6dcdf22e8f",
        1e16: "816f6a6e295299ea4c5e15cdc548405f423b52f3dcd23749d303b2483ec02bad",
    }

    def test_runs_on_one_blas_thread(self):
        # the digests hold for one thread count; conftest.py pins it to 1
        from hetconv.cli import _blas_threads

        counts = _blas_threads()
        assert counts and set(counts.values()) == {1}, counts

    @pytest.mark.parametrize("scale", sorted(GOLDEN))
    def test_seeded_fit_matches_golden_digest(self, scale):
        import hashlib
        from dataclasses import replace

        from hetconv.datagen import dblp_spec, generate, with_splits

        g = with_splits(generate(dblp_spec(235, seed=4)), 20.0, seed=4)
        g = replace(g, features={t: f * scale for t, f in g.features.items()})
        params, log = fit(g, TrainConfig(seed=4, max_epochs=8, patience=8))
        assert params.dtype == (np.float32 if scale == 1.0 else np.float64)
        digest = hashlib.sha256(
            repr([(r["train_loss"], r["val_micro_f1"]) for r in log]).encode()
        )
        for p in params.named().values():
            digest.update(p.value.tobytes())
        assert digest.hexdigest() == self.GOLDEN[scale]
