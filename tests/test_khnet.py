"""Reconstruction network: dense stacks, physical/integration layers,
gradients, Adam, schedule, training loop."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from rodtwin import khnet
from rodtwin.config import TrainSettings, TwinConfig
from rodtwin.errors import (ConfigurationError, DomainError, ShapeError)
from rodtwin.khnet import (AdamState, KhModel, LAYER_SIZES, N_PARAMS,
                           PARAM_KEYS, StepBuffers, _Samples, adam_step,
                           boundary_features, dense_forward, init_stack,
                           kh_integrate, kh_physical_layer, loss_and_gradients,
                           lr_schedule, mse_loss, reconstruct_field,
                           stack_views, train)
from rodtwin.io import load_checkpoint, mesh_from_config, save_checkpoint
from rodtwin.metrics import compute_metrics
from rodtwin.pipeline import NormConstants, generate_dataset, roster_specs


def _random_model(seed):
    rng = np.random.default_rng(seed)
    norm = NormConstants(r_center=0.2, r_scale=0.3, z_center=1.9, z_scale=1.9,
                         T_center=600.0, T_scale=300.0)
    return KhModel(G_stack=init_stack(rng), dG_stack=init_stack(rng),
                   norm=norm, eta=1.0)


def _random_batch(rng, b=8, m=4):
    feats = rng.uniform(-1.0, 1.0, size=(b, m, 5))
    u = rng.uniform(-1.0, 1.0, size=(b, m))
    d = rng.uniform(-1.0, 1.0, size=(b, m))
    w = rng.uniform(0.1, 1.0, size=(b, m))
    y = rng.uniform(-1.0, 1.0, size=b)
    return feats, u, d, w, y


class TestDenseForward:
    def test_all_zero_parameters_give_zero(self):
        params = {"W1": np.zeros((5, 128)), "b1": np.zeros(128),
                  "W2": np.zeros((128, 64)), "b2": np.zeros(64),
                  "W3": np.zeros((64, 1)), "b3": np.zeros(1)}
        x = np.random.default_rng(0).uniform(-1, 1, size=(7, 5))
        assert np.all(dense_forward(params, x) == 0.0)

    def test_tanh_saturation_under_large_weights(self):
        rng = np.random.default_rng(3)
        params = init_stack(rng)
        x = np.full((1, 5), 0.5)
        pre = x @ (1e3 * params["W1"]) + params["b1"]
        a1 = np.tanh(pre)
        live = np.abs(pre) > 14.0  # tanh is within 1e-6 of +-1 beyond this
        assert live.any()
        assert np.all(np.abs(np.abs(a1[live]) - 1.0) < 1e-6)

    def test_matches_loop_reimplementation(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            params = init_stack(rng)
            x = rng.uniform(-1.5, 1.5, size=(4, 5))
            got = dense_forward(params, x)
            for i in range(x.shape[0]):
                a1 = [math.tanh(sum(x[i, k] * params["W1"][k, j]
                                    for k in range(5)) + params["b1"][j])
                      for j in range(128)]
                a2 = [math.tanh(sum(a1[k] * params["W2"][k, j]
                                    for k in range(128)) + params["b2"][j])
                      for j in range(64)]
                y = sum(a2[k] * params["W3"][k, 0] for k in range(64)) \
                    + params["b3"][0]
                assert got[i] == pytest.approx(y, abs=1e-12)

    def test_stacked_block_matches_each_stack(self):
        # one call on the (2, ...) block, over more rows than one pass takes,
        # gives each stack's own single-pass values bit for bit
        model = _random_model(4)
        x = np.random.default_rng(5).uniform(-1, 1,
                                             size=(khnet.FORWARD_ROWS + 37, 5))
        got = dense_forward(stack_views(model.theta), x)
        assert got.shape == (2, len(x))
        for i, stack in enumerate((model.G_stack, model.dG_stack)):
            assert got[i].tobytes() == \
                khnet._dense_forward_cache(stack, x)[0].tobytes()
        assert dense_forward(model.G_stack, np.zeros((0, 5))).shape == (0,)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        params = init_stack(rng)
        with pytest.raises(ShapeError):
            dense_forward(params, np.zeros((3, 4)))

    def test_malformed_stack_rejected(self):
        with pytest.raises(ShapeError):
            dense_forward({"W1": np.zeros((5, 8))}, np.zeros((2, 5)))


class TestPhysicalAndIntegrationLayers:
    def test_direct_arithmetic(self):
        assert kh_physical_layer(1.0, 0.3, 0.2, 0.5) == pytest.approx(0.44)

    def test_zero_kernels_give_zero(self):
        assert kh_physical_layer(1.0, 2.0, 0.0, 0.0) == 0.0

    def test_bilinearity_in_sensor_values(self):
        u, d, G, dG = 0.7, -0.4, 0.3, 0.9
        assert kh_physical_layer(2 * u, 2 * d, G, dG) == pytest.approx(
            2 * kh_physical_layer(u, d, G, dG))

    def test_zero_integrand_integrates_to_zero(self):
        assert kh_integrate(np.zeros(8), np.ones(8)) == 0.0

    def test_single_node_unit_weight_is_identity(self):
        assert kh_integrate(np.array([0.37]), np.array([1.0])) == pytest.approx(0.37)

    def test_disk_harmonic_reconstruction(self):
        # midpoint quadrature on the unit circle with the closed-form 2D
        # free-space kernel; u = x is harmonic so the boundary representation
        # must reproduce interior values
        m = 256
        theta = (np.arange(m) + 0.5) * 2.0 * np.pi / m
        bx, by = np.cos(theta), np.sin(theta)
        u = bx.copy()          # u = x on the boundary
        dudn = bx.copy()       # du/dn = cos(theta) for u = x on the unit circle
        w = np.full(m, 2.0 * np.pi / m)

        rng = np.random.default_rng(5)
        pts = []
        for rad, ang in zip(rng.uniform(0.0, 0.8, 25), rng.uniform(0, 2 * np.pi, 25)):
            pts.append((rad * np.cos(ang), rad * np.sin(ang)))
        for px, py in pts:
            dx, dy = bx - px, by - py
            d2 = dx * dx + dy * dy
            G = np.log(d2) / (4.0 * np.pi)
            dG = (bx * dx + by * dy) / d2 / (2.0 * np.pi)  # outward normal = (bx, by)
            phi = kh_physical_layer(u, dudn, G, dG)
            got = kh_integrate(phi, w)
            assert got == pytest.approx(px, abs=1e-3)


class TestBoundaryFeatures:
    NORM = NormConstants(r_center=0.23753, r_scale=0.23753, z_center=1.938,
                         z_scale=1.938, T_center=700.0, T_scale=200.0)

    def test_coincident_point_zeroes_distance(self):
        p = np.array([[0.0047506, 1.2]])
        s = np.array([[0.0047506, 1.2]])
        f = boundary_features(p, s, self.NORM)
        assert f[0, 0, 3] == 0.0   # axial offset
        assert f[0, 0, 4] == 0.0   # scaled distance

    def test_symmetric_sensors_mirror_axial_offset(self):
        p = np.array([[0.002, 2.0]])
        s = np.array([[0.0047506, 1.5], [0.0047506, 2.5]])
        f = boundary_features(p, s, self.NORM)
        assert f[0, 0, 3] == pytest.approx(-f[0, 1, 3], rel=1e-12)
        assert f[0, 0, 4] == pytest.approx(f[0, 1, 4], rel=1e-12)

    def test_training_features_stay_in_band(self, dataset_tiny):
        feats = _Samples(dataset_tiny, "train").feats
        assert np.abs(feats).max() <= 1.5


class TestLossAndSchedule:
    def test_identical_vectors_give_zero(self):
        v = np.arange(5.0)
        assert mse_loss(v, v) == 0.0

    def test_unit_offset_gives_one(self):
        v = np.arange(5.0)
        assert mse_loss(v + 1.0, v) == pytest.approx(1.0)

    def test_matches_two_pass_recomputation(self):
        rng = np.random.default_rng(11)
        p, t = rng.normal(size=10), rng.normal(size=10)
        two_pass = sum((a - b) ** 2 for a, b in zip(p, t)) / 10
        assert mse_loss(p, t) == pytest.approx(two_pass, abs=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError):
            mse_loss([], [])

    def test_schedule_breakpoints(self):
        assert lr_schedule(0) == 1e-3
        assert lr_schedule(299) == 1e-3
        assert lr_schedule(300) == 1e-4
        assert lr_schedule(600) == 1e-5
        assert lr_schedule(900) == 1e-6
        assert lr_schedule(1100) == 1e-6
        assert lr_schedule(5000) == 1e-6

    def test_schedule_exact_at_every_epoch(self):
        for epoch in range(1200):
            if epoch < 300:
                expected = 1e-3
            elif epoch < 600:
                expected = 1e-4
            elif epoch < 900:
                expected = 1e-5
            else:
                expected = 1e-6
            assert lr_schedule(epoch) == expected

    def test_negative_epoch_rejected(self):
        with pytest.raises(DomainError):
            lr_schedule(-1)


class TestGradients:
    def test_zero_loss_batch_has_zero_gradients(self):
        model = _random_model(0)
        rng = np.random.default_rng(1)
        feats, u, d, w, _ = _random_batch(rng)
        # evaluate the model's own predictions so the residual vanishes
        b, m, nf = feats.shape
        flat = feats.reshape(b * m, nf)
        g = dense_forward(model.G_stack, flat).reshape(b, m)
        dg = dense_forward(model.dG_stack, flat).reshape(b, m)
        y = np.einsum("bm,bm->b", w, u * dg - g * d)
        loss, grad = loss_and_gradients(model, feats, u, d, w, y)
        assert loss == 0.0
        for k, grads in stack_views(grad).items():
            assert np.all(grads[0] == 0.0) and np.all(grads[1] == 0.0), k

    def test_finite_difference_agreement(self):
        h = 1e-5
        for seed in range(5):
            model = _random_model(seed)
            rng = np.random.default_rng(100 + seed)
            feats, u, d, w, y = _random_batch(rng)
            _, grad = loss_and_gradients(model, feats, u, d, w, y)
            views = stack_views(grad)
            analytic = {name: {k: views[k][i] for k in PARAM_KEYS}
                        for i, name in enumerate(("G", "dG"))}
            stacks = {"G": model.G_stack, "dG": model.dG_stack}
            for _ in range(20):
                name = ("G", "dG")[rng.integers(2)]
                k = PARAM_KEYS[rng.integers(len(PARAM_KEYS))]
                p = stacks[name][k]
                idx = tuple(rng.integers(s) for s in p.shape)
                orig = p[idx]
                p[idx] = orig + h
                lp, _ = loss_and_gradients(model, feats, u, d, w, y)
                p[idx] = orig - h
                lm, _ = loss_and_gradients(model, feats, u, d, w, y)
                p[idx] = orig
                fd = (lp - lm) / (2.0 * h)
                an = float(analytic[name][k].reshape(p.shape)[idx])
                assert abs(an - fd) / (abs(an) + 1e-8) < 1e-5

    def test_single_sample_gradient_scales_with_residual(self):
        model = _random_model(2)
        rng = np.random.default_rng(3)
        feats, u, d, w, _ = _random_batch(rng, b=1)
        b, m, nf = feats.shape
        flat = feats.reshape(b * m, nf)
        g = dense_forward(model.G_stack, flat).reshape(b, m)
        dg = dense_forward(model.dG_stack, flat).reshape(b, m)
        yhat = np.einsum("bm,bm->b", w, u * dg - g * d)
        gg1 = stack_views(loss_and_gradients(model, feats, u, d, w,
                                             yhat - 0.1)[1])
        gg2 = stack_views(loss_and_gradients(model, feats, u, d, w,
                                             yhat - 0.2)[1])
        for k in PARAM_KEYS:
            np.testing.assert_allclose(gg2[k][0], 2.0 * gg1[k][0], rtol=1e-9)

    def test_one_stacked_forward_and_backward_per_step(self, monkeypatch):
        calls = []
        for name in ("_dense_forward_cache", "_dense_backward"):
            fn = getattr(khnet, name)
            monkeypatch.setattr(khnet, name, lambda *a, fn=fn, name=name:
                                calls.append(name) or fn(*a))
        model, batch = _criterion4_case(0)
        for dtype in (np.float32, np.float64):
            calls.clear()
            loss_and_gradients(model, *batch, buffers=StepBuffers(dtype))
            assert calls == ["_dense_forward_cache", "_dense_backward"]

    def test_empty_batch_rejected(self):
        model = _random_model(0)
        with pytest.raises(DomainError):
            loss_and_gradients(model, np.zeros((0, 4, 5)), np.zeros((0, 4)),
                               np.zeros((0, 4)), np.zeros((0, 4)), np.zeros(0))


class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        model = _random_model(4)
        state = AdamState.for_model(model)
        before = {k: model.G_stack[k].copy() for k in PARAM_KEYS}
        adam_step(model, state, np.zeros(N_PARAMS), alpha=1e-3)
        for k in PARAM_KEYS:
            np.testing.assert_array_equal(model.G_stack[k], before[k])

    def test_first_step_is_signed_alpha(self):
        model = _random_model(5)
        state = AdamState.for_model(model)
        rng = np.random.default_rng(6)
        grad = rng.choice([-1.0, 1.0], size=N_PARAMS) * 0.5
        gg = stack_views(grad)
        before = {k: model.G_stack[k].copy() for k in PARAM_KEYS}
        adam_step(model, state, grad, alpha=1e-3)
        for k in PARAM_KEYS:
            step = model.G_stack[k] - before[k]
            np.testing.assert_allclose(step, -1e-3 * np.sign(gg[k][0]),
                                       rtol=1e-6)

    def test_quadratic_bowl_converges(self):
        # zeroed weights leave only the two output biases trainable, so the
        # loss is an exact 2-parameter quadratic bowl
        norm = NormConstants(r_center=0.0, r_scale=1.0, z_center=0.0,
                             z_scale=1.0, T_center=0.0, T_scale=1.0)
        zero = {"W1": np.zeros((5, 128)), "b1": np.zeros(128),
                "W2": np.zeros((128, 64)), "b2": np.zeros(64),
                "W3": np.zeros((64, 1)), "b3": np.zeros(1)}
        model = KhModel(G_stack={k: v.copy() for k, v in zero.items()},
                        dG_stack={k: v.copy() for k, v in zero.items()},
                        norm=norm, eta=1.0)
        state = AdamState.for_model(model)
        feats = np.zeros((1, 2, 5))
        u = np.array([[0.5, 0.5]])
        d = np.array([[0.25, 0.75]])
        w = np.array([[1.0, 1.0]])
        y = np.array([2.0])
        loss0, _ = loss_and_gradients(model, feats, u, d, w, y)
        for _ in range(100):
            _, grad = loss_and_gradients(model, feats, u, d, w, y)
            adam_step(model, state, grad, alpha=0.05)
        loss_final, _ = loss_and_gradients(model, feats, u, d, w, y)
        assert loss_final <= loss0 / 10.0

    def test_flat_step_matches_per_array_formula(self):
        # reference: the textbook update applied to every layer array on its own
        b1, b2, eps, alpha = 0.9, 0.999, 1e-8, 1e-3
        model = _random_model(7)
        state = AdamState.for_model(model)
        ref = {name: {k: v.copy() for k, v in stack.items()} for name, stack
               in (("G", model.G_stack), ("dG", model.dG_stack))}
        ref_m = {name: {k: np.zeros_like(v) for k, v in s.items()}
                 for name, s in ref.items()}
        ref_v = {name: {k: np.zeros_like(v) for k, v in s.items()}
                 for name, s in ref.items()}
        rng = np.random.default_rng(8)
        for t in range(1, 4):
            grad = rng.normal(size=N_PARAMS)
            adam_step(model, state, grad, alpha, b1, b2, eps)
            views = stack_views(grad)
            for i, name in enumerate(("G", "dG")):
                for k in PARAM_KEYS:
                    g = views[k][i]
                    m, v = ref_m[name][k], ref_v[name][k]
                    m[...] = b1 * m + (1.0 - b1) * g
                    v[...] = b2 * v + (1.0 - b2) * g * g
                    ref[name][k] -= (alpha * (m / (1.0 - b1 ** t))
                                     / (np.sqrt(v / (1.0 - b2 ** t)) + eps))
        for name, stack in (("G", model.G_stack), ("dG", model.dG_stack)):
            for k in PARAM_KEYS:
                np.testing.assert_array_equal(stack[k], ref[name][k])


class TestFlatParameters:
    def test_stacks_are_views_into_theta(self):
        model = _random_model(0)
        assert model.theta.shape == (N_PARAMS,)
        views = stack_views(model.theta)
        assert tuple(views) == PARAM_KEYS
        for k, view in views.items():
            assert view.shape == (2, *model.G_stack[k].shape)
            assert np.shares_memory(view, model.theta)
            for i, stack in enumerate((model.G_stack, model.dG_stack)):
                assert np.shares_memory(stack[k], model.theta)
                assert np.shares_memory(stack[k], view[i])
                assert stack[k].shape == view[i].shape
                np.testing.assert_array_equal(stack[k], view[i])
        before = model.theta.copy()
        model.dG_stack["W2"][3, 4] += 1.0
        changed = np.flatnonzero(model.theta != before)
        assert changed.size == 1

    def test_constructor_copies_its_inputs(self):
        rng = np.random.default_rng(1)
        g, dg = init_stack(rng), init_stack(rng)
        model = KhModel(G_stack=g, dG_stack=dg, norm=_random_model(0).norm,
                        eta=1.0)
        before = g["W1"][0, 0]
        g["W1"][0, 0] += 1.0
        assert model.G_stack["W1"][0, 0] == before
        assert not np.shares_memory(g["W1"], model.theta)

    @pytest.mark.parametrize("key, shape", [("b1", (64,)), ("W3", (64,)),
                                            ("W2", (128, 63))])
    def test_wrong_layer_shape_rejected(self, key, shape):
        stack = init_stack(np.random.default_rng(0))
        stack[key] = np.zeros(shape)
        with pytest.raises(ShapeError):
            KhModel(G_stack=stack, dG_stack=init_stack(np.random.default_rng(1)),
                    norm=_random_model(0).norm, eta=1.0)

    def test_missing_or_extra_layer_rejected(self):
        norm = _random_model(0).norm
        full = init_stack(np.random.default_rng(0))
        missing = {k: v for k, v in full.items() if k != "b3"}
        extra = dict(full, W4=np.zeros((1, 1)))
        for bad in (missing, extra):
            with pytest.raises(ShapeError):
                KhModel(G_stack=full, dG_stack=bad, norm=norm, eta=1.0)

    def test_gradients_are_fresh_vectors(self):
        model = _random_model(3)
        feats, u, d, w, y = _random_batch(np.random.default_rng(4))
        _, g1 = loss_and_gradients(model, feats, u, d, w, y)
        kept = g1.copy()
        _, g2 = loss_and_gradients(model, feats, u, d, w, y)
        assert g1.shape == g2.shape == (N_PARAMS,)
        assert not np.shares_memory(g1, g2)
        assert not np.shares_memory(g1, model.theta)
        np.testing.assert_array_equal(g1, kept)
        np.testing.assert_array_equal(g1, g2)

    # sha256 of save_checkpoint's file, recorded while theta still held the
    # whole G stack before the whole dG stack (numpy 2.4.6, OpenBLAS 0.3.31,
    # one thread): the order of theta is invisible in the checkpoint, and
    # training reaches the same bits
    def test_checkpoint_bytes_of_seeded_model(self, tmp_path):
        save_checkpoint(_criterion4_case(0)[0], tmp_path / "c.json")
        assert hashlib.sha256((tmp_path / "c.json").read_bytes()).hexdigest() \
            == "59f9a1fcf2e31132e05e7b2a59daf75da115914c0604f7394c884c0845092d44"

    # re-recorded with TestTraining's reference values whenever the ground
    # truth of dataset_tiny moves
    def test_checkpoint_bytes_of_trained_model(self, dataset_tiny, tmp_path):
        model, _ = train(dataset_tiny, TrainSettings(epochs=3, fixed_lr=1e-3,
                                                     seed=0))
        save_checkpoint(model, tmp_path / "c.json")
        assert hashlib.sha256((tmp_path / "c.json").read_bytes()).hexdigest() \
            == "837a0f9b432c6103bb3c521aa94c27cf8d269bdfc4427381bab52431ddde92f5"


class TestTraining:
    # train_mse / val_mse of this run (numpy 2.4.6, OpenBLAS 0.3.31, one
    # thread). The flat parameter vector reproduced the per-array
    # implementation bit for bit; the values were re-recorded, with the
    # training code unchanged, when the coupled solver became one Picard loop
    # and when the coolant march became exact in enthalpy, each time because
    # the ground truth of dataset_tiny changed. They were re-recorded again
    # when the training steps moved to float32 stacks: train_mse is then a
    # float32 batch loss and every step's float32 gradient differs from the
    # float64 one by about 1e-7 relative, so both tuples moved by up to
    # 6e-8 relative (validation stays float64 on float64 weights). They were
    # re-recorded once more, the training code again unchanged, when the
    # coupled loop stopped under-relaxing the re-marched coolant: the
    # ground-truth fields moved by under 0.004 K (below the Picard
    # tolerance), and both tuples by at most 5.3e-6 relative
    REFERENCE_TRAIN_MSE = (0.33258895203471184, 0.18456782400608063,
                           0.14328755252063274)
    REFERENCE_VAL_MSE = (0.187641080266295, 0.0503753628880642,
                         0.07763497154370025)

    def test_matches_per_array_reference(self, dataset_tiny):
        _, hist = train(dataset_tiny, TrainSettings(epochs=3, fixed_lr=1e-3,
                                                    seed=0))
        np.testing.assert_allclose(hist.train_mse, self.REFERENCE_TRAIN_MSE,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(hist.val_mse, self.REFERENCE_VAL_MSE,
                                   rtol=1e-12, atol=0.0)
        assert hist.best_epoch == 1

    def test_smoke_run_history(self, dataset_tiny):
        settings = TrainSettings(epochs=5, fixed_lr=1e-3, seed=0)
        model, hist = train(dataset_tiny, settings)
        assert len(hist.train_mse) == len(hist.val_mse) == len(hist.lr) == 5
        assert hist.train_mse[-1] < hist.train_mse[0]
        assert 0 <= hist.best_epoch < 5

    def test_seed_determinism(self, dataset_tiny):
        settings = TrainSettings(epochs=3, fixed_lr=1e-3, seed=7)
        m1, _ = train(dataset_tiny, settings)
        m2, _ = train(dataset_tiny, settings)
        for k in PARAM_KEYS:
            np.testing.assert_array_equal(m1.G_stack[k], m2.G_stack[k])
            np.testing.assert_array_equal(m1.dG_stack[k], m2.dG_stack[k])

    def test_cases_with_different_node_layouts_rejected(self, dataset_tiny,
                                                         cfg_tiny):
        from dataclasses import replace
        from rodtwin.pipeline import Dataset
        cases = list(dataset_tiny.cases)
        i = next(i for i, c in enumerate(cases) if c.spec.split == "train")
        cases[i] = replace(cases[i], z=cases[i].z + 1e-3)
        ds = Dataset(cases=cases, norm=dataset_tiny.norm, config=cfg_tiny)
        with pytest.raises(ConfigurationError):
            train(ds, TrainSettings(epochs=1))

    def test_missing_split_rejected(self, dataset_tiny, cfg_tiny):
        from rodtwin.pipeline import Dataset
        partial = Dataset(cases=dataset_tiny.split("train"),
                          norm=dataset_tiny.norm, config=cfg_tiny)
        with pytest.raises(ConfigurationError):
            train(partial, TrainSettings(epochs=1))

    def test_constant_field_dataset_is_learnable(self, cfg_tiny):
        from rodtwin.pipeline import CaseSpec, generate_dataset
        specs = [CaseSpec(case_id=f"{s}_0", q0=0.0, burnup=0.0, split=s)
                 for s in ("train", "validate", "test")]
        ds = generate_dataset(specs, cfg_tiny, seed=0)
        model, _ = train(ds, TrainSettings(epochs=5, fixed_lr=1e-3, seed=0))
        mesh = mesh_from_config(cfg_tiny)
        for c in ds.cases:
            rec = reconstruct_field(model, c.sensors, mesh)
            assert np.abs(rec.flatten() - c.T).max() < 0.5


class TestReconstruction:
    def test_prediction_linear_in_sensor_vector(self):
        model = _random_model(9)
        rng = np.random.default_rng(10)
        feats, u, d, w, _ = _random_batch(rng, b=6)
        g, dg = model.kernels(feats)
        p1 = kh_integrate(kh_physical_layer(u[0], d[0], g, dg), w[0])
        p2 = kh_integrate(kh_physical_layer(2 * u[0], 2 * d[0], g, dg), w[0])
        np.testing.assert_allclose(p2, 2.0 * p1, rtol=1e-12)

    def test_mismatched_sensors_rejected(self, dataset_tiny, cfg_tiny):
        model, _ = train(dataset_tiny, TrainSettings(epochs=1, fixed_lr=1e-3))
        mesh = mesh_from_config(cfg_tiny)
        c = dataset_tiny.cases[0]
        bad = replace(c.sensors, T=c.sensors.T + 5000.0)
        with pytest.raises(ConfigurationError):
            reconstruct_field(model, bad, mesh)
        # a dead thermocouple reads nan or inf; the |u| > 3 test alone
        # lets a nan through, and a non-finite position or weight gives an
        # all-nan field
        for name in ("T", "dhat", "z", "r", "w"):
            for value in (np.nan, np.inf, -np.inf):
                arr = getattr(c.sensors, name).copy()
                arr[1] = value
                with pytest.raises(ConfigurationError, match="non-finite"):
                    reconstruct_field(model, replace(c.sensors, **{name: arr}),
                                      mesh)

    @pytest.mark.parametrize("name", ["z", "r", "T", "dhat", "w"])
    def test_unequal_sensor_lengths_rejected(self, dataset_tiny, cfg_tiny,
                                             name):
        model, _ = train(dataset_tiny, TrainSettings(epochs=1, fixed_lr=1e-3))
        c = dataset_tiny.cases[0]
        short = replace(c.sensors, **{name: getattr(c.sensors, name)[:-1]})
        with pytest.raises(ConfigurationError, match="one length"):
            reconstruct_field(model, short, mesh_from_config(cfg_tiny))


def _cold(model):
    """A model with the same theta and norm that has never reconstructed."""
    return KhModel(G_stack=model.G_stack, dG_stack=model.dG_stack,
                   norm=model.norm, eta=model.eta)


def _snapshot(sensors, seed):
    """The sensors with 0.5 K of seeded noise on T, and dhat to match."""
    T = sensors.T + np.random.default_rng(seed).normal(0.0, 0.5,
                                                       sensors.T.shape)
    return replace(sensors, T=T, dhat=-sensors.eta * (T - sensors.T_inf))


def _bits(field):
    return field.flatten().tobytes()


def _edit_view(model, sensors, mesh):
    model.G_stack["W2"][3, 4] += 0.05
    return sensors, mesh


def _adam(model, sensors, mesh):
    grad = np.random.default_rng(2).normal(size=N_PARAMS)
    adam_step(model, AdamState.for_model(model), grad, 1e-3)
    return sensors, mesh


def _move_sensor(model, sensors, mesh):
    z = sensors.z.copy()
    z[2] += 0.01
    return replace(sensors, z=z), mesh


def _other_mesh(model, sensors, mesh):
    from rodtwin.config import MeshConfig, TwinConfig
    return sensors, mesh_from_config(
        TwinConfig(mesh=MeshConfig(nr_fuel=5, nr_clad=2, nz=10)))


def _replace_norm(model, sensors, mesh):
    model.norm = replace(model.norm, z_scale=1.5 * model.norm.z_scale)
    return sensors, mesh


def _change_weights(model, sensors, mesh):
    w = sensors.w.copy()
    w[[0, -1]] = 0.7 * w[0], 1.3 * w[-1]
    return replace(sensors, w=w), mesh


class TestLayoutKernels:
    """reconstruct_field keeps the operator of the last layout on the model;
    every result must be the bits a model without that cache gives."""

    @pytest.fixture
    def setup(self, dataset_tiny, cfg_tiny):
        rng = np.random.default_rng(11)
        model = KhModel(G_stack=init_stack(rng), dG_stack=init_stack(rng),
                        norm=dataset_tiny.norm, eta=1.0)
        return model, dataset_tiny.cases[0].sensors, mesh_from_config(cfg_tiny)

    def test_warm_call_runs_no_stack_and_matches_cold_model(self, setup,
                                                           monkeypatch):
        import rodtwin.khnet as khnet
        model, sensors, mesh = setup
        reconstruct_field(model, _snapshot(sensors, 0), mesh)
        calls = []
        for name in ("boundary_features", "dense_forward"):
            fn = getattr(khnet, name)
            monkeypatch.setattr(khnet, name, lambda *a, fn=fn, name=name:
                                calls.append(name) or fn(*a))
        warm = reconstruct_field(model, _snapshot(sensors, 1), mesh)
        assert calls == []
        cold = reconstruct_field(_cold(model), _snapshot(sensors, 1), mesh)
        assert calls == ["boundary_features", "dense_forward"]
        assert _bits(warm) == _bits(cold)

    def test_kept_operator_is_read_only(self, setup):
        model, sensors, mesh = setup
        op = model.operator(mesh, np.column_stack([sensors.r, sensors.z]),
                            sensors.w)
        assert op.shape == (mesh.n_nodes, 2 * sensors.T.size)
        assert op.dtype == np.float64
        with pytest.raises(ValueError):
            op[0, 0] = 0.0

    def test_matches_integrand_reference(self, setup):
        # the operator is kh_integrate(kh_physical_layer(...)) as one product
        model, sensors, mesh = setup
        r, z, _ = mesh.node_table()
        g, dg = model.kernels(boundary_features(
            np.column_stack([r, z]), np.column_stack([sensors.r, sensors.z]),
            model.norm))
        for seed in range(3):
            snap = _snapshot(sensors, seed)
            ref = model.norm.denorm_T(kh_integrate(kh_physical_layer(
                model.norm.norm_T(snap.T), model.norm.norm_d(snap.dhat), g, dg),
                snap.w))
            got = reconstruct_field(model, snap, mesh).flatten()
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_model_after_a_deleted_one_matches_cold_model(self, setup):
        # the operator lives on its model: a new model that may reuse a
        # freed model's id starts cold
        import gc
        model, sensors, mesh = setup
        first = _cold(model)
        reconstruct_field(first, _snapshot(sensors, 0), mesh)
        del first
        gc.collect()
        rng = np.random.default_rng(12)
        second = KhModel(G_stack=init_stack(rng), dG_stack=init_stack(rng),
                         norm=model.norm, eta=1.0)
        got = reconstruct_field(second, _snapshot(sensors, 0), mesh)
        assert _bits(got) == _bits(
            reconstruct_field(_cold(second), _snapshot(sensors, 0), mesh))
        assert _bits(got) != _bits(
            reconstruct_field(model, _snapshot(sensors, 0), mesh))

    @pytest.mark.parametrize("change", [_edit_view, _adam, _move_sensor,
                                        _other_mesh, _replace_norm,
                                        _change_weights],
                             ids=["stack-view-write", "adam-step",
                                  "moved-sensor", "other-mesh",
                                  "replaced-norm", "changed-weights"])
    def test_change_after_warm_call_matches_cold_model(self, setup, change):
        model, sensors, mesh = setup
        warm = reconstruct_field(model, _snapshot(sensors, 0), mesh)
        sensors, mesh = change(model, sensors, mesh)
        got = reconstruct_field(model, _snapshot(sensors, 0), mesh)
        assert _bits(got) != _bits(warm)      # the change moves the field
        assert _bits(got) == _bits(
            reconstruct_field(_cold(model), _snapshot(sensors, 0), mesh))

    def test_checkpoint_bytes_unchanged_by_reconstruction(self, setup,
                                                          tmp_path):
        from rodtwin.io import save_checkpoint
        model, sensors, mesh = setup
        save_checkpoint(model, tmp_path / "before.json")
        reconstruct_field(model, sensors, mesh)
        save_checkpoint(model, tmp_path / "after.json")
        assert (tmp_path / "before.json").read_bytes() == \
            (tmp_path / "after.json").read_bytes()


def _criterion4_case(seed):
    """Model and 8-sample batch of acceptance criterion 4 for one seed."""
    rng = np.random.default_rng(seed)
    norm = NormConstants(r_center=0.2, r_scale=0.3, z_center=1.9, z_scale=1.9,
                         T_center=600.0, T_scale=300.0)
    model = KhModel(G_stack=init_stack(rng), dG_stack=init_stack(rng),
                    norm=norm, eta=1.0)
    batch = (rng.uniform(-1, 1, size=(8, 4, 5)), rng.uniform(-1, 1, size=(8, 4)),
             rng.uniform(-1, 1, size=(8, 4)), rng.uniform(0.1, 1, size=(8, 4)),
             rng.uniform(-1, 1, size=8))
    return model, batch


class TestMixedPrecision:
    # float64 loss, gradient sum and squared norm of the default call on the
    # criterion-4 batches, recorded before the float32 path existed; rtol
    # 1e-12 allows only for another BLAS build's last bits
    FLOAT64_REFERENCE = (
        (0.20217772834570333, 1.9226999437223329, 0.31135476654297223),
        (0.32578186840690215, 0.5799772004615822, 0.5559108785240051),
        (0.29818198520323375, 1.2093283387935254, 1.3255111836880547),
        (0.46847190625083596, 1.7215982148215383, 2.5237780860175043),
        (0.29652827811358357, 1.1241774526386377, 1.2361337285825573))

    def test_default_call_is_the_float64_path(self):
        for seed, ref in enumerate(self.FLOAT64_REFERENCE):
            model, batch = _criterion4_case(seed)
            loss, grad = loss_and_gradients(model, *batch)
            loss64, grad64 = loss_and_gradients(
                model, *batch, buffers=StepBuffers(np.float64))
            assert loss == loss64
            np.testing.assert_array_equal(grad, grad64)
            assert grad.dtype == np.float64
            np.testing.assert_allclose((loss, grad.sum(), grad @ grad), ref,
                                       rtol=1e-12, atol=0.0)

    def test_float32_gradient_matches_float64(self):
        # worst measured over the 5 seeds (OpenBLAS 0.3.31, one thread):
        # 9.4e-7 of a layer's largest gradient entry and 9.8e-8 of the loss,
        # i.e. a few float32 ulps; the bounds leave a 5x and 10x margin
        for seed in range(5):
            model, batch = _criterion4_case(seed)
            loss64, grad64 = loss_and_gradients(model, *batch)
            loss32, grad32 = loss_and_gradients(
                model, *batch, buffers=StepBuffers(np.float32))
            assert abs(loss32 - loss64) <= 1e-6 * loss64
            s32, s64 = stack_views(grad32), stack_views(grad64)
            for k in PARAM_KEYS:
                for i in (0, 1):   # the G and the dG stack
                    scale = np.abs(s64[k][i]).max()
                    assert np.abs(s32[k][i] - s64[k][i]).max() \
                        <= 5e-6 * scale, k

    def test_float32_call_leaves_theta_alone(self):
        model, batch = _criterion4_case(0)
        before = model.theta.tobytes()
        _, grad = loss_and_gradients(model, *batch,
                                     buffers=StepBuffers(np.float32))
        assert model.theta.tobytes() == before
        assert model.theta.dtype == np.float64
        assert grad.dtype == np.float64 and grad.shape == (N_PARAMS,)
        assert not np.shares_memory(grad, model.theta)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_buffered_calls_match_fresh_ones(self, dtype):
        # one set of buffers through the five criterion-4 batches, as train
        # reuses them across steps
        buffers = StepBuffers(dtype)
        for seed in range(5):
            model, batch = _criterion4_case(seed)
            before = model.theta.tobytes()
            loss, grad = loss_and_gradients(model, *batch,
                                            buffers=StepBuffers(dtype))
            loss_b, grad_b = loss_and_gradients(model, *batch, buffers=buffers)
            assert loss_b == loss
            assert grad_b.dtype == np.float64
            assert grad_b.tobytes() == grad.tobytes()
            assert model.theta.tobytes() == before
            assert not np.shares_memory(grad_b, buffers.grad)
            assert not np.shares_memory(grad_b, model.theta)

    def test_training_keeps_weights_optimizer_and_checkpoint_float64(
            self, dataset_tiny, monkeypatch, tmp_path):
        seen, steps = [], []

        def recording_adam_step(model, state, grad, *args):
            seen.append((model.theta.dtype, state.m.dtype, state.v.dtype,
                         grad.dtype))
            adam_step(model, state, grad, *args)

        def recording_step(model, *batch, buffers):
            steps.append({buffers.theta.dtype, buffers.grad.dtype,
                          *(np.asarray(a).dtype for a in batch)})
            return loss_and_gradients(model, *batch, buffers=buffers)

        monkeypatch.setattr(khnet, "adam_step", recording_adam_step)
        monkeypatch.setattr(khnet, "loss_and_gradients", recording_step)
        model, hist = train(dataset_tiny, TrainSettings(epochs=2,
                                                        fixed_lr=1e-3))
        # the steps run in float32 on a training split already held in it
        assert steps and all(s == {np.dtype(np.float32)} for s in steps)
        assert seen and set(seen) == {(np.dtype(np.float64),) * 4}
        assert model.theta.dtype == np.float64
        # master weights carry float64 precision, not float32 values
        assert np.any(model.theta != model.theta.astype(np.float32))
        # validation runs in float64 on the master weights
        assert hist.val_mse[hist.best_epoch] == \
            _Samples(dataset_tiny, "validate").mse(model)
        save_checkpoint(model, tmp_path / "checkpoint.json")
        loaded = load_checkpoint(tmp_path / "checkpoint.json")
        assert loaded.theta.dtype == np.float64
        assert loaded.theta.tobytes() == model.theta.tobytes()

    def test_short_schedule_floor_on_several_seeds(self):
        # the roster_train benchmark check: held-out 20 kW/m R2 >= 0.9 after
        # 8 epochs on the nominal roster (measured 0.9677-0.9757, seeds 0-5)
        cfg = TwinConfig()
        ds = generate_dataset(roster_specs(cfg), cfg, seed=0)
        mesh = mesh_from_config(cfg)
        test = ds.split("test")[0]
        for seed in (0, 1, 2):
            model, _ = train(ds, replace(cfg.training, epochs=8, seed=seed))
            rec = reconstruct_field(model, test.sensors, mesh)
            r2 = compute_metrics(rec.flatten(), test.T, test.region).r_squared
            assert r2 >= 0.9, (seed, r2)
