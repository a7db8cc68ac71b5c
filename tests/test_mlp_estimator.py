"""Tests for the from-scratch MLP: forward/backward, Adam, training, metrics."""

import hashlib
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from faslab import mlp_estimator
from faslab.dataset_pipeline import Dataset, Normalizer, fit_normalizer
from faslab.errors import ChecksumError, FileFormatError, TrainingDivergedError
from faslab.mlp_estimator import (
    AdamState,
    ForwardCache,
    Hyperparams,
    MlpParams,
    Normalizers,
    adam_step,
    backward,
    channel_energy,
    count_forward_multiplies,
    count_training_cost,
    ensemble_nmse,
    forward,
    init_params,
    instrumented_forward,
    load_model,
    mse_loss,
    nmse_db,
    predict,
    report_to_csv,
    save_model,
    train,
)

_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")


def random_net(d_in, hidden, d_out, seed):
    return init_params(d_in, hidden, d_out, np.random.default_rng(seed))


def numerical_gradients(params, x, target, step=1e-4):
    """Central finite differences of the MSE loss through the network."""
    grads = {}
    for name in _FIELDS:
        theta = getattr(params, name)
        g = np.zeros_like(theta)
        flat = theta.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up, _ = mse_loss(forward(params, x)[0], target)
            flat[i] = orig - step
            down, _ = mse_loss(forward(params, x)[0], target)
            flat[i] = orig
            g.ravel()[i] = (up - down) / (2 * step)
        grads[name] = g
    return grads


def assert_gradients_close(analytic, numeric, rel=1e-4, floor=1e-6):
    for name in _FIELDS:
        a = getattr(analytic, name)
        n = numeric[name]
        tol = rel * np.maximum(np.abs(a), np.abs(n)) + floor
        worst = np.max(np.abs(a - n) - tol)
        assert worst <= 0, f"{name}: finite-difference mismatch by {worst:.3e}"


def reference_adam_step(params, grads, state):
    """The per-field Adam update as written before the flat buffer, kept as
    the oracle for the blocked in-place one."""
    for name in _FIELDS:
        if not np.all(np.isfinite(getattr(grads, name))):
            raise ValueError(f"non-finite gradient in {name}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name in _FIELDS:
        g = getattr(grads, name)
        m = getattr(state.first_moment, name)
        v = getattr(state.second_moment, name)
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g**2
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps_hat)
        getattr(params, name)[...] -= state.learning_rate * update
    return params, state


class TestInitParams:
    def test_biases_zero(self):
        p = random_net(5, 7, 3, 0)
        assert np.all(p.b1 == 0) and np.all(p.b2 == 0) and np.all(p.b3 == 0)

    def test_fan_in_bounds(self):
        p = random_net(8, 16, 4, 1)
        assert np.all(np.abs(p.w1) <= np.sqrt(6 / 8))
        assert np.all(np.abs(p.w2) <= np.sqrt(6 / 16))
        assert np.all(np.abs(p.w3) <= np.sqrt(6 / 16))

    def test_deterministic(self):
        a, b = random_net(4, 5, 2, 42), random_net(4, 5, 2, 42)
        for name in _FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="positive"):
            init_params(0, 3, 2, np.random.default_rng(0))


class TestMlpParams:
    def test_fields_are_views_of_flat_in_fasm_order(self):
        p = random_net(3, 4, 2, 40)
        assert p.flat.shape == (4 * 3 + 4 + 4 * 4 + 4 + 2 * 4 + 2,)
        assert np.array_equal(
            p.flat, np.concatenate([getattr(p, f).ravel() for f in _FIELDS])
        )
        p.w2[1, 2] = 7.5
        assert p.flat[4 * 3 + 4 + 1 * 4 + 2] == 7.5

    def test_fields_cannot_be_rebound(self):
        p = random_net(3, 4, 2, 41)
        with pytest.raises(AttributeError):
            p.w1 = np.zeros((4, 3))

    def test_copy_is_deep(self):
        p = random_net(3, 4, 2, 42)
        before = p.flat.copy()
        q = p.copy()
        assert not np.shares_memory(p.flat, q.flat)
        for name in _FIELDS:
            getattr(q, name)[...] = -1.0
        assert np.array_equal(p.flat, before)

    def test_constructor_copies_and_checks_shapes(self):
        w1 = np.ones((4, 3))
        p = MlpParams(w1, np.zeros(4), np.ones((4, 4)), np.zeros(4), np.ones((2, 4)), np.zeros(2))
        w1[0, 0] = 5.0
        assert p.w1[0, 0] == 1.0
        with pytest.raises(ValueError, match="b2 has shape"):
            MlpParams(w1, np.zeros(4), np.ones((4, 4)), np.zeros(3), np.ones((2, 4)), np.zeros(2))

    def test_from_flat_wraps_without_copy(self):
        flat = np.arange(4 * 3 + 4 + 16 + 4 + 8 + 2, dtype=float)
        p = MlpParams.from_flat(flat, 3, 4, 2)
        assert p.flat is flat and p.dims() == (3, 4, 2)
        assert np.shares_memory(p.b3, flat) and p.b3[-1] == flat[-1]
        with pytest.raises(ValueError, match="does not hold"):
            MlpParams.from_flat(flat[:-1], 3, 4, 2)


class TestForward:
    def test_zero_params_zero_output(self):
        p = MlpParams(
            np.zeros((3, 2)), np.zeros(3), np.zeros((3, 3)), np.zeros(3),
            np.zeros((2, 3)), np.zeros(2),
        )
        y, _ = forward(p, np.array([5.0, -1.0]))
        assert np.array_equal(y, np.zeros(2))

    def test_scalar_relu_chain(self):
        p = MlpParams(
            np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), np.zeros(1),
            np.array([[1.0]]), np.zeros(1),
        )
        assert forward(p, np.array([-2.0]))[0][0] == 0.0
        assert forward(p, np.array([3.0]))[0][0] == 3.0

    def test_batch_matches_per_sample(self):
        p = random_net(6, 9, 4, 3)
        x = np.random.default_rng(4).standard_normal((20, 6))
        batch, _ = forward(p, x)
        rows = np.stack([forward(p, row)[0] for row in x])
        assert np.max(np.abs(batch - rows)) < 1e-6

    def test_shape_mismatch_rejected(self):
        p = random_net(6, 9, 4, 3)
        with pytest.raises(ValueError, match="width"):
            forward(p, np.zeros(5))

    def test_affine_within_fixed_relu_region(self):
        # Positive weights, biases, and inputs keep every ReLU active, so the
        # map is affine there: convex combinations commute with the network.
        rng = np.random.default_rng(5)
        p = MlpParams(
            rng.uniform(0.1, 1, (7, 4)), rng.uniform(0.1, 1, 7),
            rng.uniform(0.1, 1, (7, 7)), rng.uniform(0.1, 1, 7),
            rng.uniform(0.1, 1, (3, 7)), rng.uniform(0.1, 1, 3),
        )
        x1 = rng.uniform(0.1, 1, 4)
        x2 = rng.uniform(0.1, 1, 4)
        for alpha in (0.25, 0.5, 0.9):
            mixed, _ = forward(p, alpha * x1 + (1 - alpha) * x2)
            combo = alpha * forward(p, x1)[0] + (1 - alpha) * forward(p, x2)[0]
            assert np.allclose(mixed, combo, atol=1e-9)


class TestMseLoss:
    def test_zero_for_equal(self):
        loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(2))

    def test_unit_example(self):
        loss, _ = mse_loss(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        assert loss == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        pred = rng.standard_normal(10)
        target = rng.standard_normal(10)
        _, grad = mse_loss(pred, target)
        step = 1e-6
        for i in range(10):
            bumped = pred.copy()
            bumped[i] += step
            up, _ = mse_loss(bumped, target)
            bumped[i] -= 2 * step
            down, _ = mse_loss(bumped, target)
            numeric = (up - down) / (2 * step)
            assert abs(grad[i] - numeric) < 1e-6 * max(1.0, abs(numeric))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            mse_loss(np.zeros(3), np.zeros(4))

    def test_out_buffer_is_bit_equal_to_the_whole_array_form(self):
        rng = np.random.default_rng(7)
        pred = rng.standard_normal((9, 5))
        target = rng.standard_normal((9, 5))
        diff = pred - target
        out = np.full((9, 5), np.nan)
        loss, grad = mse_loss(pred, target, out=out)
        assert grad is out
        assert loss == float(np.mean(diff**2))
        assert np.array_equal(grad, 2.0 * diff / diff.size)


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        p = random_net(5, 7, 3, 7)
        x = np.random.default_rng(8).standard_normal(5)
        y, cache = forward(p, x)
        grads = backward(p, cache, np.zeros_like(y))
        for name in _FIELDS:
            assert np.all(getattr(grads, name) == 0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for trial in range(3):
            p = random_net(5, 7, 3, 100 + trial)
            # generic biases keep pre-activations off the ReLU kinks
            for name in ("b1", "b2", "b3"):
                getattr(p, name)[...] = 0.3 * rng.standard_normal(
                    getattr(p, name).shape
                )
            x = rng.standard_normal(5)
            target = rng.standard_normal(3)
            y, cache = forward(p, x)
            _, dloss = mse_loss(y, target)
            analytic = backward(p, cache, dloss)
            numeric = numerical_gradients(p, x, target)
            assert_gradients_close(analytic, numeric)

    def test_output_bias_gradient_sums_batch(self):
        p = random_net(4, 6, 2, 11)
        x = np.random.default_rng(12).standard_normal((5, 4))
        y, cache = forward(p, x)
        d_out = np.random.default_rng(13).standard_normal(y.shape)
        grads = backward(p, cache, d_out)
        assert np.allclose(grads.b3, d_out.sum(axis=0), atol=1e-12)

    def test_stale_cache_rejected(self):
        p = random_net(4, 6, 2, 14)
        other = random_net(4, 6, 2, 15)
        x = np.zeros(4)
        _, cache = forward(p, x)
        with pytest.raises(ValueError, match="different parameter"):
            backward(other, cache, np.zeros(2))

    def test_upstream_shape_rejected(self):
        p = random_net(4, 6, 2, 16)
        _, cache = forward(p, np.zeros(4))
        with pytest.raises(ValueError, match="upstream"):
            backward(p, cache, np.zeros(3))


def reference_forward_backward(params, x, d_out):
    """The forward and backward passes as written before buffer reuse: every
    intermediate a new array.  Returns (y, {field: gradient})."""
    z1 = x @ params.w1.T + params.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.w2.T + params.b2
    a2 = np.maximum(z2, 0.0)
    y = a2 @ params.w3.T + params.b3
    da2 = d_out @ params.w3
    dz2 = da2 * (z2 > 0)
    da1 = dz2 @ params.w2
    dz1 = da1 * (z1 > 0)
    grads = {
        "w3": d_out.T @ a2, "b3": d_out.sum(axis=0),
        "w2": dz2.T @ a1, "b2": dz2.sum(axis=0),
        "w1": dz1.T @ x, "b1": dz1.sum(axis=0),
    }
    return y, grads


class TestBufferReuse:
    def test_reused_buffers_are_bit_equal_to_fresh_arrays(self):
        # A full batch, then a short last batch through the same cache and
        # gradient buffer, as in a training epoch.
        p = random_net(12, 40, 10, 50)
        p.b1[...] = 0.1 * np.arange(40) - 2.0
        rng = np.random.default_rng(51)
        cache, grads = None, p.zeros_like()
        for rows in (16, 16, 5):
            x = rng.standard_normal((rows, 12))
            d_out = rng.standard_normal((rows, 10))
            y, cache = forward(p, x, cache)
            backward(p, cache, d_out, out=grads)
            ref_y, ref_grads = reference_forward_backward(p, x, d_out)
            fresh_y, fresh_cache = forward(p, x)
            fresh = backward(p, fresh_cache, d_out)
            assert y.shape == (rows, 10)
            assert np.array_equal(y, ref_y) and np.array_equal(fresh_y, ref_y)
            for name in _FIELDS:
                assert np.array_equal(getattr(grads, name), ref_grads[name]), name
                assert np.array_equal(getattr(fresh, name), ref_grads[name]), name

    def test_relu_mask_multiplies_so_nonfinite_upstream_stays_visible(self):
        # Hidden unit 0 of layer 2 is dead on every row; an infinite upstream
        # gradient must still turn its gradients into NaN (inf * 0), as in
        # the reference, rather than be zeroed through the mask.
        p = random_net(3, 5, 2, 52)
        p.b2[0] = -100.0
        x = np.random.default_rng(53).standard_normal((4, 3))
        d_out = np.ones((4, 2))
        d_out[1, 0] = np.inf
        with np.errstate(invalid="ignore"):
            _, ref = reference_forward_backward(p, x, d_out)
            _, cache = forward(p, x, ForwardCache())
            grads = backward(p, cache, d_out, out=p.zeros_like())
        assert np.isnan(ref["b2"][0])
        for name in _FIELDS:
            assert np.array_equal(getattr(grads, name), ref[name], equal_nan=True), name

    def test_single_vector_through_a_batch_cache(self):
        p = random_net(6, 9, 4, 54)
        x = np.random.default_rng(55).standard_normal((8, 6))
        _, cache = forward(p, x)
        y, cache = forward(p, x[3], cache)
        assert y.shape == (4,)
        assert np.array_equal(y, forward(p, x[3])[0])
        grads = backward(p, cache, np.ones(4))
        assert np.array_equal(grads.flat, backward(p, forward(p, x[3])[1], np.ones(4)).flat)

    def test_gradient_buffer_dims_checked(self):
        p = random_net(4, 6, 2, 56)
        _, cache = forward(p, np.zeros(4))
        with pytest.raises(ValueError, match="gradient buffer"):
            backward(p, cache, np.zeros(2), out=random_net(4, 5, 2, 57))

    def test_two_trainings_in_one_process_are_bit_equal(self):
        train_ds = toy_dataset(70, seed=58)  # 70 rows at batch 16: a short last batch
        val_ds = toy_dataset(20, seed=59)
        hyper = toy_hyper(max_epochs=4)
        p1 = train(train_ds, val_ds, hyper, np.random.default_rng(60))[0]
        p2 = train(train_ds, val_ds, hyper, np.random.default_rng(60))[0]
        assert p1.flat.tobytes() == p2.flat.tobytes()


class TestAdamStep:
    def scalar_params(self, value=0.0):
        return MlpParams(
            np.array([[value]]), np.zeros(1), np.array([[0.0]]), np.zeros(1),
            np.array([[0.0]]), np.zeros(1),
        )

    def grads_like(self, params, w1_grad):
        return type(params)(
            np.array([[w1_grad]]), np.zeros(1), np.zeros((1, 1)), np.zeros(1),
            np.zeros((1, 1)), np.zeros(1),
        )

    def test_first_step_magnitude_near_lr(self):
        lr = 1e-3
        for g in (1e-3, 0.05, 1.0, 250.0):
            p = random_net(3, 4, 2, 20)
            grads = type(p)(*(np.full_like(getattr(p, f), g) for f in _FIELDS))
            state = AdamState.for_params(p, lr)
            before = p.copy()
            adam_step(p, grads, state)
            for name in _FIELDS:
                delta = np.abs(getattr(p, name) - getattr(before, name))
                assert np.all(delta >= 0.99 * lr) and np.all(delta <= lr)

    def test_zero_gradient_never_moves(self):
        p = random_net(3, 4, 2, 21)
        before = p.copy()
        state = AdamState.for_params(p, 0.01)
        zero = type(p)(*(np.zeros_like(getattr(p, f)) for f in _FIELDS))
        for _ in range(10):
            adam_step(p, zero, state)
        for name in _FIELDS:
            assert np.array_equal(getattr(p, name), getattr(before, name))
        assert state.step_count == 10

    def test_two_steps_match_hand_oracle(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        p = self.scalar_params(0.0)
        state = AdamState.for_params(p, lr, b1, b2, eps)

        # Hand-rolled scalar Adam: g = +1 then g = -1.
        theta, m, v = 0.0, 0.0, 0.0
        for t, g in ((1, 1.0), (2, -1.0)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            theta -= lr * m_hat / (np.sqrt(v_hat) + eps)

        adam_step(p, self.grads_like(p, 1.0), state)
        adam_step(p, self.grads_like(p, -1.0), state)
        assert abs(p.w1[0, 0] - theta) < 1e-10
        assert state.step_count == 2

    def test_nonfinite_gradient_rejected(self):
        p = random_net(3, 4, 2, 22)
        before = p.copy()
        state = AdamState.for_params(p, 0.01)
        bad = type(p)(*(np.zeros_like(getattr(p, f)) for f in _FIELDS))
        bad.w2[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite gradient in w2"):
            adam_step(p, bad, state)
        assert state.step_count == 0
        assert np.array_equal(p.flat, before.flat)
        assert not state.first_moment.flat.any() and not state.second_moment.flat.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_update_through_a_lane_is_bit_equal(self, dtype):
        # Net sizes: the smallest net (6 parameters; no net holds fewer), 17,
        # one Adam block and one element either side, desk and paper.
        block = mlp_estimator._ADAM_BLOCK_BYTES // np.dtype(dtype).itemsize
        dims = [(n - 5, 1, 1) for n in (6, 17, block - 1, block, block + 1)]
        dims += [(128, 256, 128), (512, 512, 512)]
        sizes = [init_params(*d, np.random.default_rng(0)).flat.size for d in dims]
        assert sizes == [6, 17, block - 1, block, block + 1, 131_712, 787_968]
        rng = np.random.default_rng(27)
        lane = mlp_estimator._GemmLane()
        try:
            for d in dims:
                start = random_net(*d, 28)
                if dtype == np.float32:
                    start = float32_net(start)
                nets = [start.copy(), start.copy()]
                states = [AdamState.for_params(net, 3e-3, 0.85, 0.995, 1e-7) for net in nets]
                grads = start.zeros_like()
                for _ in range(3):
                    size = grads.flat.size
                    grads.flat[...] = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 6, size)
                    grads.flat[rng.integers(0, size, 3)] = 0.0
                    grads.flat[rng.integers(0, size, 3)] = -0.0
                    adam_step(nets[0], grads, states[0])
                    adam_step(nets[1], grads, states[1], lane)
                    assert states[0].step_count == states[1].step_count
                    for whole, split in (
                        (nets[0], nets[1]),
                        (states[0].first_moment, states[1].first_moment),
                        (states[0].second_moment, states[1].second_moment),
                    ):
                        assert np.array_equal(split.flat, whole.flat), d
            assert lane._thread.is_alive()
        finally:
            lane.close()

    @pytest.mark.parametrize("name", ["w1", "b3"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nonfinite_gradient_through_a_lane_changes_nothing(self, dtype, name):
        # Paper dims: the bad entry ends w1, in the half of the flat vector
        # this thread would update, or b3, in the helper's half.
        p = random_net(512, 512, 512, 29)
        if dtype == np.float32:
            p = float32_net(p)
        state = AdamState.for_params(p, 1e-3)
        grads = p.zeros_like()
        grads.flat[...] = np.random.default_rng(30).standard_normal(grads.flat.size)
        lane = mlp_estimator._GemmLane()
        try:
            adam_step(p, grads, state, lane)
            before = [net.flat.copy() for net in (p, state.first_moment, state.second_moment)]
            getattr(grads, name).flat[-1] = np.nan
            with pytest.raises(ValueError, match=f"non-finite gradient in {name}"):
                adam_step(p, grads, state, lane)
            assert state.step_count == 1
            for net, kept in zip((p, state.first_moment, state.second_moment), before):
                assert np.array_equal(net.flat, kept)
            assert lane._thread.is_alive()
        finally:
            lane.close()

    def test_blocked_update_is_bit_equal_to_per_field_reference(self):
        # 48 370 parameters: more than one block, and not a multiple of it.
        p = random_net(100, 150, 70, 24)
        rng = np.random.default_rng(25)
        ref_params = SimpleNamespace(**{f: getattr(p, f).copy() for f in _FIELDS})
        ref_state = SimpleNamespace(
            first_moment=SimpleNamespace(**{f: np.zeros_like(getattr(p, f)) for f in _FIELDS}),
            second_moment=SimpleNamespace(**{f: np.zeros_like(getattr(p, f)) for f in _FIELDS}),
            step_count=0, learning_rate=3e-3, beta1=0.85, beta2=0.995, eps_hat=1e-7,
        )
        state = AdamState.for_params(p, 3e-3, 0.85, 0.995, 1e-7)
        grads = p.zeros_like()
        for step in range(6):
            # Wide magnitudes, exact zeros and negative zeros.
            grads.flat[...] = rng.standard_normal(grads.flat.size) * 10.0 ** rng.integers(
                -6, 6, grads.flat.size
            )
            grads.flat[rng.integers(0, grads.flat.size, 500)] = 0.0
            grads.flat[rng.integers(0, grads.flat.size, 500)] = -0.0
            ref_grads = SimpleNamespace(**{f: getattr(grads, f).copy() for f in _FIELDS})
            adam_step(p, grads, state)
            reference_adam_step(ref_params, ref_grads, ref_state)
            assert state.step_count == ref_state.step_count == step + 1
            for name in _FIELDS:
                assert np.array_equal(getattr(p, name), getattr(ref_params, name)), name
                for moment in ("first_moment", "second_moment"):
                    assert np.array_equal(
                        getattr(getattr(state, moment), name),
                        getattr(getattr(ref_state, moment), name),
                    ), (moment, name)


class TestMetrics:
    def test_reference_values(self):
        h = np.array([1 + 1j, 2.0, -1j])
        assert ensemble_nmse(h, h) == 0.0
        assert ensemble_nmse(np.zeros(3), h) == 1.0
        assert ensemble_nmse(2 * h, h) == pytest.approx(1.0)
        assert nmse_db(1.0) == 0.0

    def test_nmse_db_of_zero_is_minus_inf_and_bad_values_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nmse_db(0.0) == -np.inf
        for bad in (-1e-3, np.nan):
            with pytest.raises(ValueError, match=str(bad)):
                nmse_db(bad)

    def test_scale_diagnostic(self):
        rng = np.random.default_rng(30)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        for c in (0.5, 1.5, 2 + 1j):
            assert ensemble_nmse(c * h, h) == pytest.approx(abs(c - 1) ** 2)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            ensemble_nmse(np.ones(3), np.zeros(3))

    def test_ensemble_weights_by_energy(self):
        h = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
        h_hat = h + np.array([[1.0, 0.0], [0.0, 0.0]])
        # total error 1 over total energy 5
        assert ensemble_nmse(h_hat, h) == pytest.approx(0.2)


    def test_energy_and_scratch_leave_the_bits_of_the_plain_formula(self):
        rng = np.random.default_rng(31)
        h = rng.standard_normal((40, 24)) + 1j * rng.standard_normal((40, 24))
        h_hat = h + 0.3 * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
        want = float(np.sum(np.abs(h_hat - h) ** 2)) / float(np.sum(np.abs(h) ** 2))
        assert ensemble_nmse(h_hat, h) == want
        energy = channel_energy(h)
        err, sq = np.empty_like(h), np.empty(h.shape)
        assert ensemble_nmse(h_hat, h, energy, (err, sq)) == want
        # The error may be formed in the estimate's own buffer.
        assert ensemble_nmse(h_hat.copy(), h, energy, (h_hat, sq)) == want

    def test_channel_energy_of_zero_rejected(self):
        with pytest.raises(ValueError, match="zero energy"):
            channel_energy(np.zeros((2, 3), dtype=complex))


class TestComplexityCounters:
    def test_reference_dims(self):
        assert count_forward_multiplies(512, 512, 512) == 786432

    def test_zero_hidden(self):
        assert count_forward_multiplies(5, 0, 3) == 0

    def test_training_cost_formula(self):
        assert count_training_cost(2, 10, 3, 4, 5) == 3 * 2 * 10 * 4 * (3 + 4 + 5)

    def test_instrumented_count_matches_formula(self):
        rng = np.random.default_rng(31)
        p = random_net(5, 7, 3, 32)
        x = rng.standard_normal(5)
        y, count = instrumented_forward(p, x)
        assert count == count_forward_multiplies(5, 7, 3)
        y_fast, _ = forward(p, x)
        assert np.allclose(y, y_fast, atol=1e-12)


def toy_dataset(n, width_in=8, width_out=6, seed=0, linear=True):
    """Learnable toy regression: targets are a fixed linear map of features."""
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, width_in))
    if linear:
        mixer = rng.standard_normal((width_in, width_out)) / np.sqrt(width_in)
        tgts = feats @ mixer
    else:
        tgts = rng.standard_normal((n, width_out))
    return Dataset(
        feats.astype(np.float32), tgts.astype(np.float32), bytes(32), 3, 1, 4
    )


def toy_hyper(**overrides):
    base = dict(
        hidden_width=16, learning_rate=3e-3, batch_size=16, max_epochs=30, patience=5
    )
    base.update(overrides)
    return Hyperparams(**base)


class TestTrain:
    def test_frozen_validation_stops_after_patience_plus_one_extra(self):
        # lr = 0 freezes the network, so epoch 1 sets the only best; training
        # then runs exactly patience+1 further epochs before stopping.
        train_ds = toy_dataset(64, seed=1)
        val_ds = toy_dataset(16, seed=2)
        for patience in (0, 3):
            hyper = toy_hyper(learning_rate=0.0, max_epochs=50, patience=patience)
            _, _, report = train(train_ds, val_ds, hyper, np.random.default_rng(3))
            assert report.stopped_early
            assert report.best_epoch == 1
            assert report.epochs_run == 1 + patience + 1

    def test_learning_improves_validation(self):
        train_ds = toy_dataset(400, seed=4)
        val_ds = toy_dataset(100, seed=5)
        _, _, report = train(train_ds, val_ds, toy_hyper(), np.random.default_rng(6))
        best = min(report.val_nmse)
        assert report.val_nmse[report.best_epoch - 1] == best
        assert best < report.val_nmse[0]

    def test_returned_params_achieve_best_validation(self):
        train_ds = toy_dataset(200, seed=7)
        val_ds = toy_dataset(50, seed=8)
        params, normalizers, report = train(
            train_ds, val_ds, toy_hyper(max_epochs=12), np.random.default_rng(9)
        )
        from faslab.dataset_pipeline import apply_normalizer, invert_normalizer

        x = apply_normalizer(normalizers.features, val_ds.features.astype(float))
        pred, _ = forward(params, x)
        recovered = invert_normalizer(normalizers.targets, pred)
        k = recovered.shape[1] // 2
        h_hat = recovered[:, :k] + 1j * recovered[:, k:]
        tgt = val_ds.targets.astype(float)
        h = tgt[:, :k] + 1j * tgt[:, k:]
        assert ensemble_nmse(h_hat, h) == pytest.approx(min(report.val_nmse), rel=1e-9)

    def test_deterministic_report(self):
        train_ds = toy_dataset(120, seed=10)
        val_ds = toy_dataset(30, seed=11)
        hyper = toy_hyper(max_epochs=8)
        r1 = train(train_ds, val_ds, hyper, np.random.default_rng(12),
                   np.random.default_rng(13))[2]
        r2 = train(train_ds, val_ds, hyper, np.random.default_rng(12),
                   np.random.default_rng(13))[2]
        assert r1 == r2

    def test_divergence_raises_with_epoch(self):
        train_ds = toy_dataset(64, seed=14)
        val_ds = toy_dataset(16, seed=15)
        # Adam steps are bounded by lr, so overflow needs lr^3 past float64.
        hyper = toy_hyper(learning_rate=1e150, max_epochs=50, patience=50)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                train(train_ds, val_ds, hyper, np.random.default_rng(16))
        assert err.value.epoch >= 1

    def test_epochs_hold_no_float64_copy_of_the_training_rows(self, monkeypatch):
        # 20 000 rows of width 32 + 32: a float64 copy takes 10.24 MB, while
        # the net (hidden width 8), its Adam state and the batch buffers take
        # well under 0.1 MB.  The heap train() holds at its first forward
        # call must stay below that copy.
        train_ds = toy_dataset(20_000, width_in=32, width_out=32, seed=61)
        val_ds = toy_dataset(50, width_in=32, width_out=32, seed=62)
        hyper = toy_hyper(hidden_width=8, batch_size=64, max_epochs=1)
        float64_rows = 8 * train_ds.n_samples * (32 + 32)
        held = []

        def sampled_forward(*args, **kwargs):
            if not held:
                held.append(tracemalloc.get_traced_memory()[0])
            return forward(*args, **kwargs)

        monkeypatch.setattr(mlp_estimator, "forward", sampled_forward)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train(train_ds, val_ds, hyper, np.random.default_rng(63))
        finally:
            tracemalloc.stop()
        assert held and held[0] - base < float64_rows, (
            f"train() held {held[0] - base} bytes at its first step; a float64 "
            f"copy of the training rows is {float64_rows}"
        )

    def test_zero_energy_validation_set_fails_before_the_first_step(self, monkeypatch):
        train_ds = toy_dataset(64, seed=17)
        val_ds = toy_dataset(16, seed=18)
        val_ds = replace(val_ds, targets=np.zeros_like(val_ds.targets))
        steps = []
        monkeypatch.setattr(mlp_estimator, "adam_step", lambda *args: steps.append(args))
        with pytest.raises(ValueError, match="zero energy"):
            train(train_ds, val_ds, toy_hyper(), np.random.default_rng(19))
        assert steps == []

    def test_peak_is_the_rows_and_six_parameter_vectors(self):
        # Float32, hidden width 512 over 64 + 64 columns: one parameter
        # vector takes 1.3 MB, the float32 rows 0.16 MB.  The epochs hold
        # five vectors (parameters, gradients, both Adam moments, the best
        # epoch's copy); a sixth covers Adam's 1 MiB of scratch, the batch
        # buffers and activations, and four times the rows cover the
        # float64 columns fit_normalizer widens and the validation buffers.
        # Widening the best vector to float64 (two vectors' bytes) while the
        # epochs' state is still alive would take seven vectors.
        train_ds = toy_dataset(256, width_in=64, width_out=64, seed=64)
        val_ds = toy_dataset(64, width_in=64, width_out=64, seed=65)
        hyper = toy_hyper(hidden_width=512, batch_size=32, max_epochs=2, compute_dtype="float32")
        n_params = init_params(64, 512, 64, np.random.default_rng(0)).flat.size
        rows = sum(ds.features.nbytes + ds.targets.nbytes for ds in (train_ds, val_ds))
        bound = 4 * rows + 6 * 4 * n_params
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train(train_ds, val_ds, hyper, np.random.default_rng(66))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound, f"train() peaked at {peak} bytes, the bound is {bound}"

    @pytest.mark.parametrize(
        "field_name, value",
        [
            ("hidden_width", 0),
            ("batch_size", 0),
            ("batch_size", -3),
            ("max_epochs", 0),
            ("patience", -1),
            ("learning_rate", -1e-3),
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("compute_dtype", "float16"),
        ],
    )
    def test_hyperparams_out_of_range_rejected_when_built(self, field_name, value):
        # max_epochs=0 used to return the untrained initialization and
        # batch_size=0 to fail inside range(); each now names its field.
        with pytest.raises(ValueError, match=field_name):
            toy_hyper(**{field_name: value})

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="widths"):
            train(
                toy_dataset(40, width_in=8),
                toy_dataset(10, width_in=10),
                toy_hyper(),
                np.random.default_rng(0),
            )


def float32_net(params):
    """The net rounded to float32, as float32 training starts from it."""
    return MlpParams.from_flat(params.flat.astype(np.float32), *params.dims())


class TestFloat32:
    def test_layers_keep_float32(self):
        rng = np.random.default_rng(70)
        p = float32_net(random_net(6, 9, 4, 71))
        x = rng.standard_normal((5, 6)).astype(np.float32)
        target = rng.standard_normal((5, 4)).astype(np.float32)
        y, cache = forward(p, x)
        assert y.dtype == np.float32
        loss, dloss = mse_loss(y, target)
        assert type(loss) is float and dloss.dtype == np.float32
        assert loss == pytest.approx(float(np.mean((y.astype(float) - target) ** 2)), rel=1e-6)
        grads = backward(p, cache, dloss)
        assert grads.flat.dtype == np.float32
        state = AdamState.for_params(p, 1e-3)
        adam_step(p, grads, state)
        assert p.flat.dtype == state.first_moment.flat.dtype == np.float32
        assert state.second_moment.flat.dtype == state._scratch.dtype == np.float32

    def test_backward_matches_float64_on_the_criterion_3_nets(self):
        # The 50 nets, inputs and targets of acceptance criterion 3.
        for trial in range(50):
            rng = np.random.default_rng((3000, trial))
            p = init_params(5, 7, 3, rng)
            for name in ("b1", "b2", "b3"):
                getattr(p, name)[...] = 0.3 * rng.standard_normal(getattr(p, name).shape)
            x = rng.standard_normal(5)
            target = rng.standard_normal(3)
            y, cache = forward(p, x)
            wide = backward(p, cache, mse_loss(y, target)[1])
            p32 = float32_net(p)
            y32, cache32 = forward(p32, x.astype(np.float32))
            narrow = backward(p32, cache32, mse_loss(y32, target.astype(np.float32))[1])
            for name in _FIELDS:
                a, b = getattr(wide, name), getattr(narrow, name)
                assert np.max(np.abs(b - a)) <= 1e-4 * np.max(np.abs(a)), (trial, name)

    def test_nonfinite_gradient_named(self):
        p = float32_net(random_net(3, 4, 2, 72))
        state = AdamState.for_params(p, 0.01)
        bad = p.zeros_like()
        bad.b3[1] = np.inf
        with pytest.raises(ValueError, match="non-finite gradient in b3"):
            adam_step(p, bad, state)
        assert state.step_count == 0

    def test_mixed_dtypes_rejected(self):
        p = random_net(3, 4, 2, 73)
        state = AdamState.for_params(p, 0.01)
        with pytest.raises(ValueError, match="dtype"):
            adam_step(p, float32_net(p.zeros_like()), state)
        _, cache = forward(p, np.zeros(3))
        with pytest.raises(ValueError, match="gradient buffer"):
            backward(p, cache, np.zeros(2), out=float32_net(p.zeros_like()))

    def test_unknown_dtype_rejected(self):
        for dtype in ("float16", "half"):
            with pytest.raises(ValueError, match="compute_dtype"):
                train(toy_dataset(40), toy_dataset(10), toy_hyper(compute_dtype=dtype),
                      np.random.default_rng(0))

    def test_starts_from_the_float64_draw_rounded(self):
        # lr = 0 freezes the net, so the returned parameters are the start.
        hyper = toy_hyper(learning_rate=0.0, max_epochs=2, compute_dtype="float32")
        params, _, _ = train(toy_dataset(64, seed=74), toy_dataset(16, seed=75), hyper,
                             np.random.default_rng(76))
        start = init_params(8, 16, 6, np.random.default_rng(76))
        assert params.flat.dtype == np.float64
        assert np.array_equal(params.flat, start.flat.astype(np.float32).astype(np.float64))

    def test_reaches_the_float64_validation_nmse(self):
        train_ds, val_ds = toy_dataset(400, seed=4), toy_dataset(100, seed=5)
        best = {}
        for dtype in ("float64", "float32"):
            _, _, report = train(
                train_ds, val_ds, toy_hyper(compute_dtype=dtype), np.random.default_rng(6)
            )
            best[dtype] = min(report.val_nmse)
        assert best["float32"] == pytest.approx(best["float64"], rel=1e-3)

    def test_a_step_allocates_no_batch_sized_float64_array(self, monkeypatch):
        # Batches of 2048 rows of width 64 + 64: a float64 copy of one batch's
        # features or targets takes 1 MB, while the net (hidden width 8) and
        # its Adam state take about 10 KB.  The heap peak from the entry of
        # the second forward call to that of the third spans one whole step:
        # forward, loss, backward, Adam, and gathering and normalizing the
        # next batch.
        batch = 2048
        train_ds = toy_dataset(4 * batch, width_in=64, width_out=64, seed=77)
        val_ds = toy_dataset(50, width_in=64, width_out=64, seed=78)
        hyper = toy_hyper(hidden_width=8, batch_size=batch, max_epochs=1,
                          compute_dtype="float32")
        float64_batch = 8 * batch * 64
        marks = []

        def sampled_forward(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            marks.append((current, peak))
            if len(marks) == 2:
                tracemalloc.reset_peak()
            return forward(*args, **kwargs)

        monkeypatch.setattr(mlp_estimator, "forward", sampled_forward)
        tracemalloc.start()
        try:
            train(train_ds, val_ds, hyper, np.random.default_rng(79))
        finally:
            tracemalloc.stop()
        step_peak = marks[2][1] - marks[1][0]
        assert step_peak < float64_batch // 4, (
            f"one float32 step peaked {step_peak} bytes above its start; a float64 "
            f"batch is {float64_batch}"
        )


def paper_dataset(n, seed):
    """Rows of the paper profile's widths: 2 * 64 slots * 4 antennas
    features, 2 * 256 port targets."""
    return toy_dataset(n, width_in=512, width_out=512, seed=seed)


def gemm_threads():
    return [t for t in threading.enumerate() if t.name == "faslab-gemm"]


def whole_step(start, x, target, lane):
    """One training step (forward, loss, backward, Adam) on a copy of the
    net ``start`` through ``lane``: the output, the gradients, and the
    parameters and both moments after the update."""
    params = start.copy()
    state = AdamState.for_params(params, 1e-3)
    cache = ForwardCache()
    cache.lane = lane
    y, cache = forward(params, x, cache)
    _, dloss = mse_loss(y, target)
    grads = backward(params, cache, dloss)
    adam_step(params, grads, state, lane)
    return y, grads.flat, params.flat, state.first_moment.flat, state.second_moment.flat


def counted_lane(jobs):
    """A started GEMM lane that appends each job it hands its helper to ``jobs``."""
    lane = mlp_estimator._GemmLane()
    put = lane._jobs.put
    lane._jobs = SimpleNamespace(put=lambda job: (job is None or jobs.append(job), put(job)))
    return lane


def desk_dataset(n, seed):
    """Rows of the desk profile's widths: 2 * 16 slots * 4 antennas
    features, 2 * 64 port targets."""
    return toy_dataset(n, width_in=128, width_out=128, seed=seed)


def assert_lane_on_and_off_write_the_same_bytes(monkeypatch, tmp_path, train_ds, val_ds, hyper):
    """``train`` with the lane forced off, then on, writes the same FASM
    bytes and convergence CSV, and a ``faslab-gemm`` thread is alive at each
    forward pass exactly when the lane is on."""
    seen = []

    def watched_forward(*args, **kwargs):
        seen.append(len(gemm_threads()))
        return forward(*args, **kwargs)

    monkeypatch.setattr(mlp_estimator, "forward", watched_forward)
    written = {}
    for on in (False, True):
        monkeypatch.setattr(mlp_estimator, "_gemm_lane_on", lambda *dims, on=on: on)
        del seen[:]
        params, normalizers, report = train(
            train_ds, val_ds, hyper, np.random.default_rng(84), np.random.default_rng(85)
        )
        assert set(seen) == {int(on)}
        save_model(tmp_path / "m.fasm", params, normalizers)
        written[on] = ((tmp_path / "m.fasm").read_bytes(), report_to_csv(report))
    assert written[True] == written[False]


class TestGemmLane:
    """The helper thread train() splits large products over: same bytes, no
    thread left behind, and only where a CPU would otherwise sit idle."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_split_products_are_bit_equal(self, monkeypatch, dtype):
        # Every product forward and backward compute at paper dims, the
        # transposed dy.T, dz2.T and dz1.T included, on a full 256-row batch,
        # a 51-row last batch and 205 validation rows.  With the size bound
        # lifted, each pass hands the helper three jobs: forward's rows,
        # backward's upstream rows, and the weight gradients' output rows.
        monkeypatch.setattr(mlp_estimator, "_SPLIT_MIN", 0)
        p = random_net(512, 512, 512, 80)
        if dtype == np.float32:
            p = float32_net(p)
        rng = np.random.default_rng(81)
        jobs = []
        lane = counted_lane(jobs)
        try:
            split_cache = ForwardCache()
            split_cache.lane = lane
            for rows in (256, 51, 205):
                x = rng.standard_normal((rows, 512)).astype(dtype)
                d_out = rng.standard_normal((rows, 512)).astype(dtype)
                y, cache = forward(p, x)
                grads = backward(p, cache, d_out)
                del jobs[:]
                y_split, _ = forward(p, x, split_cache)
                grads_split = backward(p, split_cache, d_out, out=p.zeros_like())
                assert len(jobs) == 3, rows
                assert np.array_equal(y_split, y), rows
                for name in _FIELDS:
                    assert np.array_equal(getattr(grads_split, name), getattr(grads, name)), (
                        rows, name
                    )
        finally:
            lane.close()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_desk_batches_split_at_row_32_bit_equal(self, dtype):
        # Desk dims at the real bound: a full 64-row batch splits forward's
        # rows, backward's upstream rows and the weight gradients' output
        # rows, each half product 2**20 or 2**21 multiply-adds, and equals
        # the unsplit pass bit for bit.  The 60-row validation pass and a
        # 28-row last batch hand the helper nothing.
        p = random_net(128, 256, 128, 104)
        if dtype == np.float32:
            p = float32_net(p)
        rng = np.random.default_rng(105)
        jobs = []
        lane = counted_lane(jobs)
        try:
            split_cache = ForwardCache()
            split_cache.lane = lane
            for rows, count in ((64, 3), (60, 0), (28, 0)):
                x = rng.standard_normal((rows, 128)).astype(dtype)
                d_out = rng.standard_normal((rows, 128)).astype(dtype)
                y, cache = forward(p, x)
                grads = backward(p, cache, d_out)
                del jobs[:]
                y_split, _ = forward(p, x, split_cache)
                grads_split = backward(p, split_cache, d_out, out=p.zeros_like())
                assert len(jobs) == count, rows
                assert np.array_equal(y_split, y), rows
                assert np.array_equal(grads_split.flat, grads.flat), rows
        finally:
            lane.close()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_train_writes_the_same_bytes_with_the_lane_on_and_off(
        self, monkeypatch, tmp_path, dtype
    ):
        # 307 rows at batch 256 leave a 51-row last batch; 205 validation rows.
        hyper = Hyperparams(
            hidden_width=512, learning_rate=1e-4, batch_size=256, max_epochs=3,
            patience=5, compute_dtype=dtype,
        )
        assert_lane_on_and_off_write_the_same_bytes(
            monkeypatch, tmp_path, paper_dataset(307, seed=82), paper_dataset(205, seed=83),
            hyper,
        )

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_desk_train_writes_the_same_bytes_with_the_lane_on_and_off(
        self, monkeypatch, tmp_path, dtype
    ):
        # 540 rows at batch 64 leave a 28-row last batch, which stays whole,
        # as do the 60 validation rows; the full batches split at row 32.
        hyper = Hyperparams(
            hidden_width=256, learning_rate=7e-4, batch_size=64, max_epochs=3,
            patience=5, compute_dtype=dtype,
        )
        assert_lane_on_and_off_write_the_same_bytes(
            monkeypatch, tmp_path, desk_dataset(540, seed=102), desk_dataset(60, seed=103),
            hyper,
        )

    def test_no_thread_outlives_train(self, monkeypatch):
        monkeypatch.setattr(mlp_estimator, "_gemm_lane_on", lambda *dims: True)
        hyper = Hyperparams(
            hidden_width=512, learning_rate=1e-4, batch_size=256, max_epochs=1, patience=0
        )
        train(paper_dataset(300, 86), paper_dataset(40, 87), hyper, np.random.default_rng(88))
        assert gemm_threads() == []
        # A NaN row makes the first loss NaN.
        nan_ds = paper_dataset(300, 89)
        nan_ds.features[7, 3] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDivergedError):
                train(nan_ds, paper_dataset(40, 90), hyper, np.random.default_rng(91))
        assert gemm_threads() == []

    def test_an_error_on_the_helper_reaches_the_caller(self, monkeypatch):
        real_matmul = np.matmul

        def matmul(a, b, out):
            if threading.current_thread().name == "faslab-gemm":
                raise FloatingPointError("raised on the helper")
            return real_matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", matmul)
        p = random_net(512, 512, 512, 80)
        cache = ForwardCache()
        lane = cache.lane = mlp_estimator._GemmLane()
        try:
            with pytest.raises(FloatingPointError, match="on the helper"):
                forward(p, np.ones((256, 512)), cache)
            assert lane._thread.is_alive()
        finally:
            lane.close()
        assert not lane._thread.is_alive()
        # Through train(): the error ends training, and the thread with it.
        monkeypatch.setattr(mlp_estimator, "_gemm_lane_on", lambda *dims: True)
        hyper = Hyperparams(
            hidden_width=512, learning_rate=1e-4, batch_size=256, max_epochs=1, patience=0
        )
        with pytest.raises(FloatingPointError, match="on the helper"):
            train(paper_dataset(300, 92), paper_dataset(40, 93), hyper,
                  np.random.default_rng(94))
        assert gemm_threads() == []

    def test_stress_with_a_short_switch_interval_stays_bit_equal(self):
        # Three callers, each with its own lane: six threads on the CPUs of
        # the machine, handing off as often as the interpreter lets them.
        # Each runs whole steps (forward, loss, backward, Adam) at paper dims
        # and on 64-row desk batches through its lane, and checks every
        # output against the lane-off step.
        rng = np.random.default_rng(95)
        cases = []
        for dtype in (np.float32, np.float64):
            for (d_in, hidden, d_out), batches in (
                ((512, 512, 512), (256, 205, 51)), ((128, 256, 128), (64,))
            ):
                start = random_net(d_in, hidden, d_out, 96)
                if dtype == np.float32:
                    start = float32_net(start)
                for rows in batches:
                    x = rng.standard_normal((rows, d_in)).astype(dtype)
                    target = rng.standard_normal((rows, d_out)).astype(dtype)
                    cases.append((start, x, target, whole_step(start, x, target, None)))
        failures = []
        deadline = time.monotonic() + 1.5

        def caller():
            lane = mlp_estimator._GemmLane()
            try:
                while time.monotonic() < deadline:
                    for start, x, target, expected in cases:
                        got = whole_step(start, x, target, lane)
                        if not all(map(np.array_equal, got, expected)):
                            failures.append(x.shape)
            finally:
                lane.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert failures == []
        assert gemm_threads() == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_full_paper_batch_hands_off_four_times_a_step(self, dtype):
        # One job each for forward, backward's upstream rows, the weight
        # gradients and Adam.  A 51-row last batch splits at row 16, whose
        # half products clear the bound, so it hands off four times too.
        p = random_net(512, 512, 512, 97)
        if dtype == np.float32:
            p = float32_net(p)
        rng = np.random.default_rng(98)
        jobs = []
        lane = counted_lane(jobs)
        try:
            for rows, count in ((256, 4), (51, 4)):
                x = rng.standard_normal((rows, 512)).astype(dtype)
                del jobs[:]
                whole_step(p, x, x, lane)
                assert len(jobs) == count, rows
        finally:
            lane.close()

    def test_train_hands_off_four_times_a_step(self, monkeypatch):
        calls = []

        class CountedLane(mlp_estimator._GemmLane):
            def both(self, here, there):
                calls.append(threading.current_thread().name)
                return super().both(here, there)

        monkeypatch.setattr(mlp_estimator, "_GemmLane", CountedLane)
        monkeypatch.setattr(mlp_estimator, "_gemm_lane_on", lambda *dims: True)
        hyper = Hyperparams(
            hidden_width=512, learning_rate=1e-4, batch_size=256, max_epochs=1, patience=0,
            compute_dtype="float32",
        )
        # Two full batches, four hand-offs each, and the 40-row validation
        # pass, which splits at row 16: one more.
        train(paper_dataset(512, 99), paper_dataset(40, 100), hyper, np.random.default_rng(101))
        assert calls == ["MainThread"] * 9
        assert gemm_threads() == []

    def test_lane_only_where_a_cpu_would_sit_idle(self, monkeypatch):
        paper, desk, golden = (256, 512, 512, 512), (64, 128, 256, 128), (32, 64, 16, 64)
        monkeypatch.setattr(mlp_estimator.os, "sched_getaffinity", lambda pid: {0, 1})
        for name in mlp_estimator._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        assert not mlp_estimator._gemm_lane_on(*paper)  # BLAS may use every CPU
        for name in mlp_estimator._BLAS_THREAD_VARS:
            monkeypatch.setenv(name, "2")
            assert not mlp_estimator._gemm_lane_on(*paper), name
            monkeypatch.setenv(name, "1")
            assert mlp_estimator._gemm_lane_on(*paper), name
            monkeypatch.delenv(name)
        # The first variable that is set decides.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert not mlp_estimator._gemm_lane_on(*paper)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert mlp_estimator._gemm_lane_on(*paper)
        # Desk dims: the largest product's halves (32 x 256 x 256) clear the
        # bound.  The golden nets' (16 x 16 x 64) do not.
        assert mlp_estimator._gemm_lane_on(*desk)
        assert not mlp_estimator._gemm_lane_on(*golden)
        off_main = []
        t = threading.Thread(target=lambda: off_main.append(mlp_estimator._gemm_lane_on(*paper)))
        t.start()
        t.join(timeout=10)
        assert off_main == [False]
        monkeypatch.setattr(mlp_estimator.os, "sched_getaffinity", lambda pid: {0})
        assert not mlp_estimator._gemm_lane_on(*paper)

    def started_lanes(self, monkeypatch):
        """The threads of the lanes built from here on, on a two-CPU mask
        with one BLAS thread."""
        monkeypatch.setattr(mlp_estimator.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        started = []
        real_init = mlp_estimator._GemmLane.__init__

        def init(lane):
            real_init(lane)
            started.append(lane._thread)

        monkeypatch.setattr(mlp_estimator._GemmLane, "__init__", init)
        return started

    def test_desk_training_starts_one_thread(self, monkeypatch):
        started = self.started_lanes(monkeypatch)
        hyper = Hyperparams(
            hidden_width=256, learning_rate=7e-4, batch_size=64, max_epochs=1, patience=0
        )
        train(desk_dataset(200, seed=96), desk_dataset(400, seed=97), hyper,
              np.random.default_rng(98))
        assert [t.name for t in started] == ["faslab-gemm"]
        assert not started[0].is_alive()
        assert gemm_threads() == []

    def test_golden_size_training_starts_no_thread(self, monkeypatch):
        started = self.started_lanes(monkeypatch)
        hyper = Hyperparams(
            hidden_width=16, learning_rate=1e-3, batch_size=32, max_epochs=1, patience=0
        )
        train(toy_dataset(240, width_in=64, width_out=64, seed=99),
              toy_dataset(60, width_in=64, width_out=64, seed=100), hyper,
              np.random.default_rng(101))
        assert started == []


class TestPredict:
    def passthrough_params(self, k):
        # ReLU identity trick: x = relu(x) - relu(-x) reconstructed at the
        # output layer, so the net is exactly the identity map on R^k.
        eye = np.eye(k)
        w1 = np.vstack([eye, -eye])
        w2 = np.eye(2 * k)
        w3 = np.hstack([eye, -eye])
        return MlpParams(w1, np.zeros(2 * k), w2, np.zeros(2 * k), w3, np.zeros(k))

    def test_pipeline_wiring_uses_both_normalizers(self):
        # With an identity network, predict must compute
        # unpack(inverse_target(apply_feature(pack(v)))).
        k = 4  # packed width
        feat = Normalizer(np.arange(1.0, 5.0), np.array([1.0, 2.0, 4.0, 8.0]))
        tgt = Normalizer(np.array([10.0, -5.0, 3.0, 0.5]), np.array([2.0, 3.0, 0.5, 5.0]))
        params = self.passthrough_params(k)
        pilot = np.array([0.3 + 1.2j, -0.7 - 0.4j])
        packed = np.array([0.3, -0.7, 1.2, -0.4])
        expected_packed = (packed - feat.mean) / feat.scale() * tgt.scale() + tgt.mean
        expected = expected_packed[:2] + 1j * expected_packed[2:]
        estimate = predict(params, Normalizers(feat, tgt), pilot)
        assert np.allclose(estimate, expected, atol=1e-12)

    def test_zero_network_returns_target_mean(self):
        k = 4
        params = MlpParams(
            np.zeros((3, k)), np.zeros(3), np.zeros((3, 3)), np.zeros(3),
            np.zeros((k, 3)), np.zeros(k),
        )
        feat = Normalizer(np.zeros(k), np.ones(k))
        tgt = Normalizer(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(k))
        estimate = predict(params, Normalizers(feat, tgt), np.zeros(2, complex))
        assert np.allclose(estimate, np.array([1 + 3j, 2 + 4j]), atol=1e-12)

    def test_repeatable_and_finite(self):
        train_ds = toy_dataset(100, seed=20)
        val_ds = toy_dataset(25, seed=21)
        params, normalizers, _ = train(
            train_ds, val_ds, toy_hyper(max_epochs=5), np.random.default_rng(22)
        )
        pilot = np.array([0.1 - 0.2j, 0.3 + 0.4j, -0.5j, 1.0])
        a = predict(params, normalizers, pilot)
        b = predict(params, normalizers, pilot)
        assert np.array_equal(a, b)
        assert a.shape == (3,)
        assert np.all(np.isfinite(a))


class TestReportCsv:
    def test_format(self):
        train_ds = toy_dataset(60, seed=23)
        val_ds = toy_dataset(15, seed=24)
        _, _, report = train(
            train_ds, val_ds, toy_hyper(max_epochs=4, patience=10),
            np.random.default_rng(25),
        )
        text = report_to_csv(report)
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_nmse_db"
        assert len(lines) == report.epochs_run + 1
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(report.train_loss[0], rel=1e-4)


class TestModelStorage:
    def trained_artifacts(self):
        train_ds = toy_dataset(80, seed=26)
        val_ds = toy_dataset(20, seed=27)
        params, normalizers, _ = train(
            train_ds, val_ds, toy_hyper(max_epochs=3), np.random.default_rng(28)
        )
        return params, normalizers

    def test_round_trip_exact(self, tmp_path):
        params, normalizers = self.trained_artifacts()
        path = tmp_path / "model.fasm"
        save_model(path, params, normalizers)
        loaded_params, loaded_nrm = load_model(path)
        for name in _FIELDS:
            assert np.array_equal(getattr(loaded_params, name), getattr(params, name))
        assert np.array_equal(loaded_nrm.features.mean, normalizers.features.mean)
        assert np.array_equal(loaded_nrm.targets.std, normalizers.targets.std)
        assert loaded_nrm.features.epsilon == normalizers.features.epsilon

    def test_rewrite_byte_identical(self, tmp_path):
        params, normalizers = self.trained_artifacts()
        p1, p2 = tmp_path / "a.fasm", tmp_path / "b.fasm"
        save_model(p1, params, normalizers)
        save_model(p2, params, normalizers)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_fails_checksum(self, tmp_path):
        params, normalizers = self.trained_artifacts()
        path = tmp_path / "model.fasm"
        save_model(path, params, normalizers)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ChecksumError):
            load_model(path)

    def test_wrong_magic_rejected(self, tmp_path):
        params, normalizers = self.trained_artifacts()
        path = tmp_path / "model.fasm"
        save_model(path, params, normalizers)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        # keep the checksum consistent so the magic check is what fires
        body = bytes(raw[:-32])
        raw[-32:] = hashlib.sha256(body).digest()
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="magic"):
            load_model(path)

    def test_header_dims_overrunning_the_payload_name_the_file(self, tmp_path):
        params = random_net(4, 3, 2, 29)
        normalizers = Normalizers(
            Normalizer(np.zeros(4), np.ones(4)), Normalizer(np.zeros(2), np.ones(2))
        )
        path = tmp_path / "model.fasm"
        save_model(path, params, normalizers)
        raw = bytearray(path.read_bytes())
        raw[10:14] = (30).to_bytes(4, "little")  # hidden 3 -> 30
        raw[-32:] = hashlib.sha256(bytes(raw[:-32])).digest()
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="model.fasm: header dims 4-30-2"):
            load_model(path)

    def test_save_load_save_round_trip_is_byte_identical(self, tmp_path):
        params, normalizers = self.trained_artifacts()
        first, second = tmp_path / "a.fasm", tmp_path / "b.fasm"
        save_model(first, params, normalizers)
        save_model(second, *load_model(first))
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_arrays_are_writable_aligned_and_unshared(self, tmp_path):
        params, normalizers = self.trained_artifacts()
        path = tmp_path / "model.fasm"
        save_model(path, params, normalizers)
        (p1, n1), (p2, n2) = load_model(path), load_model(path)
        arrays = lambda p, n: [p.flat, n.features.mean, n.features.std, n.targets.mean, n.targets.std]
        for x in arrays(p1, n1):
            assert x.flags.writeable and x.flags.aligned
            for y in arrays(p2, n2):
                assert not np.shares_memory(x, y)
        p1.w3[0, 0] += 1.0
        assert p1.w3[0, 0] != p2.w3[0, 0]
