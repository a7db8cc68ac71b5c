"""Acceptance suite: one test per release criterion, each at its stated
tolerance and runtime budget, printing a PASS/FAIL line."""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import faslab
from faslab.baseline_estimators import build_dictionary, ls_observed_estimate, omp_estimate
from faslab.channel_model import ArrayGeometry, ScatteringConfig, draw_channel
from faslab.config import ExperimentConfig, desk_profile
from faslab.dataset_pipeline import (
    fit_normalizer,
    apply_normalizer,
    generate_dataset,
    invert_normalizer,
    load_dataset,
    pack_complex,
    save_dataset,
    unpack_complex,
)
from faslab.experiment_cli import (
    cmd_generate,
    cmd_sweep,
    cmd_train,
    curve_path,
    model_path,
)
from faslab.mlp_estimator import (
    AdamState,
    adam_step,
    backward,
    count_forward_multiplies,
    ensemble_nmse,
    forward,
    init_params,
    instrumented_forward,
    load_model,
    mse_loss,
    save_model,
)
from faslab.pilot_system import (
    noise_variance_for_snr,
    observe,
    random_schedule,
    sequential_schedule,
)

_PARAM_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")


@contextmanager
def criterion(number, description, budget_s=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    if budget_s is not None:
        assert elapsed < budget_s, (
            f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.1f}s"
        )
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s)")


def test_criterion_01_channel_power_normalization():
    with criterion(1, "channel power normalization", budget_s=10):
        geometry = ArrayGeometry(64, 10.0)
        for clusters, rays in ((2, 10), (4, 40)):
            cfg = ScatteringConfig(clusters, rays, np.radians(5.0))
            total = 0.0
            for i in range(10_000):
                h = draw_channel(cfg, geometry, np.random.default_rng((1000 + clusters, i)))
                total += np.sum(np.abs(h) ** 2)
            mean_ratio = total / 10_000 / 64
            assert 0.95 <= mean_ratio <= 1.05, (
                f"(C,R)=({clusters},{rays}): mean ||h||^2/N = {mean_ratio:.4f}"
            )


def test_criterion_02_switch_matrix_orthonormality():
    with criterion(2, "switch-matrix orthonormality", budget_s=1):
        rng = np.random.default_rng(2024)
        eye = np.eye(4)
        for _ in range(1000):
            sched = random_schedule(64, 4, 1, rng)
            s = faslab.build_switch_matrix(sched.port_indices[0], 64)
            assert np.array_equal(s.T @ s, eye)


def test_criterion_03_gradient_correctness():
    with criterion(3, "backprop matches finite differences on 50 nets", budget_s=30):
        step = 1e-4
        for trial in range(50):
            rng = np.random.default_rng((3000, trial))
            params = init_params(5, 7, 3, rng)
            # Generic biases keep pre-activations off the ReLU kinks, where
            # a central difference is not the derivative of anything.
            for name in ("b1", "b2", "b3"):
                getattr(params, name)[...] = 0.3 * rng.standard_normal(
                    getattr(params, name).shape
                )
            x = rng.standard_normal(5)
            target = rng.standard_normal(3)
            y, cache = forward(params, x)
            _, dloss = mse_loss(y, target)
            grads = backward(params, cache, dloss)
            for name in _PARAM_FIELDS:
                theta = getattr(params, name)
                analytic = getattr(grads, name).ravel()
                flat = theta.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    up, _ = mse_loss(forward(params, x)[0], target)
                    flat[i] = orig - step
                    down, _ = mse_loss(forward(params, x)[0], target)
                    flat[i] = orig
                    numeric = (up - down) / (2 * step)
                    tol = 1e-4 * max(abs(numeric), abs(analytic[i])) + 1e-6
                    assert abs(analytic[i] - numeric) <= tol, (
                        f"net {trial}, {name}[{i}]: {analytic[i]:.8e} vs "
                        f"finite-difference {numeric:.8e}"
                    )


def test_criterion_04_adam_first_step():
    with criterion(4, "Adam first-step magnitude", budget_s=1):
        lr = 1e-4
        for g in (1e-3, 0.3, 7.0, 1e4):
            params = init_params(3, 5, 2, np.random.default_rng(4))
            grads = type(params)(
                *(np.full_like(getattr(params, f), g) for f in _PARAM_FIELDS)
            )
            state = AdamState.for_params(params, lr)
            before = params.copy()
            adam_step(params, grads, state)
            for name in _PARAM_FIELDS:
                delta = np.abs(getattr(params, name) - getattr(before, name))
                assert np.all((delta >= 0.99 * lr) & (delta <= lr)), (
                    f"|g|={g}: step magnitude outside [0.99*lr, lr]"
                )


def test_criterion_05_omp_exact_recovery_and_monotone_residual():
    with criterion(5, "OMP exact recovery and residual monotonicity", budget_s=5):
        geometry = ArrayGeometry(64, 10.0)
        sched = sequential_schedule(64, 4, 16)
        dictionary = build_dictionary(geometry, sched, 256)

        h = (0.9 - 1.4j) * dictionary.full_atoms[:, 101]
        obs = observe(h, sched, 0.0, np.random.default_rng(0))
        estimate = omp_estimate(obs, dictionary, 1)
        assert ensemble_nmse(estimate, h) < 1e-10

        scattering = ScatteringConfig(2, 10, np.radians(5.0))
        sigma2 = noise_variance_for_snr(0.0)
        for i in range(100):
            rng = np.random.default_rng((5000, i))
            h = draw_channel(scattering, geometry, rng)
            obs = observe(h, sched, sigma2, rng)
            _, trace = omp_estimate(obs, dictionary, 4, with_trace=True)
            norms = np.array(trace.residual_norms)
            assert np.all(np.diff(norms) <= 1e-12), f"instance {i}: residual grew"


def test_criterion_06_ls_observed_closed_form():
    with criterion(6, "LS-observed matches scalar shrinkage closed form", budget_s=30):
        geometry = ArrayGeometry(64, 10.0)
        sched = sequential_schedule(64, 4, 16)
        scattering = ScatteringConfig(2, 10, np.radians(5.0))
        for snr_db in (-10.0, 0.0, 10.0):
            sigma2 = noise_variance_for_snr(snr_db)
            expected_db = 10 * np.log10(sigma2 / (1 + sigma2))
            estimates, channels = [], []
            for i in range(5000):
                rng = np.random.default_rng((6000 + int(snr_db), i))
                h = draw_channel(scattering, geometry, rng)
                obs = observe(h, sched, sigma2, rng)
                estimates.append(ls_observed_estimate(obs, sched, sigma2))
                channels.append(h)
            value_db = 10 * np.log10(ensemble_nmse(np.stack(estimates), np.stack(channels)))
            assert abs(value_db - expected_db) <= 0.3, (
                f"SNR {snr_db} dB: {value_db:.3f} dB vs closed form {expected_db:.3f} dB"
            )


def run_desk_pipeline(root, **overrides):
    """The desk-profile pipeline: per-SNR datasets, models, and sweep CSV."""
    cfg = replace(
        desk_profile(),
        dataset_dir=str(root / "datasets"),
        model_dir=str(root / "models"),
        results_dir=str(root / "results"),
        **overrides,
    )
    start = time.monotonic()
    files = cmd_generate(cfg)
    for path in files:
        cmd_train(cfg, path)
    sweep_csv = cmd_sweep(cfg)
    elapsed = time.monotonic() - start
    rows = {}
    for line in sweep_csv.read_text().strip().splitlines()[1:]:
        snr, name, value, _ = line.split(",")
        rows[(float(snr), name)] = float(value)
    return cfg, rows, elapsed


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    return run_desk_pipeline(tmp_path_factory.mktemp("desk"))


@pytest.fixture(scope="module")
def desk_run_float32(tmp_path_factory):
    return run_desk_pipeline(tmp_path_factory.mktemp("desk_float32"), compute_dtype="float32")


def check_learning_efficacy(run):
    """Criterion 7's assertions on one desk pipeline run."""
    cfg, rows, elapsed = run
    assert elapsed < 900, f"desk pipeline took {elapsed:.0f}s (budget 900s)"
    mlp_0 = rows[(0.0, "mlp")]
    ls_0 = rows[(0.0, "ls_observed")]
    assert mlp_0 <= ls_0 - 3.0, (
        f"MLP {mlp_0:.2f} dB not 3 dB below LS {ls_0:.2f} dB at 0 dB SNR"
    )
    assert mlp_0 < 0.0, f"MLP NMSE {mlp_0:.2f} dB not below 0 dB"
    curve = [rows[(snr, "mlp")] for snr in (-10.0, 0.0, 10.0)]
    for lo, hi in zip(curve[1:], curve[:-1]):
        assert lo <= hi + 0.5, f"MLP NMSE curve not non-increasing: {curve}"


def check_convergence(run):
    """Criterion 8's assertions on one desk pipeline run."""
    cfg, _, _ = run
    assert cfg.patience == 20
    trace = curve_path(cfg, 0.0).read_text().strip().splitlines()[1:]
    val_db = [float(line.split(",")[2]) for line in trace]
    assert len(val_db) < cfg.max_epochs, (
        f"no early stop: ran all {cfg.max_epochs} epochs"
    )
    assert min(val_db) < val_db[0], "best epoch no better than epoch 1"


def test_criterion_07_desk_scale_learning_efficacy(desk_run):
    with criterion(7, "desk-scale learning efficacy vs LS baseline"):
        check_learning_efficacy(desk_run)


def test_criterion_08_convergence_behavior(desk_run):
    with criterion(8, "convergence and early stopping in the desk run"):
        check_convergence(desk_run)


def test_criteria_07_and_08_hold_when_training_in_float32(desk_run_float32):
    assert desk_run_float32[0].compute_dtype == "float32"
    with criterion(7, "desk-scale learning efficacy, trained in float32"):
        check_learning_efficacy(desk_run_float32)
    with criterion(8, "convergence and early stopping, trained in float32"):
        check_convergence(desk_run_float32)


def test_criterion_09_complexity_counters():
    with criterion(9, "multiply counters match instrumented forward"):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d_in, hidden, d_out = (int(v) for v in rng.integers(1, 24, size=3))
            params = init_params(d_in, hidden, d_out, rng)
            x = rng.standard_normal(d_in)
            y_slow, count = instrumented_forward(params, x)
            assert count == count_forward_multiplies(d_in, hidden, d_out)
            y_fast, _ = forward(params, x)
            assert np.allclose(y_slow, y_fast, atol=1e-12)
        assert count_forward_multiplies(512, 512, 512) == 786432


def test_criterion_10_reproducibility(tmp_path):
    with criterion(10, "byte-identical outputs across re-runs"):
        outputs = []
        for run in ("first", "second"):
            cfg = ExperimentConfig(
                num_ports=32,
                num_antennas=2,
                num_slots=16,
                aperture_wavelengths=5.0,
                num_clusters=1,
                rays_per_cluster=3,
                snr_db_list=[0.0],
                n_train_samples=600,
                hidden_width=32,
                batch_size=64,
                learning_rate=3e-3,
                max_epochs=6,
                patience=10,
                n_test_samples=64,
                dataset_dir=str(tmp_path / run / "datasets"),
                model_dir=str(tmp_path / run / "models"),
                results_dir=str(tmp_path / run / "results"),
            )
            files = cmd_generate(cfg)
            model_file, curve_file = cmd_train(cfg, files[0])
            sweep_file = cmd_sweep(cfg)
            outputs.append(
                (
                    files[0].read_bytes(),
                    model_file.read_bytes(),
                    curve_file.read_bytes(),
                    sweep_file.read_bytes(),
                )
            )
        assert outputs[0] == outputs[1], "re-run produced different bytes"


def test_criterion_11_round_trips(tmp_path):
    with criterion(11, "pack/normalize/save round trips"):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        assert np.array_equal(unpack_complex(pack_complex(v)), v)

        m = rng.standard_normal((60, 9)) * 4 - 2
        nrm = fit_normalizer(m)
        back = invert_normalizer(nrm, apply_normalizer(nrm, m))
        assert np.max(np.abs(back - m)) < 1e-6

        cfg = ExperimentConfig(
            num_ports=16, num_antennas=2, num_slots=8, num_clusters=1,
            rays_per_cluster=2, n_train_samples=40, snr_db_list=[0.0],
        )
        ds = generate_dataset(cfg, 40, 0.0, 5)
        ds_path = tmp_path / "ds.fasd"
        save_dataset(ds, ds_path)
        loaded = load_dataset(ds_path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.targets, ds.targets)
        resaved = tmp_path / "ds2.fasd"
        save_dataset(loaded, resaved)
        assert resaved.read_bytes() == ds_path.read_bytes()

        params = init_params(6, 10, 4, rng)
        normalizers = faslab.Normalizers(
            fit_normalizer(rng.standard_normal((20, 6))),
            fit_normalizer(rng.standard_normal((20, 4))),
        )
        model_file = tmp_path / "m.fasm"
        save_model(model_file, params, normalizers)
        loaded_params, loaded_nrm = load_model(model_file)
        for name in _PARAM_FIELDS:
            assert np.array_equal(getattr(loaded_params, name), getattr(params, name))
        remodel = tmp_path / "m2.fasm"
        save_model(remodel, loaded_params, loaded_nrm)
        assert remodel.read_bytes() == model_file.read_bytes()
