"""Tests for the greedy sparse estimator and the observed-port shrinkage."""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from faslab import baseline_estimators, dataset_pipeline
from faslab.baseline_estimators import (
    RANK_TOL,
    AngularDictionary,
    _correlations,
    _OmpWorkspace,
    _row_norm,
    build_dictionary,
    ls_observed_estimate,
    omp_estimate,
)
from faslab.channel_model import (
    ArrayGeometry,
    ScatteringConfig,
    draw_channel,
    steering_matrix,
)
from faslab.mlp_estimator import ensemble_nmse
from faslab.pilot_system import (
    SwitchSchedule,
    noise_variance_for_snr,
    observe,
    random_schedule,
    sequential_schedule,
)


def full_coverage(num_ports, num_antennas=2):
    return sequential_schedule(num_ports, num_antennas, num_ports // num_antennas)


class TestBuildDictionary:
    def test_two_point_grid_in_cosine(self):
        geometry = ArrayGeometry(8, 2.0)
        sched = full_coverage(8)
        d = build_dictionary(geometry, sched, 2)
        assert np.allclose(np.cos(d.grid_angles), [-1.0, 0.0], atol=1e-12)

    def test_full_atoms_unit_norm(self):
        geometry = ArrayGeometry(32, 6.0)
        d = build_dictionary(geometry, full_coverage(32), 128)
        norms = np.linalg.norm(d.full_atoms, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_observed_atoms_select_scheduled_ports(self):
        geometry = ArrayGeometry(16, 4.0)
        sched = sequential_schedule(16, 2, 4)
        d = build_dictionary(geometry, sched, 20)
        assert np.array_equal(d.atoms, d.full_atoms[sched.flat_indices(), :])

    def test_port_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="ports"):
            build_dictionary(ArrayGeometry(8, 2.0), full_coverage(16), 8)

    @pytest.mark.parametrize(
        "num_ports, aperture, num_atoms",
        [(256, 10.0, 1024), (64, 10.0, 256), (32, 10.0, 128), (8, 7.0, 16), (4, 3.0, 2)],
    )
    def test_power_of_two_grid_gives_the_direct_formula_bytes(
        self, num_ports, aperture, num_atoms
    ):
        # Every steering column evaluated on the grid -1 + 2k/K, as before
        # the mirrored atoms were filled by conjugation.
        geometry = ArrayGeometry(num_ports, aperture)
        sched = random_schedule(num_ports, 2, num_ports // 2, np.random.default_rng(1))
        d = build_dictionary(geometry, sched, num_atoms)
        cos_grid = -1.0 + 2.0 * np.arange(num_atoms) / num_atoms
        full = steering_matrix(geometry, cos_grid)
        assert d.full_atoms.tobytes() == full.tobytes()
        assert d.atoms.tobytes() == full[sched.flat_indices(), :].tobytes()
        assert d.grid_angles.tobytes() == np.arccos(cos_grid).tobytes()

    @pytest.mark.parametrize("num_atoms", [1, 2, 3, 96, 400, 1024])
    def test_mirrored_atoms_are_exact_conjugates(self, num_atoms):
        geometry = ArrayGeometry(64, 10.0)
        d = build_dictionary(geometry, full_coverage(64, 4), num_atoms)
        for k in range(1, num_atoms):
            mirror = d.full_atoms[:, num_atoms - k]
            assert np.array_equal(mirror, d.full_atoms[:, k].conj()), f"atom {k}"
        # The mirrored atoms' norms are copied from their partners.
        assert d.atom_norms.tobytes() == _row_norm(d.atoms.T).tobytes()

    def test_dictionary_without_conjugate_pairs_rejected(self):
        d = build_dictionary(ArrayGeometry(16, 4.0), full_coverage(16), 8)
        atoms = d.atoms.copy()
        atoms[3, 6] *= 1.0 + 1e-15
        with pytest.raises(ValueError, match="conjugates"):
            AngularDictionary(d.grid_angles, atoms, d.full_atoms)


def on_grid_channel(dictionary, index, gain):
    return gain * dictionary.full_atoms[:, index]


class TestOmp:
    def setup_method(self):
        self.geometry = ArrayGeometry(32, 8.0)
        self.sched = full_coverage(32)
        self.dictionary = build_dictionary(self.geometry, self.sched, 128)

    def observe_noiseless(self, h):
        return observe(h, self.sched, 0.0, np.random.default_rng(0))

    def test_single_on_grid_path_exact_recovery(self):
        h = on_grid_channel(self.dictionary, 37, 1.3 - 0.4j)
        est = omp_estimate(self.observe_noiseless(h), self.dictionary, 1)
        assert ensemble_nmse(est, h) < 1e-10

    def test_first_pick_is_true_atom(self):
        h = on_grid_channel(self.dictionary, 91, 0.8j)
        _, trace = omp_estimate(
            self.observe_noiseless(h), self.dictionary, 1, with_trace=True
        )
        assert trace.support == [91]

    def test_zero_observation_gives_zero_estimate(self):
        est, trace = omp_estimate(
            np.zeros(self.sched.num_samples, complex), self.dictionary, 3,
            with_trace=True,
        )
        assert np.array_equal(est, np.zeros(32, complex))
        assert trace.support == []

    def test_two_separated_paths_match_ls_oracle(self):
        # Brute-force oracle: least squares on the true two-atom support.
        idx = [20, 84]
        gains = np.array([1.0 + 0.5j, -0.7 + 0.2j])
        h = self.dictionary.full_atoms[:, idx] @ gains
        obs = self.observe_noiseless(h)
        est = omp_estimate(obs, self.dictionary, 2)
        assert ensemble_nmse(est, h) < 1e-8

        basis = self.dictionary.atoms[:, idx]
        coeffs, *_ = np.linalg.lstsq(basis, obs.samples, rcond=None)
        oracle = self.dictionary.full_atoms[:, idx] @ coeffs
        assert ensemble_nmse(est, oracle) < 1e-10

    def test_residual_norms_non_increasing_and_support_unique(self):
        sigma2 = noise_variance_for_snr(0.0)
        scattering = ScatteringConfig(2, 10, np.radians(5))
        for i in range(25):
            rng = np.random.default_rng((77, i))
            h = draw_channel(scattering, self.geometry, rng)
            obs = observe(h, self.sched, sigma2, rng)
            _, trace = omp_estimate(obs, self.dictionary, 6, with_trace=True)
            norms = np.array(trace.residual_norms)
            assert np.all(np.diff(norms) <= 1e-12)
            assert len(set(trace.support)) == len(trace.support)

    def test_full_sparsity_drives_residual_to_zero(self):
        # With as many atoms as observations and a full-rank system the
        # residual must reach numerical zero.
        sched = sequential_schedule(8, 2, 4)
        dictionary = build_dictionary(ArrayGeometry(8, 2.0), sched, 32)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        _, trace = omp_estimate(y, dictionary, 8, with_trace=True)
        assert trace.residual_norms[-1] < 1e-8 * trace.residual_norms[0]

    def test_rank_deficient_atoms_dropped_with_warning(self):
        # Integer port spacing (d/lambda = 1) aliases the cos = -1 and cos = 0
        # grid atoms onto identical responses, so the second pick is exactly
        # collinear with the first and must be dropped.
        sched = SwitchSchedule(np.array([[0], [1]]), 4)
        dictionary = build_dictionary(ArrayGeometry(4, 3.0), sched, 2)
        assert np.allclose(dictionary.atoms[:, 0], dictionary.atoms[:, 1])
        y = np.array([1.0 + 0.2j, 0.3])  # not in the span of the shared atom
        with pytest.warns(UserWarning, match="rank-deficient"):
            est, trace = omp_estimate(y, dictionary, 2, with_trace=True)
        assert len(trace.support) == 1
        assert np.all(np.isfinite(est))

    def test_drop_warning_names_the_caller(self):
        sched = SwitchSchedule(np.array([[0], [1]]), 4)
        dictionary = build_dictionary(ArrayGeometry(4, 3.0), sched, 2)
        with pytest.warns(UserWarning, match="rank-deficient") as caught:
            omp_estimate(np.array([1.0 + 0.2j, 0.3]), dictionary, 2)
        assert caught[0].filename == __file__

    def test_sparsity_bounds_rejected(self):
        with pytest.raises(ValueError, match="sparsity"):
            omp_estimate(
                np.zeros(self.sched.num_samples, complex), self.dictionary, 129
            )


def rank_drop_warnings(caught):
    return sum("rank-deficient" in str(w.message) for w in caught)


def traced_omp(rows, dictionary, sparsity):
    """(estimate, support, residual norms, rank-drop warnings) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est, trace = omp_estimate(rows, dictionary, sparsity, with_trace=True)
    return est, trace.support, trace.residual_norms, rank_drop_warnings(caught)


def assert_same_omp(got, want):
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


def loop_omp(y, dictionary, sparsity):
    """Reference: the one-row greedy loop (modified Gram-Schmidt, exact
    argmax) that the batched implementation replaced, with a least-squares
    refit on the final support.  Returns (support, estimate)."""
    atoms = dictionary.atoms
    norms = np.linalg.norm(atoms, axis=0)
    residual = y.astype(complex)
    support, basis = [], []
    excluded = norms == 0
    while len(support) < sparsity:
        corr = np.abs(atoms.conj().T @ residual) / np.where(norms > 0, norms, 1.0)
        corr[excluded] = -1.0
        best = int(np.argmax(corr))
        if corr[best] <= 0.0:
            break
        excluded[best] = True
        w = atoms[:, best].astype(complex)
        for _ in range(2):
            for q in basis:
                w = w - np.vdot(q, w) * q
        if np.linalg.norm(w) <= RANK_TOL * norms[best]:
            continue
        q = w / np.linalg.norm(w)
        support.append(best)
        basis.append(q)
        residual = residual - np.vdot(q, residual) * q
    coeffs, *_ = np.linalg.lstsq(atoms[:, support], y, rcond=None)
    return support, dictionary.full_atoms[:, support] @ coeffs


@pytest.mark.parametrize("kind", ["sequential", "random"])
def test_batch_omp_matches_loop_reference(kind):
    # Desk sweep shapes: 64 ports, 4x oversampled dictionary, sparsity 4;
    # the random schedule revisits ports.
    geometry = ArrayGeometry(64, 10.0)
    rng = np.random.default_rng(8)
    sched = (
        sequential_schedule(64, 4, 16) if kind == "sequential"
        else random_schedule(64, 4, 16, rng)
    )
    dictionary = build_dictionary(geometry, sched, 256)
    scattering = ScatteringConfig(2, 10, np.radians(5))
    rows = []
    for key, snr_db in enumerate((-10.0, 10.0)):
        for i in range(60):
            stream = np.random.default_rng((41, key, i))
            h = draw_channel(scattering, geometry, stream)
            rows.append(observe(h, sched, noise_variance_for_snr(snr_db), stream).samples)
    rows = np.stack(rows)
    batch, trace = omp_estimate(rows, dictionary, 4, with_trace=True)
    for i, y in enumerate(rows):
        support, estimate = loop_omp(y, dictionary, 4)
        assert trace.support[i] == support, f"row {i}"
        assert np.linalg.norm(batch[i] - estimate) <= 1e-10 * np.linalg.norm(estimate)


class TestCorrelations:
    """One real GEMM over the head atoms gives every atom's |r^H a|."""

    @pytest.mark.parametrize(
        "num_ports, aperture, num_atoms, kind",
        [
            (64, 10.0, 256, "sequential"),
            (256, 10.0, 1024, "random"),
            (8, 7.0, 16, "random"),  # d/lambda = 1: aliased atoms
            (16, 4.0, 3, "sequential"),
            (16, 4.0, 97, "random"),
            (32, 6.0, 400, "random"),
        ],
    )
    def test_match_the_complex_product(self, num_ports, aperture, num_atoms, kind):
        geometry = ArrayGeometry(num_ports, aperture)
        rng = np.random.default_rng(num_atoms)
        sched = (
            sequential_schedule(num_ports, 2, num_ports // 2) if kind == "sequential"
            else random_schedule(num_ports, 2, num_ports // 2 + 3, rng)
        )
        d = build_dictionary(geometry, sched, num_atoms)
        shape = (40, sched.num_samples)
        residual = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        residual[5] = residual[5].real
        ws = _OmpWorkspace(40, d, 1)
        for rows in (40, 7, 1):
            want = np.abs(residual[:rows].conj() @ d.atoms)
            got = _correlations(d, residual[:rows], ws)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * want.max(axis=1, keepdims=True))
        # A real residual correlates equally with an atom and its mirror,
        # bit for bit, so the tie rule (not rounding) picks between them.
        got = _correlations(d, residual[5:6], ws)[0]
        assert np.array_equal(got[1:], got[:0:-1])


class TestOmpBatch:
    """A row matrix runs the same greedy loop as one call per row."""

    def setup_method(self):
        # Integer port spacing (d/lambda = 1) aliases every grid atom at
        # cos = c onto the one at c + 1, as in the rank-deficient case above:
        # once a row's support spans the observed ports, every remaining
        # pick is collinear and dropped.  The random schedule revisits ports
        # (16 samples over 8 ports), and sparsity 10 exceeds that rank.
        self.geometry = ArrayGeometry(8, 7.0)
        self.sched = random_schedule(8, 2, 8, np.random.default_rng(3))
        self.dictionary = build_dictionary(self.geometry, self.sched, 16)
        self.sparsity = 10
        scattering = ScatteringConfig(2, 10, np.radians(5))
        sigma2 = noise_variance_for_snr(5.0)
        rows = []
        for i in range(220):
            rng = np.random.default_rng((31, i))
            h = draw_channel(scattering, self.geometry, rng)
            rows.append(observe(h, self.sched, sigma2, rng).samples)
        rows.insert(17, np.zeros(self.sched.num_samples, complex))
        self.rows = np.stack(rows)

    def test_batch_matches_one_row_calls(self):
        assert len(np.unique(self.sched.flat_indices())) < self.sched.num_samples
        assert np.allclose(self.dictionary.atoms[:, 0], self.dictionary.atoms[:, 8])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch, trace = omp_estimate(
                self.rows, self.dictionary, self.sparsity, with_trace=True
            )
        batch_drops = rank_drop_warnings(caught)
        assert batch.shape == (len(self.rows), self.geometry.num_ports)
        assert len(trace.support) == len(trace.residual_norms) == len(self.rows)

        row_drops = 0
        for i, y in enumerate(self.rows):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                est, row_trace = omp_estimate(
                    y, self.dictionary, self.sparsity, with_trace=True
                )
            row_drops += rank_drop_warnings(caught)
            assert trace.support[i] == row_trace.support, f"row {i}"
            assert trace.residual_norms[i] == row_trace.residual_norms, f"row {i}"
            scale = max(np.linalg.norm(est), 1e-300)
            assert np.linalg.norm(batch[i] - est) <= 1e-10 * scale, f"row {i}"

        # Sparsity exceeds the rank, so each nonzero row tries every atom:
        # the atoms outside its support are exactly the dropped ones.
        n_atoms = self.dictionary.atoms.shape[1]
        dropped = sum(
            n_atoms - len(s) for s, y in zip(trace.support, self.rows) if y.any()
        )
        assert batch_drops == row_drops == dropped > 0

    def test_two_atom_aliased_case_in_a_batch(self):
        # The two-sample case of test_rank_deficient_atoms_dropped_with_warning,
        # twice, around a zero row: one drop (and warning) per nonzero row.
        sched = SwitchSchedule(np.array([[0], [1]]), 4)
        dictionary = build_dictionary(ArrayGeometry(4, 3.0), sched, 2)
        y = np.array([1.0 + 0.2j, 0.3])
        rows = np.stack([y, np.zeros(2, complex), 2 * y])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est, trace = omp_estimate(rows, dictionary, 2, with_trace=True)
        assert rank_drop_warnings(caught) == 2
        assert [len(s) for s in trace.support] == [1, 0, 1]
        assert np.all(np.isfinite(est))
        assert np.array_equal(est[1], np.zeros(4, complex))

    def test_row_blocks_give_the_one_block_results(self, monkeypatch):
        # 16 atoms: the default block holds all 221 rows, this one 7.
        whole = traced_omp(self.rows, self.dictionary, self.sparsity)
        monkeypatch.setattr(baseline_estimators, "_OMP_BLOCK", 7 * 16)
        blocked = traced_omp(self.rows, self.dictionary, self.sparsity)
        assert whole[3] > 0
        assert_same_omp(blocked, whole)

    def test_row_blocks_at_paper_shapes(self, monkeypatch):
        # 1024 atoms: the default block holds 48 rows, so 130 rows make 3.
        geometry = ArrayGeometry(256, 10.0)
        sched = random_schedule(256, 4, 64, np.random.default_rng(6))
        dictionary = build_dictionary(geometry, sched, 1024)
        assert baseline_estimators._OMP_BLOCK // 1024 == 48
        scattering = ScatteringConfig(2, 10, np.radians(5))
        rows = []
        for i in range(130):
            rng = np.random.default_rng((53, i))
            h = draw_channel(scattering, geometry, rng)
            rows.append(observe(h, sched, noise_variance_for_snr(0.0), rng).samples)
        rows = np.stack(rows)
        blocked = traced_omp(rows, dictionary, 4)
        monkeypatch.setattr(baseline_estimators, "_OMP_BLOCK", 130 * 1024)
        assert_same_omp(blocked, traced_omp(rows, dictionary, 4))

    def test_large_call_heap_stays_bounded(self):
        # 2 000 paper-shape rows in one call; all rows at once held 224 MB.
        sched = sequential_schedule(256, 4, 64)
        dictionary = build_dictionary(ArrayGeometry(256, 10.0), sched, 1024)
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((2000, 256)) + 1j * rng.standard_normal((2000, 256))
        tracemalloc.start()
        try:
            omp_estimate(rows, dictionary, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="observation length"):
            omp_estimate(self.rows[:, :-1], self.dictionary, 3)


def lane_cpus(monkeypatch, cpus):
    """Make task_lane() see ``cpus`` CPUs in the affinity mask."""
    mask = set(range(cpus))
    monkeypatch.setattr(dataset_pipeline.os, "sched_getaffinity", lambda pid: mask, raising=False)


class ThreadedWarnings:
    """Stands in for baseline_estimators' ``warnings`` module and records
    the thread that issues each warning."""

    def __init__(self):
        self.threads = []

    def warn(self, message, category=None, stacklevel=1):
        self.threads.append(threading.current_thread())
        warnings.warn(message, category, stacklevel + 1)


def warned_omp(rows, dictionary, sparsity):
    """(estimate, support, residual norms, [(drop warning, file)]) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est, trace = omp_estimate(rows, dictionary, sparsity, with_trace=True)
    return est, trace.support, trace.residual_norms, [(str(w.message), w.filename) for w in caught]


@pytest.mark.filterwarnings("ignore:dropping atom")
class TestOmpOnTheLane:
    """Inside a task_lane(), omp_estimate's row blocks after the first go to
    the front of the lane's queue: with two CPUs its helper takes some."""

    setup_method = TestOmpBatch.setup_method

    def test_blocks_on_the_helper_give_the_one_thread_results(self, monkeypatch):
        # 221 rows in 32 blocks of 7.
        monkeypatch.setattr(baseline_estimators, "_OMP_BLOCK", 7 * 16)
        alone = warned_omp(self.rows, self.dictionary, self.sparsity)
        recorder = ThreadedWarnings()
        monkeypatch.setattr(baseline_estimators, "warnings", recorder)
        lane_cpus(monkeypatch, 2)
        ran_on = set()
        omp_rows = baseline_estimators._omp_rows

        def recording(*args):
            ran_on.add(threading.current_thread())
            return omp_rows(*args)

        monkeypatch.setattr(baseline_estimators, "_omp_rows", recording)
        before = threading.enumerate()
        with dataset_pipeline.task_lane() as lane:
            assert lane.runners == 2
            shared = warned_omp(self.rows, self.dictionary, self.sparsity)
        assert threading.enumerate() == before
        assert threading.main_thread() in ran_on and len(ran_on) <= 2
        assert np.array_equal(shared[0], alone[0])
        assert shared[1:3] == alone[1:3]
        # The same drops in the same (block) order, each issued on the
        # calling thread and naming this file.
        assert shared[3] == alone[3] and len(alone[3]) > 0
        assert {filename for _, filename in shared[3]} == {__file__}
        assert recorder.threads == [threading.main_thread()] * len(alone[3])

    def test_an_empty_row_matrix(self, monkeypatch):
        lane_cpus(monkeypatch, 2)
        with dataset_pipeline.task_lane():
            est, trace = omp_estimate(self.rows[:0], self.dictionary, 3, with_trace=True)
        assert est.shape == (0, self.geometry.num_ports)
        assert trace.support == trace.residual_norms == []

    def test_an_error_in_a_block_on_the_helper_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(baseline_estimators, "_OMP_BLOCK", 7 * 16)
        lane_cpus(monkeypatch, 2)

        class Boom(RuntimeError):
            pass

        helper_took_one = threading.Event()
        omp_rows = baseline_estimators._omp_rows

        def helper_raises(*args):
            if threading.current_thread() is threading.main_thread():
                # The calling thread's first block lets the helper take one.
                assert helper_took_one.wait(timeout=60)
                return omp_rows(*args)
            helper_took_one.set()
            raise Boom("block on the helper")

        monkeypatch.setattr(baseline_estimators, "_omp_rows", helper_raises)
        before = threading.enumerate()
        with pytest.raises(Boom, match="block on the helper"):
            with dataset_pipeline.task_lane():
                omp_estimate(self.rows, self.dictionary, self.sparsity)
        assert threading.enumerate() == before

    def test_blocks_go_ahead_of_the_queued_tasks(self, monkeypatch):
        # One CPU: no helper, so the calling thread runs every task, and it
        # stops once its own blocks are done.
        monkeypatch.setattr(baseline_estimators, "_OMP_BLOCK", 7 * 16)
        lane_cpus(monkeypatch, 1)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda thread: started.append(thread) or start(thread)
        )
        with dataset_pipeline.task_lane() as lane:
            assert lane.runners == 1
            (queued,) = lane.submit([lambda: "queued"])
            est = omp_estimate(self.rows, self.dictionary, self.sparsity)
            assert not queued.done()
            lane.wait([queued])
            assert queued.result() == "queued"
        assert started == []
        alone = omp_estimate(self.rows, self.dictionary, self.sparsity)
        assert np.array_equal(est, alone)


class TestLsObserved:
    def test_noiseless_full_coverage_identity(self):
        geometry = ArrayGeometry(16, 4.0)
        sched = full_coverage(16)
        h = draw_channel(
            ScatteringConfig(2, 5, 0.05), geometry, np.random.default_rng(1)
        )
        obs = observe(h, sched, 0.0, np.random.default_rng(2))
        est = ls_observed_estimate(obs, sched, 0.0)
        assert ensemble_nmse(est, h) == 0.0

    def test_no_slots_returns_prior_mean(self):
        sched = SwitchSchedule(np.empty((0, 2), dtype=int), 8)
        est = ls_observed_estimate(np.zeros(0, complex), sched, 1.0)
        assert np.array_equal(est, np.zeros(8, complex))
        h = np.ones(8, complex)
        assert ensemble_nmse(est, h) == 1.0

    def test_unobserved_ports_zero(self):
        sched = sequential_schedule(8, 2, 2)  # ports 4..7 never observed
        y = np.ones(4, complex)
        est = ls_observed_estimate(y, sched, 0.0)
        assert np.array_equal(est[4:], np.zeros(4, complex))
        assert np.array_equal(est[:4], np.ones(4, complex))

    def test_revisited_ports_averaged(self):
        sched = SwitchSchedule(np.array([[0], [0], [1]]), 4)
        y = np.array([1.0 + 1j, 3.0 - 1j, 5.0])
        est = ls_observed_estimate(y, sched, 0.0)
        assert est[0] == pytest.approx(2.0)
        assert est[1] == pytest.approx(5.0)

    def test_shrinkage_factor_applied(self):
        sched = sequential_schedule(4, 2, 2)
        y = np.ones(4, complex)
        est = ls_observed_estimate(y, sched, 1.0)
        assert np.allclose(est, 0.5 * np.ones(4), atol=1e-14)

    def test_ensemble_nmse_matches_scalar_mmse(self):
        # At sigma^2 = 1 and full coverage the ensemble NMSE converges to
        # sigma^2 / (1 + sigma^2) = 0.5.
        geometry = ArrayGeometry(64, 10.0)
        sched = full_coverage(64, 4)
        scattering = ScatteringConfig(2, 10, np.radians(5))
        estimates, channels = [], []
        for i in range(5000):
            rng = np.random.default_rng((99, i))
            h = draw_channel(scattering, geometry, rng)
            obs = observe(h, sched, 1.0, rng)
            estimates.append(ls_observed_estimate(obs, sched, 1.0))
            channels.append(h)
        value = ensemble_nmse(np.stack(estimates), np.stack(channels))
        assert abs(value - 0.5) < 0.025

    def test_length_mismatch_rejected(self):
        sched = sequential_schedule(8, 2, 2)
        with pytest.raises(ValueError, match="length"):
            ls_observed_estimate(np.zeros(5, complex), sched, 0.0)

    @pytest.mark.parametrize("sigma2", [-1.0, float("nan"), float("inf")])
    def test_invalid_noise_variance_rejected(self, sigma2):
        sched = sequential_schedule(8, 2, 2)
        with pytest.raises(ValueError, match=f"sigma2 .*got {sigma2}"):
            ls_observed_estimate(np.zeros(4, complex), sched, sigma2)

    def test_row_matrix_matches_row_calls_bitwise(self):
        sched = SwitchSchedule(np.array([[0, 2], [2, 1], [0, 3], [0, 1]]), 6)
        rows = np.random.default_rng(4).standard_normal((30, 8, 2)) @ [1, 1j]
        batch = ls_observed_estimate(rows, sched, 0.3)
        single = np.stack([ls_observed_estimate(y, sched, 0.3) for y in rows])
        assert batch.tobytes() == single.tobytes()
