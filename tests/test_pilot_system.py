"""Tests for switch schedules and the noisy pilot observation model."""

import numpy as np
import pytest

from faslab.pilot_system import (
    PilotObservation,
    SwitchSchedule,
    add_noise,
    build_switch_matrix,
    noise_variance_for_snr,
    observe,
    random_schedule,
    sequential_schedule,
)


class TestBuildSwitchMatrix:
    def test_identity_columns(self):
        s = build_switch_matrix([0, 2], 4)
        eye = np.eye(4)
        assert np.array_equal(s[:, 0], eye[:, 0])
        assert np.array_equal(s[:, 1], eye[:, 2])

    def test_orthonormal_columns_random_rows(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            row = rng.choice(16, size=3, replace=False)
            s = build_switch_matrix(row, 16)
            assert np.array_equal(s.T @ s, np.eye(3))
            assert np.all(s.sum(axis=0) == 1)
            assert np.all(s.sum(axis=1) <= 1)

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_switch_matrix([1, 1], 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            build_switch_matrix([0, 4], 4)

    def test_non_integer_index_rejected(self):
        with pytest.raises(ValueError, match="non-integer port index in slot 0"):
            build_switch_matrix([0.2, 2.7], 4)
        with pytest.raises(ValueError, match="non-integer"):
            build_switch_matrix([True, False], 4)
        assert np.array_equal(build_switch_matrix([0.0, 2.0], 4), build_switch_matrix([0, 2], 4))


class TestSwitchSchedule:
    def test_validates_rows(self):
        with pytest.raises(ValueError, match="duplicate"):
            SwitchSchedule(np.array([[1, 1]]), 4)
        with pytest.raises(ValueError, match="range"):
            SwitchSchedule(np.array([[0, 9]]), 4)
        with pytest.raises(ValueError, match="num_antennas"):
            SwitchSchedule(np.array([[0, 1, 2]]), 2)

    def test_duplicate_names_first_bad_slot(self):
        with pytest.raises(ValueError, match="slot 2"):
            SwitchSchedule(np.array([[0, 1], [2, 3], [3, 3]]), 4)

    def test_non_integer_indices_rejected(self):
        with pytest.raises(ValueError, match="non-integer port index in slot 0"):
            SwitchSchedule(np.array([[0.5, 1.9]]), 4)
        with pytest.raises(ValueError, match="non-integer port index in slot 0"):
            SwitchSchedule(np.array([[True, False]]), 4)
        with pytest.raises(ValueError, match="slot 1"):
            SwitchSchedule(np.array([[0.0, 1.0], [2.0, np.nan]]), 4)

    def test_whole_number_floats_accepted(self):
        sched = SwitchSchedule(np.array([[0.0, 2.0]]), 4)
        assert sched.port_indices.tolist() == [[0, 2]]
        assert sched.port_indices.dtype.kind == "i"

    def test_zero_slots_allowed(self):
        sched = SwitchSchedule(np.empty((0, 2), dtype=int), 8)
        assert sched.num_slots == 0
        assert sched.num_samples == 0


class TestSequentialSchedule:
    def test_blocks_of_consecutive_ports(self):
        sched = sequential_schedule(8, 2, 4)
        assert sched.port_indices.tolist() == [[0, 1], [2, 3], [4, 5], [6, 7]]
        counts = np.bincount(sched.flat_indices(), minlength=8)
        assert np.all(counts == 1)

    def test_reference_dimensions_cover_all_ports_once(self):
        sched = sequential_schedule(256, 4, 64)
        assert sched.num_samples == 256
        assert np.array_equal(np.sort(sched.flat_indices()), np.arange(256))

    def test_partial_coverage(self):
        sched = sequential_schedule(8, 2, 2)
        assert sched.port_indices.tolist() == [[0, 1], [2, 3]]
        assert set(sched.flat_indices()) == {0, 1, 2, 3}

    def test_wraparound_requires_whole_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            sequential_schedule(8, 3, 3)
        # 2 full passes over the ports are fine.
        sched = sequential_schedule(8, 2, 8)
        counts = np.bincount(sched.flat_indices(), minlength=8)
        assert np.all(counts == 2)


class TestRandomSchedule:
    def test_full_width_rows_are_permutations(self):
        sched = random_schedule(6, 6, 10, np.random.default_rng(1))
        for row in sched.port_indices:
            assert sorted(row.tolist()) == list(range(6))

    def test_deterministic_per_seed(self):
        a = random_schedule(16, 4, 8, np.random.default_rng(5))
        b = random_schedule(16, 4, 8, np.random.default_rng(5))
        assert np.array_equal(a.port_indices, b.port_indices)

    def test_port_frequencies_binomial(self):
        # Each of 1e4 rows includes a given port with probability M/N = 1/4.
        sched = random_schedule(8, 2, 10_000, np.random.default_rng(2))
        counts = np.bincount(sched.flat_indices(), minlength=8)
        expected = 10_000 * 2 / 8
        sigma = np.sqrt(10_000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_too_many_antennas_rejected(self):
        with pytest.raises(ValueError, match="num_antennas"):
            random_schedule(4, 5, 2, np.random.default_rng(0))


class TestObserve:
    def test_noiseless_selects_entries(self):
        h = np.arange(8) + 1j * np.arange(8)[::-1]
        sched = sequential_schedule(8, 2, 3)
        obs = observe(h, sched, 0.0, np.random.default_rng(0))
        assert np.array_equal(obs.samples, h[sched.flat_indices()])
        assert obs.noise_variance == 0.0

    def test_full_sweep_identity(self):
        h = np.random.default_rng(3).standard_normal(4) * (1 + 0.5j)
        sched = sequential_schedule(4, 1, 4)
        obs = observe(h, sched, 0.0, np.random.default_rng(0))
        assert np.array_equal(obs.samples, h)

    def test_noise_power_monte_carlo(self):
        # 1e5 zero-channel samples at sigma^2 = 1 in a single wraparound sweep.
        sched = sequential_schedule(100, 100, 1000)
        obs = observe(np.zeros(100, complex), sched, 1.0, np.random.default_rng(8))
        assert obs.samples.size == 100_000
        assert abs(np.mean(np.abs(obs.samples) ** 2) - 1.0) < 0.02

    def test_linear_in_channel_when_noiseless(self):
        rng = np.random.default_rng(4)
        h1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        h2 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        sched = sequential_schedule(8, 2, 4)
        zero = np.random.default_rng(0)
        lhs = observe(2.0 * h1 + 3.0j * h2, sched, 0.0, zero).samples
        rhs = 2.0 * observe(h1, sched, 0.0, zero).samples + 3.0j * observe(
            h2, sched, 0.0, zero
        ).samples
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_full_coverage_permutation_invertible(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        perm = rng.permutation(8)
        sched = SwitchSchedule(perm.reshape(4, 2), 8)
        obs = observe(h, sched, 0.0, np.random.default_rng(0))
        recovered = np.empty(8, complex)
        recovered[sched.flat_indices()] = obs.samples
        assert np.array_equal(recovered, h)

    def test_dimension_mismatch_rejected(self):
        sched = sequential_schedule(8, 2, 4)
        with pytest.raises(ValueError, match="num_ports"):
            observe(np.zeros(5, complex), sched, 0.0, np.random.default_rng(0))

    def test_negative_noise_rejected(self):
        sched = sequential_schedule(4, 2, 2)
        with pytest.raises(ValueError, match="sigma2"):
            observe(np.zeros(4, complex), sched, -1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("sigma2", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, sigma2):
        sched = sequential_schedule(4, 2, 2)
        with pytest.raises(ValueError, match=f"sigma2 .*got {sigma2}"):
            observe(np.ones(4, complex), sched, sigma2, np.random.default_rng(0))


class TestAddNoise:
    def test_per_row_variance_and_rows_without_noise_untouched(self):
        # Row 0 has sigma2 = 0: its -0.0 entries stay -0.0 (adding a zero
        # noise would make them +0.0) and its normals are not used.
        samples = np.array([[-0.0 - 0.0j, 2.0 + 1.0j], [1.0 + 1.0j, -1.0 + 0.5j]])
        before = samples.copy()
        normals = np.array([[[5.0, 5.0], [5.0, 5.0]], [[1.0, -2.0], [3.0, 0.5]]])
        add_noise(samples, normals, np.array([0.0, 8.0]))  # sqrt(8/2) = 2
        assert samples[0].tobytes() == before[0].tobytes()
        assert np.array_equal(samples[1], before[1] + 2.0 * np.array([1 + 3j, -2 + 0.5j]))

    def test_one_variance_for_a_vector(self):
        samples = np.zeros(3, dtype=complex)
        add_noise(samples, np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 1.0]]), 0.5)
        assert np.array_equal(samples, 0.5 * np.array([1 + 0j, 2 - 1j, 3 + 1j]))


class TestNoiseVarianceForSnr:
    def test_reference_points(self):
        assert noise_variance_for_snr(0.0) == 1.0
        assert noise_variance_for_snr(10.0) == pytest.approx(0.1)
        assert noise_variance_for_snr(-15.0) == pytest.approx(10**1.5)
        assert noise_variance_for_snr(-15.0) == pytest.approx(31.6228, abs=1e-4)
