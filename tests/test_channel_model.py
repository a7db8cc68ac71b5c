"""Tests for steering vectors and clustered-scattering channel draws."""

import numpy as np
import pytest

from faslab.channel_model import (
    ArrayGeometry,
    ScatteringConfig,
    channel_from_rays,
    draw_angles,
    draw_channel,
    draw_gains,
    steering_matrix,
    steering_vector,
)


def geom(num_ports, spacing_ratio):
    """Geometry with a prescribed spacing-to-wavelength ratio."""
    return ArrayGeometry(num_ports, spacing_ratio * (num_ports - 1))


class TestArrayGeometry:
    def test_spacing_ratio_from_aperture(self):
        g = ArrayGeometry(256, 10.0)
        assert g.spacing_ratio == pytest.approx(10.0 / 255.0, rel=0, abs=0)

    def test_rejects_single_port(self):
        with pytest.raises(ValueError, match="num_ports"):
            ArrayGeometry(1, 10.0)

    def test_rejects_nonpositive_aperture(self):
        with pytest.raises(ValueError, match="aperture"):
            ArrayGeometry(4, 0.0)


class TestScatteringConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="num_clusters"):
            ScatteringConfig(0, 10, 0.1)
        with pytest.raises(ValueError, match="rays_per_cluster"):
            ScatteringConfig(2, 0, 0.1)
        with pytest.raises(ValueError, match="max_angle_spread"):
            ScatteringConfig(2, 10, -0.1)


class TestSteeringVector:
    def test_broadside_all_equal(self):
        # cos(pi/2) = 0 kills every phase term.
        a = steering_vector(np.pi / 2, ArrayGeometry(4, 1.5))
        assert np.allclose(a, 0.5 * np.ones(4), atol=1e-12)

    def test_endfire_alternates_sign(self):
        # d/lambda = 1/2 at theta = 0 gives a phase step of pi per port.
        a = steering_vector(0.0, geom(4, 0.5))
        assert np.allclose(a, 0.5 * np.array([1, -1, 1, -1]), atol=1e-12)

    def test_unit_norm_reference_geometry(self):
        a = steering_vector(0.7, ArrayGeometry(256, 10.0))
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_unit_norm_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 300))
            theta = rng.uniform(-10, 10)
            a = steering_vector(theta, ArrayGeometry(n, rng.uniform(0.5, 20)))
            assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_periodic_in_2pi(self):
        g = ArrayGeometry(32, 5.0)
        for theta in (-2.0, 0.3, 1.9):
            assert np.allclose(
                steering_vector(theta, g),
                steering_vector(theta + 2 * np.pi, g),
                atol=1e-12,
            )


class TestSteeringMatrix:
    @staticmethod
    def exp_form(geometry, cos_values):
        # The defining formula, one complex exp per entry.
        n = np.arange(geometry.num_ports)
        phases = 2.0 * np.pi * geometry.spacing_ratio * np.outer(n, cos_values)
        return np.exp(1j * phases) / np.sqrt(geometry.num_ports)

    @pytest.mark.parametrize("num_ports", [64, 256])
    def test_bytes_equal_the_exp_formula(self, num_ports):
        # tobytes(), so the sign of a zero counts: port 0 with a negative
        # cosine has a phase of -0.0.
        geometry = ArrayGeometry(num_ports, 10.0)
        grid = -1.0 + 2.0 * np.arange(4 * num_ports) / (4 * num_ports)
        random = np.cos(np.random.default_rng(5).uniform(-np.pi, np.pi, 20_000))
        for cos_values in (grid, random, np.array([-0.0, 0.0, -1.0, 1.0])):
            expected = self.exp_form(geometry, cos_values)
            assert steering_matrix(geometry, cos_values).tobytes() == expected.tobytes()

    def test_batched_call_equals_one_call_per_row(self):
        geometry = ArrayGeometry(64, 10.0)
        cos_values = np.cos(np.random.default_rng(8).uniform(-np.pi, np.pi, (3, 5, 20)))
        cos_values[0, 0, :2] = [-0.0, 0.0]
        batched = steering_matrix(geometry, cos_values)
        assert batched.shape == (3, 5, 64, 20)
        for index in np.ndindex(3, 5):
            one = steering_matrix(geometry, cos_values[index])
            assert batched[index].tobytes() == one.tobytes()


class TestDrawAngles:
    def test_zero_spread_collapses_rays(self):
        cfg = ScatteringConfig(3, 5, 0.0)
        angles = draw_angles(cfg, np.random.default_rng(0))
        assert angles.shape == (3, 5)
        assert np.all(angles == angles[:, :1])

    def test_rays_within_half_spread_of_center(self):
        spread = np.radians(5.0)
        cfg = ScatteringConfig(2, 10, spread)
        angles = draw_angles(cfg, np.random.default_rng(3))
        # Centers are the first C uniform draws of the stream (documented order).
        centers = np.random.default_rng(3).uniform(-np.pi, np.pi, size=2)
        assert np.all(np.abs(angles - centers[:, None]) <= spread / 2 + 1e-12)

    def test_centers_cover_full_circle(self):
        cfg = ScatteringConfig(2000, 1, 0.0)
        angles = draw_angles(cfg, np.random.default_rng(11)).ravel()
        assert angles.min() < -3.0 and angles.max() > 3.0
        assert np.all((angles > -np.pi) & (angles < np.pi))

    def test_deterministic_per_seed(self):
        cfg = ScatteringConfig(4, 6, 0.2)
        a = draw_angles(cfg, np.random.default_rng(42))
        b = draw_angles(cfg, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestDrawChannel:
    def test_single_forced_ray_closed_form(self):
        # One broadside ray with unit gain: h = sqrt(4) * a(pi/2) = [1,1,1,1].
        h = channel_from_rays([[np.pi / 2]], [[1.0]], ArrayGeometry(4, 1.5))
        assert np.allclose(h, np.ones(4), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            channel_from_rays([[0.1, 0.2]], [[1.0]], ArrayGeometry(4, 1.5))

    def test_rays_without_a_cluster_axis_rejected(self):
        with pytest.raises(ValueError, match="clusters"):
            channel_from_rays([0.1, 0.2], [1.0, 1.0], ArrayGeometry(4, 1.5))

    def test_stacked_rays_equal_one_call_per_channel(self):
        geometry = ArrayGeometry(64, 10.0)
        cfg = ScatteringConfig(2, 10, np.radians(5.0))
        rng = np.random.default_rng(21)
        angles = np.stack([draw_angles(cfg, rng) for _ in range(7)])
        gains = np.stack([draw_gains(cfg, rng) for _ in range(7)])
        stacked = channel_from_rays(angles, gains, geometry)
        assert stacked.shape == (7, 64)
        for i in range(7):
            one = channel_from_rays(angles[i], gains[i], geometry)
            assert stacked[i].tobytes() == one.tobytes()

    @pytest.mark.parametrize("clusters,rays", [(1, 1), (2, 10)])
    def test_average_power_monte_carlo(self, clusters, rays):
        # E[||h||^2] = N; sample mean of ||h||^2 / N over 1e4 draws.
        geometry = ArrayGeometry(64, 10.0)
        cfg = ScatteringConfig(clusters, rays, np.radians(5.0))
        total = 0.0
        for i in range(10_000):
            h = draw_channel(cfg, geometry, np.random.default_rng((5 + clusters, i)))
            total += np.sum(np.abs(h) ** 2)
        assert abs(total / 10_000 / 64 - 1.0) < 0.05

    def test_gain_moments(self):
        cfg = ScatteringConfig(100, 100, 0.0)
        g = draw_gains(cfg, np.random.default_rng(9)).ravel()
        assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 0.05
        assert abs(np.var(g.real) - 0.5) < 0.05
        assert abs(np.var(g.imag) - 0.5) < 0.05

    def test_conditional_covariance_matches_ray_outer_products(self):
        # With the angles held fixed, h is zero-mean Gaussian with covariance
        # (N / K) * sum_k a(theta_k) a(theta_k)^H.
        geometry = ArrayGeometry(8, 3.0)
        angles = np.array([[0.3, 1.1, 2.0]])
        atoms = np.stack(
            [steering_vector(t, geometry) for t in angles.ravel()], axis=1
        )
        expected = (8 / 3) * atoms @ atoms.conj().T
        rng = np.random.default_rng(17)
        draws = np.stack(
            [
                channel_from_rays(angles, draw_gains(ScatteringConfig(1, 3, 0.0), rng), geometry)
                for _ in range(20_000)
            ]
        )
        sample_cov = draws.T @ draws.conj() / draws.shape[0]
        rel_err = np.linalg.norm(sample_cov - expected) / np.linalg.norm(expected)
        assert rel_err < 0.05

    def test_deterministic_per_seed(self):
        geometry = ArrayGeometry(16, 2.0)
        cfg = ScatteringConfig(2, 3, 0.1)
        h1 = draw_channel(cfg, geometry, np.random.default_rng(1234))
        h2 = draw_channel(cfg, geometry, np.random.default_rng(1234))
        assert np.array_equal(h1, h2)
