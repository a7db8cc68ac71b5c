"""Clustered-scattering channel realizations and ULA steering vectors.

All randomness flows through an explicitly passed ``numpy.random.Generator``,
so draws are reproducible per stream and safe to parallelize with one stream
per worker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear port layout spanning a fixed aperture.

    ``num_ports`` positions are evenly spaced over an aperture of
    ``aperture_wavelengths`` carrier wavelengths, with ports occupying both
    ends, so the spacing-to-wavelength ratio is W / (N - 1).
    """

    num_ports: int
    aperture_wavelengths: float

    def __post_init__(self):
        if self.num_ports < 2:
            raise ValueError(f"num_ports must be >= 2, got {self.num_ports}")
        if not self.aperture_wavelengths > 0:
            raise ValueError(
                f"aperture_wavelengths must be positive, got {self.aperture_wavelengths}"
            )

    @property
    def spacing_ratio(self) -> float:
        """Inter-port spacing divided by the carrier wavelength."""
        return self.aperture_wavelengths / (self.num_ports - 1)


@dataclass(frozen=True)
class ScatteringConfig:
    """Cluster/ray layout of the multipath environment.

    ``max_angle_spread`` is the total intra-cluster angular width in radians:
    ray angles sit within +/- spread/2 of their cluster center.
    """

    num_clusters: int
    rays_per_cluster: int
    max_angle_spread: float

    def __post_init__(self):
        if self.num_clusters < 1:
            raise ValueError(f"num_clusters must be >= 1, got {self.num_clusters}")
        if self.rays_per_cluster < 1:
            raise ValueError(
                f"rays_per_cluster must be >= 1, got {self.rays_per_cluster}"
            )
        if self.max_angle_spread < 0:
            raise ValueError(
                f"max_angle_spread must be >= 0, got {self.max_angle_spread}"
            )

    @property
    def num_rays(self) -> int:
        return self.num_clusters * self.rays_per_cluster


def steering_matrix(geometry: ArrayGeometry, cos_values) -> np.ndarray:
    """Unit-norm ULA responses, one column per direction cosine.

    Entry (n, k) is (1/sqrt(N)) * exp(j * 2*pi * (d/lambda) * n * cos_values[k]).
    """
    n = np.arange(geometry.num_ports)
    phases = 2.0 * np.pi * geometry.spacing_ratio * np.outer(n, cos_values)
    return np.exp(1j * phases) / np.sqrt(geometry.num_ports)


def steering_vector(theta: float, geometry: ArrayGeometry) -> np.ndarray:
    """Unit-norm ULA response to a plane wave arriving from angle ``theta``.

    The column of :func:`steering_matrix` for cos(theta).  Any real angle is
    accepted; the response is 2*pi-periodic in theta.
    """
    return steering_matrix(geometry, [np.cos(theta)])[:, 0]


def draw_angles(cfg: ScatteringConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw a (num_clusters, rays_per_cluster) matrix of arrival angles.

    Cluster centers are uniform on (-pi, pi); each ray is offset from its
    center by an independent uniform draw on [-spread/2, +spread/2].  Draw
    order is part of the determinism contract: the C centers first, then the
    C x R offset block.  Angles are not wrapped back into (-pi, pi]; the
    array response only sees cos(theta), which is periodic.
    """
    centers = rng.uniform(-np.pi, np.pi, size=cfg.num_clusters)
    half = 0.5 * cfg.max_angle_spread
    offsets = rng.uniform(
        -half, half, size=(cfg.num_clusters, cfg.rays_per_cluster)
    )
    return centers[:, None] + offsets


def draw_gains(cfg: ScatteringConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-ray circularly symmetric complex Gaussian gains with unit variance.

    g = (x + j*y) / sqrt(2) with x, y i.i.d. standard normal, so the real and
    imaginary parts each carry variance 1/2.  The real block is drawn before
    the imaginary block (determinism contract).
    """
    shape = (cfg.num_clusters, cfg.rays_per_cluster)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def channel_from_rays(
    angles: np.ndarray, gains: np.ndarray, geometry: ArrayGeometry
) -> np.ndarray:
    """Assemble the port-domain channel from explicit ray angles and gains.

    h = sqrt(N / K) * sum_k gains[k] * a(angles[k]) over all K rays.  The
    scaling makes E[||h||^2] = N when gains are unit-variance.  Exposed
    separately from :func:`draw_channel` so deterministic ray sets can be
    fed in directly.
    """
    angles = np.asarray(angles, dtype=float)
    gains = np.asarray(gains)
    if angles.shape != gains.shape:
        raise ValueError(
            f"angles shape {angles.shape} != gains shape {gains.shape}"
        )
    atoms = steering_matrix(geometry, np.cos(angles.ravel()))
    scale = np.sqrt(geometry.num_ports / angles.size)
    return scale * (atoms @ gains.ravel())


def draw_channel(
    cfg: ScatteringConfig, geometry: ArrayGeometry, rng: np.random.Generator
) -> np.ndarray:
    """Draw one clustered-scattering channel vector of length num_ports.

    Angles are drawn first, then gains (see the respective functions for the
    in-draw ordering).
    """
    angles = draw_angles(cfg, rng)
    gains = draw_gains(cfg, rng)
    return channel_from_rays(angles, gains, geometry)
