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
    Leading axes of ``cos_values`` lead the result: cosines of shape
    (..., K) give responses of shape (..., N, K).
    """
    cos_values = np.asarray(cos_values, dtype=float)
    n = np.arange(geometry.num_ports)
    phases = n[:, None] * cos_values[..., None, :]
    phases *= 2.0 * np.pi * geometry.spacing_ratio
    out = np.empty(phases.shape, dtype=complex)
    np.cos(phases, out=out.real)
    np.sin(phases, out=out.imag)
    # A complex product, as exp(j*phi) is: both turn the sine -0.0 of a -0.0
    # phase (port 0, negative cosine) into +0.0.  Scaling the real and
    # imaginary parts as floats would keep the -0.0.
    out *= 1.0 / np.sqrt(geometry.num_ports)
    return out


def steering_vector(theta: float, geometry: ArrayGeometry) -> np.ndarray:
    """Unit-norm ULA response to a plane wave arriving from angle ``theta``.

    The column of :func:`steering_matrix` for cos(theta).  Any real angle is
    accepted; the response is 2*pi-periodic in theta.
    """
    return steering_matrix(geometry, [np.cos(theta)])[:, 0]


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Uniform draws on [low, high) from draws ``u`` on [0, 1): numpy's
    ``random_uniform`` formula, so ``rng.uniform(low, high, size)`` gives
    the same bytes as this on ``rng.random(size)``."""
    return low + (high - low) * u


@dataclass
class RayDraws:
    """The raw randomness of channels' rays, with any leading axes.

    ``uniforms`` (..., C + C*R) holds each channel's draws on [0, 1): its C
    cluster centers, then its C x R per-ray angle offsets, row-major.
    ``normals`` (..., 2, C, R) holds the real, then the imaginary,
    standard-normal gain blocks.  A block of channels keeps one row per
    channel in preallocated buffers (:meth:`empty`), each row drawn from its
    own stream, and its angles and gains go to :func:`channel_from_rays` in
    one call.
    """

    cfg: ScatteringConfig
    uniforms: np.ndarray
    normals: np.ndarray

    @classmethod
    def empty(cls, cfg: ScatteringConfig, shape: tuple = ()) -> "RayDraws":
        """Uninitialized buffers for channels of leading shape ``shape``
        (the default is one channel)."""
        c, r = cfg.num_clusters, cfg.rays_per_cluster
        return cls(cfg, np.empty((*shape, c + c * r)), np.empty((*shape, 2, c, r)))

    def draw_angles(self, rng: np.random.Generator, row=()) -> None:
        """Draw the centers, then the offsets, of channel ``row`` from ``rng``
        in one call; :meth:`angles` maps them to their ranges."""
        rng.random(out=self.uniforms[row])

    def draw_gains(self, rng: np.random.Generator, row=()) -> None:
        """Draw the real, then the imaginary, gain block of channel ``row``."""
        rng.standard_normal(out=self.normals[row])

    def draw(self, rng: np.random.Generator, row=()) -> None:
        """Draw all of channel ``row``: angles first, then gains."""
        self.draw_angles(rng, row)
        self.draw_gains(rng, row)

    def angles(self) -> np.ndarray:
        """Ray angles (..., C, R), center plus offset.

        Cluster centers are uniform on (-pi, pi); each ray is offset from its
        center by an independent uniform draw on [-spread/2, +spread/2]: the
        bytes of ``rng.uniform`` with those bounds, centers first.  Angles
        are not wrapped back into (-pi, pi]; the array response only sees
        cos(theta), which is periodic."""
        c, r = self.cfg.num_clusters, self.cfg.rays_per_cluster
        half = 0.5 * self.cfg.max_angle_spread
        centers = _uniform(self.uniforms[..., :c], -np.pi, np.pi)
        offsets = _uniform(self.uniforms[..., c:], -half, half)
        return centers[..., None] + offsets.reshape(*offsets.shape[:-1], c, r)

    def gains(self) -> np.ndarray:
        """Ray gains (..., C, R): g = (x + j*y) / sqrt(2), so the real and
        imaginary parts each carry variance 1/2."""
        return (self.normals[..., 0, :, :] + 1j * self.normals[..., 1, :, :]) / np.sqrt(2.0)


def draw_angles(cfg: ScatteringConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw a (num_clusters, rays_per_cluster) matrix of arrival angles.

    Draw order is part of the determinism contract: the C centers first,
    then the C x R offset block (:meth:`RayDraws.angles`).
    """
    rays = RayDraws.empty(cfg)
    rays.draw_angles(rng)
    return rays.angles()


def draw_gains(cfg: ScatteringConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-ray circularly symmetric complex Gaussian gains with unit variance.

    The real block is drawn before the imaginary block (determinism
    contract; :meth:`RayDraws.gains`).
    """
    rays = RayDraws.empty(cfg)
    rays.draw_gains(rng)
    return rays.gains()


def channel_from_rays(
    angles: np.ndarray, gains: np.ndarray, geometry: ArrayGeometry
) -> np.ndarray:
    """Assemble port-domain channels from explicit ray angles and gains.

    The last two axes hold one channel's rays (clusters x rays per cluster)
    and any leading axes index channels: rays of shape (..., C, R) give
    channels of shape (..., N), all synthesized in one stacked product.
    h = sqrt(N / K) * sum_k gains[k] * a(angles[k]) over the K = C*R rays.
    The scaling makes E[||h||^2] = N when gains are unit-variance.  Exposed
    separately from :func:`draw_channel` so deterministic ray sets can be
    fed in directly.
    """
    angles = np.asarray(angles, dtype=float)
    gains = np.asarray(gains)
    if angles.shape != gains.shape or angles.ndim < 2:
        raise ValueError(
            f"angles shape {angles.shape} and gains shape {gains.shape} must "
            "be equal, (..., clusters, rays per cluster)"
        )
    lead = angles.shape[:-2]
    k = angles.shape[-2] * angles.shape[-1]
    atoms = steering_matrix(geometry, np.cos(angles.reshape(*lead, k)))
    scale = np.sqrt(geometry.num_ports / k)
    return scale * (atoms @ gains.reshape(*lead, k, 1))[..., 0]


def draw_channel(
    cfg: ScatteringConfig, geometry: ArrayGeometry, rng: np.random.Generator
) -> np.ndarray:
    """Draw one clustered-scattering channel vector of length num_ports.

    Angles are drawn first, then gains (see :class:`RayDraws` for the
    in-draw ordering).
    """
    rays = RayDraws.empty(cfg)
    rays.draw(rng)
    return channel_from_rays(rays.angles(), rays.gains(), geometry)
