"""Port-switching schedules and the stacked noisy pilot observation.

A schedule assigns, for each pilot slot, the ports occupied by the M movable
antennas.  Observing a channel through a schedule yields the slot-major
stacked vector of noisy per-port samples (pilot symbol fixed at 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _check_rows(idx: np.ndarray, num_ports: int) -> np.ndarray:
    """The index matrix as integers, rejected unless each row holds distinct
    whole-number ports in [0, num_ports); a bad value or a duplicate is
    named by its first slot (row)."""
    if idx.dtype.kind not in "iu":
        floats = idx.dtype.kind == "f"
        whole = np.isfinite(idx) & (idx == np.round(idx)) if floats else np.zeros(idx.shape, bool)
        bad = np.flatnonzero(~whole.all(axis=1))
        if bad.size:
            raise ValueError(f"non-integer port index in slot {bad[0]}: {idx[bad[0]].tolist()}")
    idx = idx.astype(int, copy=False)
    if idx.size and (idx.min() < 0 or idx.max() >= num_ports):
        raise ValueError(
            f"port index out of range [0, {num_ports}): min {idx.min()}, max {idx.max()}"
        )
    ordered = np.sort(idx, axis=1)
    bad = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    if bad.size:
        raise ValueError(f"duplicate port index in slot {bad[0]}: {idx[bad[0]].tolist()}")
    return idx


@dataclass
class SwitchSchedule:
    """Per-slot port assignments: row p lists the ports occupied at slot p.

    Rows must contain pairwise-distinct indices in [0, num_ports); this is
    the index-row encoding of binary selection matrices with orthonormal
    columns.  ``port_indices`` has shape (num_slots, num_antennas); zero
    slots are allowed (degenerate no-observation schedule).
    """

    port_indices: np.ndarray
    num_ports: int

    def __post_init__(self):
        idx = np.asarray(self.port_indices)
        if idx.ndim != 2:
            raise ValueError(f"port_indices must be 2-D, got shape {idx.shape}")
        if idx.shape[1] > self.num_ports:
            raise ValueError(
                f"num_antennas {idx.shape[1]} exceeds num_ports {self.num_ports}"
            )
        self.port_indices = _check_rows(idx, self.num_ports)

    @property
    def num_slots(self) -> int:
        return self.port_indices.shape[0]

    @property
    def num_antennas(self) -> int:
        return self.port_indices.shape[1]

    @property
    def num_samples(self) -> int:
        return self.port_indices.size

    def flat_indices(self) -> np.ndarray:
        """Slot-major flattening: slot 0's antennas first."""
        return self.port_indices.ravel()


@dataclass
class PilotObservation:
    """Slot-major stacked complex pilot samples plus the noise power used."""

    samples: np.ndarray
    noise_variance: float


def build_switch_matrix(row, num_ports: int) -> np.ndarray:
    """Dense N x M binary selector for one slot; column m is the unit vector
    of port row[m].

    Stored schedules keep index rows only; this dense form exists for
    verifying the orthonormal-column property S^T S = I.
    """
    row = np.asarray(row)
    if row.ndim != 1:
        raise ValueError(f"row must be 1-D, got shape {row.shape}")
    row = _check_rows(row[None, :], num_ports)[0]
    s = np.zeros((num_ports, row.size))
    s[row, np.arange(row.size)] = 1.0
    return s


def sequential_schedule(num_ports: int, num_antennas: int, num_slots: int) -> SwitchSchedule:
    """Slot p occupies ports {p*M, ..., p*M + M - 1} modulo N.

    With P*M = N every port is observed exactly once.  Wrap-around is only
    permitted when P*M is a whole multiple of N, so coverage stays uniform.
    """
    total = num_slots * num_antennas
    if total > num_ports and total % num_ports != 0:
        raise ValueError(
            f"num_slots*num_antennas = {total} exceeds num_ports = {num_ports} "
            "without being a multiple of it; coverage would be uneven"
        )
    flat = np.arange(total) % num_ports
    rows = flat.reshape(num_slots, num_antennas)
    return SwitchSchedule(rows, num_ports)


def random_schedule(
    num_ports: int, num_antennas: int, num_slots: int, rng: np.random.Generator
) -> SwitchSchedule:
    """Each slot draws ``num_antennas`` distinct ports uniformly without
    replacement; slots are independent."""
    if num_antennas > num_ports:
        raise ValueError(
            f"num_antennas {num_antennas} exceeds num_ports {num_ports}"
        )
    if num_slots == 0:
        rows = np.empty((0, num_antennas), dtype=int)
    else:
        rows = np.stack(
            [rng.choice(num_ports, size=num_antennas, replace=False) for _ in range(num_slots)]
        )
    return SwitchSchedule(rows, num_ports)


def observe(
    h: np.ndarray,
    sched: SwitchSchedule,
    sigma2: float,
    rng: np.random.Generator,
) -> PilotObservation:
    """Noisy slot-major observation of the scheduled ports.

    Sample (p, m) is h[port_indices[p, m]] + z with z complex Gaussian of
    variance ``sigma2`` (real/imag parts each sigma2/2, real block drawn
    before imaginary).  With sigma2 = 0 the stream is left untouched.
    """
    h = np.asarray(h)
    if h.shape != (sched.num_ports,):
        raise ValueError(
            f"channel length {h.shape} does not match num_ports {sched.num_ports}"
        )
    if not 0 <= sigma2 < np.inf:
        raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2}")
    samples = h[sched.flat_indices()].astype(complex)
    if sigma2 > 0:
        add_noise(samples, rng.standard_normal((2, samples.size)), sigma2)
    return PilotObservation(samples, float(sigma2))


def add_noise(samples: np.ndarray, normals: np.ndarray, sigma2) -> None:
    """Add complex Gaussian noise to complex ``samples`` (..., m) in place.

    The noise is (normals[..., 0, :] + j*normals[..., 1, :]) * sqrt(sigma2/2)
    from standard normals (..., 2, m), the real block first.  ``sigma2`` is
    one variance or one per row (...); a row whose variance is 0 gets no
    noise added.
    """
    sigma2 = np.asarray(sigma2, dtype=float)[..., None]
    noise = (normals[..., 0, :] + 1j * normals[..., 1, :]) * np.sqrt(sigma2 / 2.0)
    np.add(samples, noise, out=samples, where=sigma2 > 0)


def noise_variance_for_snr(snr_db: float) -> float:
    """Noise power for a target SNR in dB against unit per-port signal power.

    The channel normalization makes the average per-port power 1, so
    sigma^2 = 10^(-snr_db/10).
    """
    return float(10.0 ** (-snr_db / 10.0))
