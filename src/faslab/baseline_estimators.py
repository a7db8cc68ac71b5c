"""Classical comparison estimators.

Greedy sparse regression over an angular steering dictionary, and a
per-port least-squares/shrinkage reconstruction on the observed ports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel_model import ArrayGeometry, steering_matrix
from .pilot_system import PilotObservation, SwitchSchedule

RANK_TOL = 1e-10
# Correlations this close (relative) to a row's largest count as a tie, won
# by the lowest atom index: aliased atoms differ only by rounding, and a
# one-row product and a batched one round differently, so an exact argmax
# would let the BLAS kernel choose between them.
TIE_TOL = 1e-12


@dataclass
class AngularDictionary:
    """Steering-vector dictionary on a spatial-frequency grid.

    ``full_atoms`` holds unit-norm length-N steering columns; ``atoms`` is
    the same dictionary seen through the switch schedule (rows ordered
    slot-major like observations).
    """

    grid_angles: np.ndarray
    atoms: np.ndarray
    full_atoms: np.ndarray


def build_dictionary(
    geometry: ArrayGeometry, sched: SwitchSchedule, num_atoms: int
) -> AngularDictionary:
    """Grid uniform in cos(theta) over [-1, 1) with ``num_atoms`` points.

    Steering vectors are Fourier-like in cos(theta), so this grid keeps
    mutual coherence uniform across atoms.
    """
    if num_atoms < 1:
        raise ValueError(f"num_atoms must be >= 1, got {num_atoms}")
    if sched.num_ports != geometry.num_ports:
        raise ValueError(
            f"schedule covers {sched.num_ports} ports, geometry has "
            f"{geometry.num_ports}"
        )
    cos_grid = -1.0 + 2.0 * np.arange(num_atoms) / num_atoms
    angles = np.arccos(cos_grid)
    full_atoms = steering_matrix(geometry, cos_grid)
    atoms = full_atoms[sched.flat_indices(), :]
    return AngularDictionary(angles, atoms, full_atoms)


@dataclass
class OmpTrace:
    """Per-iteration diagnostics: chosen support and residual norms
    (entry 0 is the initial ||y||, then one entry per accepted atom).

    For a row-matrix input both fields hold one such list per row."""

    support: list
    residual_norms: list


def _as_rows(obs, width: int, what: str) -> tuple[np.ndarray, bool]:
    """Observation(s) as a complex (rows, width) matrix, and whether the
    input was a single observation (a batch of one)."""
    y = obs.samples if isinstance(obs, PilotObservation) else np.asarray(obs)
    if y.ndim not in (1, 2) or y.shape[-1] != width:
        raise ValueError(
            f"observation length {y.shape} does not match {what} {width}"
        )
    return np.atleast_2d(y).astype(complex), y.ndim == 1


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row conj(a) . b over the last axis; each row's value does not
    depend on how many rows share the call."""
    return (a.conj() * b).sum(axis=-1)


def _row_norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt((a.real**2 + a.imag**2).sum(axis=-1))


def omp_estimate(
    obs, dictionary: AngularDictionary, sparsity: int, with_trace: bool = False
):
    """Greedy sparse reconstruction of the full port-domain channel.

    Iterates ``sparsity`` times: pick the atom with the largest residual
    correlation (normalized by its observed-column norm), refit the
    least-squares coefficients on the grown support, deflate the residual.
    The support system is kept orthogonal through an incrementally updated
    QR factorization; atoms that would make it numerically rank-deficient
    (tolerance 1e-10) are dropped with a warning.  Correlations within
    ``TIE_TOL`` of the best tie, and the lowest atom index wins.  A row ends
    early once its residual is exactly zero or every atom has been tried.

    ``obs`` is one observation ``(m,)`` or a row matrix ``(rows, m)``; the
    rows run the greedy loop together (Batch OMP: one correlation GEMM per
    step for every unfinished row), each with its own support and QR
    factors.  Returns the length-N estimate (``(rows, N)`` for a row
    matrix), or (estimate, OmpTrace) with ``with_trace``.
    """
    m, n_atoms = dictionary.atoms.shape
    y, single = _as_rows(obs, m, "dictionary rows")
    if sparsity < 0 or sparsity > n_atoms or sparsity > m:
        raise ValueError(
            f"sparsity {sparsity} must lie in [0, min(num_atoms={n_atoms}, "
            f"observations={m})]"
        )

    rows = y.shape[0]
    atom_norms = _row_norm(dictionary.atoms.T)
    safe_norms = np.where(atom_norms > 0, atom_norms, 1.0)
    residual = y.copy()
    # Unused Q slots and R columns stay zero, so rows with different support
    # sizes run the same arithmetic.
    q = np.zeros((rows, sparsity, m), dtype=complex)
    r = np.zeros((rows, sparsity, sparsity), dtype=complex)
    support = np.zeros((rows, sparsity), dtype=int)
    count = np.zeros(rows, dtype=int)
    residual_norms = np.zeros((rows, sparsity + 1))
    residual_norms[:, 0] = _row_norm(residual)
    excluded = np.zeros((rows, n_atoms), dtype=bool)
    excluded[:, atom_norms == 0] = True
    active = np.flatnonzero(count < sparsity)

    while active.size:
        # |r^H a| per atom, with the conjugate on the small residual side.
        corr = np.abs(residual[active].conj() @ dictionary.atoms) / safe_norms
        corr[excluded[active]] = -1.0
        peak = corr.max(axis=1)
        best = np.argmax(corr >= (peak * (1.0 - TIE_TOL))[:, None], axis=1)
        # An exactly-zero correlation on a nonzero residual is rounding (it
        # comes and goes with the BLAS kernel), not a stop signal.
        live = (peak >= 0.0) & (residual_norms[active, count[active]] > 0.0)
        active, best = active[live], best[live]
        excluded[active, best] = True

        # Orthogonalize each new column against its row's basis (two
        # Gram-Schmidt passes for numerical robustness); slots past the
        # largest support among these rows are zero and skipped.
        basis = q[active, : count[active].max(initial=0)]
        w = np.ascontiguousarray(dictionary.atoms[:, best].T, dtype=complex)
        head = np.zeros((active.size, sparsity), dtype=complex)
        for _ in range(2):
            proj = _row_dot(basis, w[:, None, :])
            head[:, : proj.shape[1]] += proj
            w = w - (proj[:, :, None] * basis).sum(axis=1)
        w_norm = _row_norm(w)
        dropped = w_norm <= RANK_TOL * atom_norms[best]
        for atom in best[dropped]:
            warnings.warn(
                f"dropping atom {atom}: support system would be rank-deficient",
                stacklevel=2,
            )
        keep = ~dropped
        grow, best, slot = active[keep], best[keep], count[active[keep]]
        new_q = w[keep] / w_norm[keep, None]
        head = head[keep]
        head[np.arange(grow.size), slot] = w_norm[keep]
        q[grow, slot] = new_q
        r[grow, :, slot] = head
        support[grow, slot] = best
        count[grow] += 1
        residual[grow] -= _row_dot(new_q, residual[grow])[:, None] * new_q
        residual_norms[grow, count[grow]] = _row_norm(residual[grow])
        active = active[count[active] < sparsity]

    # Back-substitute R c = Q^H y; unused slots get identity rows of R and a
    # zero right-hand side, so their coefficients are zero.
    unused = np.arange(sparsity) >= count[:, None]
    r[:, np.arange(sparsity), np.arange(sparsity)] += unused
    rhs = _row_dot(q, y[:, None, :])
    coeffs = np.zeros((rows, sparsity), dtype=complex)
    for j in reversed(range(sparsity)):
        tail = (r[:, j, j + 1:] * coeffs[:, j + 1:]).sum(axis=-1)
        coeffs[:, j] = (rhs[:, j] - tail) / r[:, j, j]
    estimate = (dictionary.full_atoms.T[support] * coeffs[:, :, None]).sum(axis=1)
    estimate[count == 0] = 0.0

    if not with_trace:
        return estimate[0] if single else estimate
    supports = [s[:c].tolist() for s, c in zip(support, count)]
    norms = [n[: c + 1].tolist() for n, c in zip(residual_norms, count)]
    if single:
        return estimate[0], OmpTrace(supports[0], norms[0])
    return estimate, OmpTrace(supports, norms)


def ls_observed_estimate(obs, sched: SwitchSchedule, sigma2: float) -> np.ndarray:
    """Observed ports get their (revisit-averaged) samples scaled by the
    scalar shrinkage 1/(1 + sigma2) against unit per-port prior power;
    unobserved ports fall back to the zero prior mean.

    ``obs`` is one observation ``(m,)`` or a row matrix ``(rows, m)``."""
    flat = sched.flat_indices()
    y, single = _as_rows(obs, flat.size, "schedule samples")
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2}")
    sums = np.zeros((y.shape[0], sched.num_ports), dtype=complex)
    counts = np.zeros(sched.num_ports)
    np.add.at(sums, (slice(None), flat), y)
    np.add.at(counts, flat, 1.0)
    estimate = np.zeros_like(sums)
    seen = counts > 0
    estimate[:, seen] = (sums[:, seen] / counts[seen]) / (1.0 + sigma2)
    return estimate[0] if single else estimate
