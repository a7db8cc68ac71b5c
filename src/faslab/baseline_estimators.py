"""Classical comparison estimators.

Greedy sparse regression over an angular steering dictionary, and a
per-port least-squares/shrinkage reconstruction on the observed ports.
"""

from __future__ import annotations

import functools
import math
import queue
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel_model import ArrayGeometry, steering_matrix
from .dataset_pipeline import _held_lane, _TaskLane
from .pilot_system import PilotObservation, SwitchSchedule

RANK_TOL = 1e-10
# Correlations this close (relative) to a row's largest count as a tie, won
# by the lowest atom index: aliased atoms differ only by rounding, and a
# one-row product and a batched one round differently, so an exact argmax
# would let the BLAS kernel choose between them.
TIE_TOL = 1e-12

# Correlation entries per Batch OMP block.  omp_estimate runs its greedy loop
# over blocks of _OMP_BLOCK // K rows (48 paper rows at K = 1024 atoms, 192
# desk rows at K = 256), so that a step's correlations and its Q and R
# gathers stay in cache.  One 2 000-row paper call holding every row at once
# peaked at 224 MB of heap and ran slower per row than the same rows in
# 96-row calls.
_OMP_BLOCK = 49_152


@dataclass
class AngularDictionary:
    """Steering-vector dictionary on a spatial-frequency grid.

    ``full_atoms`` holds unit-norm length-N steering columns; ``atoms`` is
    the same dictionary seen through the switch schedule (rows ordered
    slot-major like observations).  Atoms 0..K//2 are the head; every later
    atom k must be the complex conjugate of head atom K - k, as
    :func:`build_dictionary` makes it (a ValueError otherwise).  Derived
    once: ``atom_norms``, the observed atoms' norms, and ``head_block``, the
    observed head atoms as a contiguous real (m, 2 * head) matrix, each
    atom's real and imaginary parts in adjacent columns.
    """

    grid_angles: np.ndarray
    atoms: np.ndarray
    full_atoms: np.ndarray
    atom_norms: np.ndarray = field(init=False, repr=False)
    head_block: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n_atoms = self.atoms.shape[1]
        head, partners = _head_size(n_atoms), _mirror_partners(n_atoms)
        real, imag = self.atoms.real, self.atoms.imag
        if not (
            np.array_equal(real[:, head:], real[:, partners])
            and np.array_equal(imag[:, head:], -imag[:, partners])
        ):
            raise ValueError(
                f"atoms {head}..{n_atoms - 1} must be the conjugates of atoms "
                f"{n_atoms - head}..1 (atom k mirrors atom {n_atoms} - k)"
            )
        # A conjugate has its partner's norm, bit for bit.
        head_norms = _row_norm(self.atoms[:, :head].T)
        self.atom_norms = np.concatenate([head_norms, head_norms[partners]])
        self.head_block = np.ascontiguousarray(self.atoms[:, :head]).view(float)


def _head_size(n_atoms: int) -> int:
    return n_atoms // 2 + 1


def _mirror_partners(n_atoms: int) -> slice:
    """The head atoms K - k of the atoms k = K//2 + 1 .. K - 1, in that
    order: head atoms K - K//2 - 1 down to 1."""
    return slice(n_atoms - _head_size(n_atoms), 0, -1)


def build_dictionary(
    geometry: ArrayGeometry, sched: SwitchSchedule, num_atoms: int
) -> AngularDictionary:
    """Grid uniform in cos(theta) over [-1, 1) with ``num_atoms`` points.

    Steering vectors are Fourier-like in cos(theta), so this grid keeps
    mutual coherence uniform across atoms.  The grid is exactly
    antisymmetric, cos_grid[K - k] = -cos_grid[k] (for a power-of-two K the
    formula -1 + 2k/K already is; otherwise a mirrored point may move by one
    ulp), so atom K - k is the conjugate of atom k: only the head atoms
    0..K//2 are evaluated.
    """
    if num_atoms < 1:
        raise ValueError(f"num_atoms must be >= 1, got {num_atoms}")
    if sched.num_ports != geometry.num_ports:
        raise ValueError(
            f"schedule covers {sched.num_ports} ports, geometry has "
            f"{geometry.num_ports}"
        )
    head, partners = _head_size(num_atoms), _mirror_partners(num_atoms)
    cos_grid = -1.0 + 2.0 * np.arange(num_atoms) / num_atoms
    cos_grid[head:] = -cos_grid[partners]
    angles = np.arccos(cos_grid)
    # Stored atom by atom, so that gathering full atoms (OMP's estimate)
    # reads contiguous rows; full_atoms is a transposed view.  The observed
    # atoms, gathered from its columns, are a C-contiguous (m, K) array.
    by_atom = np.empty((num_atoms, geometry.num_ports), dtype=complex)
    by_atom[:head] = steering_matrix(geometry, cos_grid[:head]).T
    mirrored = by_atom[head:]
    mirrored.real = by_atom.real[partners]
    # 0 - x rather than -x: port 0's imaginary part is +0.0 in every atom
    # steering_matrix gives, and stays +0.0 here.
    np.subtract(0.0, by_atom.imag[partners], out=mirrored.imag)
    atoms = by_atom[:, sched.flat_indices()].T
    return AngularDictionary(angles, atoms, by_atom.T)


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
    # Neither estimator writes its input, so a complex one is not copied.
    return np.atleast_2d(y).astype(complex, copy=False), y.ndim == 1


def _leading(buffer: np.ndarray, shape) -> np.ndarray:
    """The leading entries of a flat ``buffer`` as a C-contiguous array of
    ``shape``, with the strides a new array of that shape gets."""
    return buffer[: math.prod(shape)].reshape(shape)


class _OmpWorkspace:
    """The arrays that :func:`_omp_rows` works in, for blocks of up to
    ``rows`` rows.

    The thread that calls :func:`omp_estimate` allocates one per block in
    flight; a block's greedy steps then reuse them through ``out=``, so a
    block run on a helper thread allocates nothing large.  A step writes
    its products into leading entries, views shaped and strided like the
    new arrays they stand for, so numpy takes the same kernels and gives
    the same bits.  The flat buffers each hold arrays that are never alive
    together (see :func:`_leading`).
    """

    def __init__(self, rows: int, dictionary: AngularDictionary, sparsity: int):
        m, n_atoms = dictionary.atoms.shape
        n_ports = dictionary.full_atoms.shape[0]
        self.residual = np.empty((rows, m), dtype=complex)
        self.q = np.empty((rows, sparsity, m), dtype=complex)
        self.r = np.empty((rows, sparsity, sparsity), dtype=complex)
        self.excluded = np.empty((rows, n_atoms), dtype=bool)
        self.flags = np.empty((rows, n_atoms), dtype=bool)
        # The active residuals, then the atom column being orthogonalized,
        # then the rows being deflated; and the new basis vectors.
        self.w = np.empty((rows, m), dtype=complex)
        self.new_q = np.empty((rows, m), dtype=complex)
        # [Re; Im] of the active residuals.
        self.stacked = np.empty(2 * rows * m)
        # The correlation GEMM's output, then the correlations' moduli.
        self.products = np.empty(rows * max(4 * _head_size(n_atoms), n_atoms))
        # The complex correlations, then the basis rows gathered from q,
        # then the full atoms of the estimate.
        self.gathered = np.empty(rows * max(n_atoms, sparsity * max(m, n_ports)), dtype=complex)
        # _row_dot's conjugated operand, and the products subtracted from w
        # and from the residual.
        self.vectors = np.empty(rows * m, dtype=complex)


def _row_dot(a: np.ndarray, b: np.ndarray, scratch=None) -> np.ndarray:
    """Per-row conj(a) . b over the last axis, one BLAS dot product per row;
    each row's value does not depend on how many rows share the call.

    Computed as conj(conj(b) . a), so that only ``b`` (the smaller operand
    where they differ) is copied, into the leading entries of the flat
    complex ``scratch`` when it is given; the bits are those of
    conj(a) . b."""
    b_conj = np.conjugate(b, out=None if scratch is None else _leading(scratch, b.shape))
    return np.matmul(b_conj[..., None, :], a[..., :, None])[..., 0, 0].conj()


def _row_norm(a: np.ndarray, scratch=None) -> np.ndarray:
    return np.sqrt(_row_dot(a, a, scratch).real)


def _correlations(
    dictionary: AngularDictionary, residual: np.ndarray, ws: _OmpWorkspace
) -> np.ndarray:
    """|r^H a| for every row r of a complex (rows, m) residual matrix and
    every atom a, from one real GEMM over the head atoms, in the buffers of
    the workspace ``ws`` (the result is a view of one).

    ``[Re r; Im r] @ head_block`` is the complex pair P = Re(r) A_H and
    Q = Im(r) A_H over the head atoms A_H.  A head atom a gives
    r^H a = P - jQ; a mirrored atom conj(a) gives r^H conj(a) = conj(P + jQ),
    whose modulus is that of P + jQ.
    """
    (rows, m), n_atoms = residual.shape, dictionary.atoms.shape[1]
    head, partners = _head_size(n_atoms), _mirror_partners(n_atoms)
    stacked = np.concatenate(
        [residual.real, residual.imag], out=_leading(ws.stacked, (2 * rows, m))
    )
    pq = np.matmul(
        stacked, dictionary.head_block, out=_leading(ws.products, (2 * rows, 2 * head))
    ).view(complex)
    p, jq = pq[:rows], pq[rows:]
    jq *= 1j
    corr = _leading(ws.gathered, (rows, n_atoms))
    np.subtract(p, jq, out=corr[:, :head])
    np.add(p[:, partners], jq[:, partners], out=corr[:, head:])
    # Over the GEMM's output, which the complex correlations replaced.
    return np.abs(corr, out=_leading(ws.products, (rows, n_atoms)))


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
    rows run the greedy loop together in blocks of ``_OMP_BLOCK // K`` rows
    (Batch OMP: one real correlation GEMM per step for every unfinished row
    of a block, see :func:`_correlations`), each with its own support and QR
    factors.  Returns the length-N estimate (``(rows, N)`` for a row matrix),
    or (estimate, OmpTrace) with ``with_trace``.

    On a thread that holds a :func:`~faslab.dataset_pipeline.task_lane`, the
    blocks after the first go to the front of its queue, where its helper
    takes them, while this thread runs the first and then those still
    queued.  Each block works in one of the :class:`_OmpWorkspace` objects
    this thread allocates, one per block in flight.  Elsewhere the blocks
    run here, in order.  Either way every bit of the result is the same,
    and the drop warnings are issued on this thread, block by block in row
    order, once the blocks have run; an exception raised in a block is
    raised here after the other blocks have run.
    """
    m, n_atoms = dictionary.atoms.shape
    y, single = _as_rows(obs, m, "dictionary rows")
    if sparsity < 0 or sparsity > n_atoms or sparsity > m:
        raise ValueError(
            f"sparsity {sparsity} must lie in [0, min(num_atoms={n_atoms}, "
            f"observations={m})]"
        )

    rows = y.shape[0]
    block = max(1, _OMP_BLOCK // n_atoms)
    # Each block writes its rows of these.  The estimate is (rows, 1, N), the
    # shape of the product that forms it.
    estimate = np.empty((rows, 1, dictionary.full_atoms.shape[0]), dtype=complex)
    support = np.zeros((rows, sparsity), dtype=int)
    count = np.zeros(rows, dtype=int)
    residual_norms = np.zeros((rows, sparsity + 1))
    lane = _held_lane() or _TaskLane()
    # An empty row matrix runs one empty block.
    starts = range(0, max(rows, 1), block)
    spare = queue.SimpleQueue()
    for _ in range(min(len(starts), lane.runners)):
        spare.put(_OmpWorkspace(min(block, rows), dictionary, sparsity))
    # A finished block hands its workspace on only while a block is still
    # to start, so that no workspace outlives its use beside what its thread
    # runs next (in the sweep, the next test set's blocks).
    unstarted = [len(starts)]
    handing = threading.Lock()

    def run(lo):
        with handing:
            unstarted[0] -= 1
        ws = spare.get()
        try:
            rows_out = (a[lo : lo + block] for a in (estimate, support, count, residual_norms))
            return _omp_rows(y[lo : lo + block], dictionary, sparsity, ws, *rows_out)
        finally:
            with handing:
                if unstarted[0]:
                    spare.put(ws)

    later = lane.submit((functools.partial(run, lo) for lo in starts[1:]), front=True)
    try:
        first = run(starts[0])
    finally:
        rest = lane.wait(later)
    for dropped in [first, *rest]:
        for atom in dropped:
            warnings.warn(
                f"dropping atom {atom}: support system would be rank-deficient",
                stacklevel=2,
            )
    estimate = estimate[:, 0]
    if not with_trace:
        return estimate[0] if single else estimate
    supports = [s[:c].tolist() for s, c in zip(support, count)]
    norms = [n[: c + 1].tolist() for n, c in zip(residual_norms, count)]
    if single:
        return estimate[0], OmpTrace(supports[0], norms[0])
    return estimate, OmpTrace(supports, norms)


def _omp_rows(
    y: np.ndarray,
    dictionary: AngularDictionary,
    sparsity: int,
    ws: _OmpWorkspace,
    estimate: np.ndarray,
    support: np.ndarray,
    count: np.ndarray,
    residual_norms: np.ndarray,
) -> list[int]:
    """The greedy loop of :func:`omp_estimate` over one block of rows, in
    the workspace ``ws``.

    Writes the (rows, 1, N) estimate and each row's support (rows,
    sparsity), accepted-atom count and residual norms (rows, sparsity + 1)
    into the given arrays, which hold zeros but for the estimate; entries
    past a row's count stay 0.  Returns the atoms dropped as
    rank-deficient, in the order they were tried, for the caller to warn
    about."""
    rows, m = y.shape
    atom_norms = dictionary.atom_norms
    safe_norms = np.where(atom_norms > 0, atom_norms, 1.0)
    residual = ws.residual[:rows]
    np.copyto(residual, y)
    # Unused Q slots and R columns stay zero, so rows with different support
    # sizes run the same arithmetic.
    q = ws.q[:rows]
    q.fill(0.0)
    r = ws.r[:rows]
    r.fill(0.0)
    excluded = ws.excluded[:rows]
    np.copyto(excluded, atom_norms == 0)
    residual_norms[:, 0] = _row_norm(residual, ws.vectors)
    active = np.flatnonzero(count < sparsity)
    dropped_atoms = []

    while active.size:
        # The indices are in range; mode="clip" lets take write `out`
        # directly instead of through a temporary.
        rows_now = active.size
        corr = _correlations(
            dictionary, np.take(residual, active, axis=0, out=ws.w[:rows_now], mode="clip"), ws
        )
        corr /= safe_norms
        flags = ws.flags[:rows_now]
        np.copyto(corr, -1.0, where=np.take(excluded, active, axis=0, out=flags, mode="clip"))
        peak = corr.max(axis=1)
        tied = np.greater_equal(corr, (peak * (1.0 - TIE_TOL))[:, None], out=flags)
        best = np.argmax(tied, axis=1)
        # An exactly-zero correlation on a nonzero residual is rounding (it
        # comes and goes with the BLAS kernel), not a stop signal.
        live = (peak >= 0.0) & (residual_norms[active, count[active]] > 0.0)
        active, best = active[live], best[live]
        excluded[active, best] = True

        # Orthogonalize each new column against its row's basis (two
        # Gram-Schmidt passes for numerical robustness).  Every row uses all
        # ``sparsity`` slots, so a row's products have the same shapes (and
        # bits) whichever rows share the call.
        rows_now = active.size
        basis = np.take(
            q, active, axis=0, out=_leading(ws.gathered, (rows_now, sparsity, m)),
            mode="clip",
        )
        # Gathered from the atoms' (m, K) layout, where take copies no more
        # than the chosen columns, then laid out row by row.
        columns = np.take(
            dictionary.atoms, best, axis=1, out=_leading(ws.vectors, (m, rows_now)), mode="clip"
        )
        w = ws.w[:rows_now]
        np.copyto(w, columns.T)
        head = np.zeros((rows_now, sparsity), dtype=complex)
        for _ in range(2):
            proj = _row_dot(basis, w[:, None, :], ws.vectors)
            head += proj
            w -= np.matmul(
                proj[:, None, :], basis, out=_leading(ws.vectors, (rows_now, 1, m))
            )[:, 0]
        w_norm = _row_norm(w, ws.vectors)
        dropped = w_norm <= RANK_TOL * atom_norms[best]
        dropped_atoms += best[dropped].tolist()
        keep = ~dropped
        grow, best, slot = active[keep], best[keep], count[active[keep]]
        new_q = np.compress(keep, w, axis=0, out=ws.new_q[: grow.size])
        new_q /= w_norm[keep, None]
        head = head[keep]
        head[np.arange(grow.size), slot] = w_norm[keep]
        q[grow, slot] = new_q
        r[grow, :, slot] = head
        support[grow, slot] = best
        count[grow] += 1
        deflated = np.take(residual, grow, axis=0, out=ws.w[: grow.size], mode="clip")
        deflated -= np.multiply(
            _row_dot(new_q, deflated, ws.vectors)[:, None], new_q,
            out=_leading(ws.vectors, deflated.shape),
        )
        residual[grow] = deflated
        residual_norms[grow, count[grow]] = _row_norm(deflated, ws.vectors)
        active = active[count[active] < sparsity]

    # Back-substitute R c = Q^H y; unused slots get identity rows of R and a
    # zero right-hand side, so their coefficients are zero.
    unused = np.arange(sparsity) >= count[:, None]
    r[:, np.arange(sparsity), np.arange(sparsity)] += unused
    rhs = _row_dot(q, y[:, None, :], ws.vectors)
    coeffs = np.zeros((rows, sparsity), dtype=complex)
    for j in reversed(range(sparsity)):
        tail = (r[:, j, j + 1:] * coeffs[:, j + 1:]).sum(axis=-1)
        coeffs[:, j] = (rhs[:, j] - tail) / r[:, j, j]
    atoms = np.take(
        dictionary.full_atoms.T, support, axis=0,
        out=_leading(ws.gathered, (*support.shape, estimate.shape[2])), mode="clip",
    )
    np.matmul(coeffs[:, None, :], atoms, out=estimate)
    estimate[count == 0] = 0.0
    return dropped_atoms


def ls_observed_estimate(obs, sched: SwitchSchedule, sigma2: float) -> np.ndarray:
    """Observed ports get their (revisit-averaged) samples scaled by the
    scalar shrinkage 1/(1 + sigma2) against unit per-port prior power;
    unobserved ports fall back to the zero prior mean.

    ``obs`` is one observation ``(m,)`` or a row matrix ``(rows, m)``."""
    flat = sched.flat_indices()
    y, single = _as_rows(obs, flat.size, "schedule samples")
    if not 0 <= sigma2 < np.inf:
        raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2}")
    sums = np.zeros((y.shape[0], sched.num_ports), dtype=complex)
    counts = np.zeros(sched.num_ports)
    np.add.at(sums, (slice(None), flat), y)
    np.add.at(counts, flat, 1.0)
    estimate = np.zeros_like(sums)
    seen = counts > 0
    estimate[:, seen] = (sums[:, seen] / counts[seen]) / (1.0 + sigma2)
    return estimate[0] if single else estimate
