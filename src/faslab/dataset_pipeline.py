"""Supervised (pilot, channel) pair generation, packing, normalization, storage.

Datasets hold raw (unnormalized) rows as 32-bit floats; normalization
statistics are fitted at training time so a stored dataset stays
normalization-agnostic.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import hashlib
import itertools
import operator
import os
import queue
import struct
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .channel_model import RayDraws, channel_from_rays
from .channel_model import draw_channel  # unused here; faslab_bench/spans.py traces it
from .config import ExperimentConfig, dataset_fingerprint, validation_rows
from .errors import ChecksumError, FileFormatError
from .pilot_system import SwitchSchedule, add_noise, noise_variance_for_snr
from .pilot_system import observe  # unused here; faslab_bench/spans.py traces it

MAGIC = b"FASD"
VERSION = 1
STD_EPSILON = 1e-8  # guard for zero-variance feature dimensions
# Columns per float64 block in fit_normalizer: 24 MB at 47 500 paper
# training rows, where the widened feature matrix and std's centred copy of
# it took 195 MB each.
_FIT_COLUMNS = 64

# magic, version, num_ports, num_antennas, num_slots, n_samples,
# feature_width, target_width
_HEADER = struct.Struct("<4sHIIIQII")
# The header, the 32-byte config fingerprint and the 32-byte payload SHA-256.
_PAYLOAD_OFFSET = _HEADER.size + 64
# Payload bytes per read in load_dataset and load_split.
_LOAD_CHUNK = 1 << 20

# Scalar SNR keys occupy [0, 2**32); sentinels for the mixed mode and the
# noiseless/zero-signal infinities sit above that range.
_MIXED_STREAM_KEY = 2**32
_POS_INF_KEY = 2**32 + 1
_NEG_INF_KEY = 2**32 + 2

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), for
# seeding per-sample streams without building a SeedSequence per row.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# Steering entries per synthesis block.  A block holds
# max(16, _SYNTH_BLOCK // (N * K)) rows: 16 desk rows (N*K = 1 280) and, by
# the floor, 16 paper rows (5 120), where the budget alone gives 4.  Its
# (rows, N, K) complex steering tensor takes 320 KB at desk shape and
# 1.3 MB at paper shape; a 2 000-row batch ran slower than one row at a
# time because of its large temporaries.  The floor spreads a
# block's fixed cost (its buffers, some 35 small numpy calls, a pooled
# future's hand-off) over more rows: paper generation alone ran 24% faster
# on two threads and 10% on one.
_SYNTH_BLOCK = 20_480
# CPUs that draw_samples uses at most: one per CPU the process may use, up
# to this cap, as the calling thread and one helper thread per CPU beyond
# the first.  A block's synthesis is mostly numpy's sin and cos, which
# release the GIL; opening and drawing a row's streams holds it (6 of ~50 us
# per desk row), so only the calling thread draws.  Helpers that drew their
# own blocks took generation on two CPUs to only 1.1x the rows per second of
# one thread at desk shape and 1.6-1.8x at paper shape: each thread's draws
# waited for the GIL behind the other's synthesis.  With the calling thread
# drawing, the same in-process timings read 1.5-1.9x (desk) and 1.9-2.0x
# (paper) on two vCPUs.
_SYNTH_WORKERS = 4
# Blocks per run that draw_samples' calling thread draws before it queues
# their synthesis; two runs at most are in flight.  8 desk blocks draw in
# about 0.8 ms and take about 7 ms to synthesize on one thread.
_DRAW_RUN = 8


def pack_complex(v: np.ndarray) -> np.ndarray:
    """[Re(v); Im(v)] along the last axis — all real parts first, then all
    imaginary parts; a row matrix packs row by row."""
    v = np.asarray(v)
    return np.concatenate([np.real(v), np.imag(v)], axis=-1).astype(float, copy=False)


def unpack_complex(r: np.ndarray, out=None) -> np.ndarray:
    """Exact inverse of :func:`pack_complex` along the last axis (one vector
    or a row matrix), in complex128, written into ``out`` when it is given;
    rejects an odd width.  A float32 ``r`` is widened as it is read."""
    r = np.asarray(r)
    if r.ndim == 0 or r.shape[-1] % 2:
        raise ValueError(f"length must be even along the last axis, got shape {r.shape}")
    k = r.shape[-1] // 2
    # re + 1j * im in the complex128 arithmetic of the float64 expression.
    h = np.multiply(1j, r[..., k:], out=out, dtype=complex)
    return np.add(r[..., :k], h, out=h, dtype=complex)


@dataclass
class Dataset:
    """Row-aligned packed observations (features) and channels (targets).

    Feature width is 2*P*M, target width 2*N.  The schedule dimensions ride
    along so files are self-describing.
    """

    features: np.ndarray
    targets: np.ndarray
    config_fingerprint: bytes
    num_ports: int
    num_antennas: int
    num_slots: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float32)
        self.targets = np.asarray(self.targets, dtype=np.float32)
        if self.features.ndim != 2 or self.targets.ndim != 2:
            raise ValueError("features and targets must be 2-D matrices")
        if self.features.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"row mismatch: {self.features.shape[0]} features vs "
                f"{self.targets.shape[0]} targets"
            )
        if len(self.config_fingerprint) != 32:
            raise ValueError("config_fingerprint must be 32 bytes")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]


def _seed_words(value, name: str) -> list[int]:
    """The 32-bit little-endian words of a non-negative integer, as
    ``np.random.SeedSequence`` splits its entropy (0 is one word)."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash32(value, const: int, mult: int):
    """numpy's SeedSequence hash step with the constant ``const * mult``.

    ``value`` is an int below 2**32 or a uint32 array; every product is
    masked, so an int stays below 2**32 and meets arrays as a uint32."""
    value = ((value ^ const) * (const * mult & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def _stream_states(master_seed: int, snr_key: int, index) -> np.ndarray:
    """The PCG64 seed words of the streams ``(master_seed, snr_key, index)``.

    That is ``np.random.SeedSequence((master_seed, snr_key, i))
    .generate_state(4, np.uint64)``, computed by numpy's documented
    SeedSequence algorithm (a pool of 4 uint32 words, ``hashmix`` and
    ``mix``): for one int index below 2**32 the result has shape (4,), and
    for a uint32 index array it has shape (*index.shape, 4), all rows in one
    vectorized pass.  The entropy words are those of the seed, then of the
    key, then the index.
    """
    entropy = _seed_words(master_seed, "master_seed") + _seed_words(snr_key, "snr_key")
    entropy.append(index)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = _hash32(value, const, _MULT_A)
        const = const * _MULT_A & _MASK32
        return value

    def mix(x, y):
        result = (x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state: 8 uint32 words cycling over the pool, paired into
    # little-endian uint64 words.
    halves, const = [], _INIT_B
    for i in range(8):
        halves.append(np.asarray(_hash32(pool[i % _POOL_SIZE], const, _MULT_B), np.uint64))
        const = const * _MULT_B & _MASK32
    return np.stack([lo | (hi << 32) for lo, hi in zip(halves[::2], halves[1::2])], axis=-1)


class _StreamSeed(ISeedSequence):
    """Hands PCG64 seed words computed ahead by :func:`_stream_states`, in
    place of the SeedSequence that would compute the same words."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self.state.size or np.dtype(dtype) != self.state.dtype:
            raise ValueError(f"holds {self.state.size} {self.state.dtype} words only")
        return self.state


def _stream(state: np.ndarray) -> np.random.Generator:
    """The PCG64 stream seeded with one row of :func:`_stream_states`."""
    return np.random.Generator(np.random.PCG64(_StreamSeed(state)))


def sample_stream(master_seed: int, snr_key: int, index: int) -> np.random.Generator:
    """Counter-derived per-sample stream.

    Keyed on (master seed, SNR tag, sample index) so generation order and
    worker count cannot change the output.  It is, by definition, the
    stream of ``np.random.default_rng((master_seed, snr_key, index))``:
    the same PCG64 state, seeded through :func:`_stream_states` as
    :func:`draw_samples` seeds its rows.  A negative seed or key raises
    ``ValueError``, and so does an index outside [0, 2**32).
    """
    index = operator.index(index)
    if not 0 <= index < 2**32:
        raise ValueError(f"sample index must lie in [0, 2**32), got {index}")
    return _stream(_stream_states(master_seed, snr_key, index))


def snr_stream_key(snr_db) -> int:
    """Non-negative integer tag entering per-sample stream derivation.

    Scalar SNRs quantize to milli-dB wrapped into the uint32 range (seed
    entropy must be non-negative).
    """
    if isinstance(snr_db, (list, tuple)):
        return _MIXED_STREAM_KEY
    value = float(snr_db)
    if np.isinf(value):
        return _POS_INF_KEY if value > 0 else _NEG_INF_KEY
    return int(round(value * 1000.0)) & 0xFFFFFFFF


def _synth_workers() -> int:
    """Threads for :func:`draw_samples`: the CPUs in this process's affinity
    mask, capped at ``_SYNTH_WORKERS``, and 1 off the main thread, where a
    caller may run threads of its own.  Every helper thread in faslab, a
    :class:`_TaskLane`'s, runs only where this is 2 or more."""
    if threading.current_thread() is not threading.main_thread():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _SYNTH_WORKERS)


class _TaskLane:
    """One ordered queue of tasks and one helper thread per name of
    ``helpers`` that runs them from the front; faslab starts threads nowhere
    else (generation, the sweep and training each run a lane).

    The calling thread runs them too, from the front, while it waits for
    some (:meth:`wait`), once a helper has taken a task (so that a lane with
    helpers uses one even where the calling thread holds the only CPU free);
    without a helper it runs them all, in queue order.  Tasks do numpy work
    that releases the GIL, into arrays that the calling thread allocated
    and keeps; that thread opens every random stream and runs faslab's
    public functions.  Each task's outcome is a
    :class:`~concurrent.futures.Future`.  :meth:`close` drops the tasks not
    started and joins the helpers after the ones they run.
    """

    def __init__(self, helpers=()):
        self.runners = 1 + len(helpers)
        self._tasks = deque()
        self._changed = threading.Condition()
        self._taken = not helpers  # whether a helper has taken a task
        # True per task queued, a task of both() to run at once, or None per
        # helper at close: helpers sleep here, not in the condition, so that
        # a hand-off's wake-up and the helper's way back to sleep stay short.
        self._wakes = queue.SimpleQueue()
        # Daemons, so that a lane left open cannot hold the interpreter at
        # exit; its owner closes it whatever happens.
        self._threads = [
            threading.Thread(target=self._serve, name=name, daemon=True) for name in helpers
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, fns, front: bool = False) -> list[Future]:
        """Queue a task per callable of ``fns``, in order, behind the queued
        ones or, with ``front``, ahead of them; returns their futures.  Only
        the thread that waits for them submits."""
        tasks = [(fn, Future()) for fn in fns]
        # A deque's appends and pops are thread-safe, so it needs no lock.
        if front:
            self._tasks.extendleft(reversed(tasks))
        else:
            self._tasks.extend(tasks)
        if self._threads:
            for _ in tasks:
                self._wakes.put(True)
        return [future for _, future in tasks]

    def wait(self, futures) -> list:
        """The results of the tasks of ``futures``, in order, once all have
        run, running the queued tasks from the front in the meantime, once a
        helper has taken one; the first of their exceptions is raised."""
        for future in futures:
            while True:
                with self._changed:
                    while not (future.done() or self._tasks and self._taken):
                        self._changed.wait()
                if future.done():
                    break
                try:
                    ready = self._tasks.popleft()
                except IndexError:  # a helper took the last one
                    continue
                self._run(*ready)
        return [future.result() for future in futures]

    def close(self) -> None:
        self._tasks.clear()
        for _ in self._threads:
            self._wakes.put(None)
        for thread in self._threads:
            thread.join()

    def _run(self, fn, future: Future) -> None:
        try:
            future.set_result(fn())
        except BaseException as exc:  # raised again by result(), on the calling thread
            future.set_exception(exc)
        with self._changed:
            self._changed.notify_all()

    def _serve(self) -> None:
        for wake in iter(self._wakes.get, None):
            if wake is not True:  # a task of both(), which signals its own end
                wake()
                continue
            try:
                ready = self._tasks.popleft()
            except IndexError:  # the calling thread ran its task, or close dropped it
                continue
            if not self._taken:
                with self._changed:
                    self._taken = True
                    self._changed.notify_all()
            self._run(*ready)


def both(lane: _TaskLane, here, there) -> None:
    """``here()`` on the calling thread while a helper of ``lane`` (it needs
    one) runs ``there()``; returns once both are done, and raises again an
    exception of ``there()``'s.  The task carries no future, and this
    thread waits on a lock the task releases: training hands off four times
    a step, and a future or :meth:`_TaskLane.wait` cost desk training speed.
    """
    done = threading.Lock()
    done.acquire()
    errors = []

    def task():
        try:
            there()
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)
        finally:
            done.release()

    # Straight to a helper: a future, or the queue's bookkeeping, would hold
    # the interpreter lock just as this thread wakes.
    lane._wakes.put(task)
    try:
        here()
    finally:
        # The helper writes into the caller's arrays: wait for it whatever
        # happened here.
        done.acquire()
    if errors:
        raise errors[0]


# The lane each thread holds inside a task_lane() block.  Thread-local, so a
# helper thread never sees one: omp_estimate(), whose signature is fixed,
# finds the sweep's lane here.
_holder = threading.local()


def _held_lane() -> _TaskLane | None:
    """The :class:`_TaskLane` the calling thread holds, or None."""
    return getattr(_holder, "lane", None)


@contextlib.contextmanager
def task_lane():
    """A :class:`_TaskLane` that the calling thread holds inside the block
    (see :func:`_held_lane`): with a helper thread where
    :func:`_synth_workers` finds two CPUs or more, and none otherwise.  It is
    closed on exit, however the block ends, so its helper never outlives
    the block."""
    lane = _TaskLane(["faslab-sweep"] if _synth_workers() > 1 else [])
    outer = _held_lane()
    _holder.lane = lane
    try:
        yield lane
    finally:
        _holder.lane = outer
        lane.close()


def _sample_blocks(
    cfg: ExperimentConfig, schedule: SwitchSchedule, snr_db, master_seed: int, n: int
):
    """``(draw, finish, rows)`` for the ``n`` samples of :func:`draw_samples`,
    in blocks of ``rows``.

    ``draw(lo, count)`` opens the streams of samples ``lo`` .. ``lo + count
    - 1`` and returns their draws: SNR picks, rays and noise normals.
    ``finish(drawn, h, y)`` synthesizes those samples from their draws into
    the caller's complex arrays ``h`` (count, num_ports) and ``y`` (count,
    P*M).  ``draw`` holds the GIL for most of its time (a stream and three
    fills a row, 6 of ~50 us per desk row); ``finish`` spends most of its in
    numpy's sin and cos, which release it.  A block's result does not depend
    on the thread that runs either half."""
    if n > 2**32:
        raise ValueError(f"sample indices must lie in [0, 2**32), got {n} samples")
    geometry = cfg.geometry()
    scattering = cfg.scattering()
    flat = schedule.flat_indices()
    mixed = isinstance(snr_db, (list, tuple))
    variances = [noise_variance_for_snr(float(s)) for s in (snr_db if mixed else [snr_db])]
    states = _stream_states(master_seed, snr_stream_key(snr_db), np.arange(n, dtype=np.uint32))

    def draw(lo: int, count: int):
        rays = RayDraws.empty(scattering, (count,))
        # Zeroed so that the rows of a noiseless sample hold finite values.
        normals = np.zeros((count, 2, flat.size))
        sigma2 = np.empty(count)
        for j in range(count):
            rng = _stream(states[lo + j])
            sigma2[j] = variances[rng.integers(len(variances))] if mixed else variances[0]
            rays.draw(rng, j)
            if sigma2[j] > 0:
                rng.standard_normal(out=normals[j])
        return rays, normals, sigma2

    def finish(drawn, h: np.ndarray, y: np.ndarray) -> None:
        rays, normals, sigma2 = drawn
        h[...] = channel_from_rays(rays.angles(), rays.gains(), geometry)
        np.take(h, flat, axis=1, out=y, mode="clip")
        add_noise(y, normals, sigma2)

    return draw, finish, max(16, _SYNTH_BLOCK // (cfg.num_ports * scattering.num_rays))


def draw_samples(
    cfg: ExperimentConfig, schedule: SwitchSchedule, snr_db, master_seed: int, n: int
):
    """Yield ``n`` rows as blocks ``(lo, h, y)`` in row order: channels
    ``h`` (rows, num_ports) and their complex slot-major pilot samples
    ``y`` (rows, P*M) under ``schedule`` (the caller builds it once, with
    ``cfg.build_schedule()``), row 0 of the block being sample ``lo``.

    Sample i is drawn from its own stream (master_seed, SNR key, i), the
    :func:`sample_stream` stream, whose seed words are computed for all
    ``n`` rows in one pass; a block's channels and noise are then
    synthesized together, byte for byte as :func:`draw_channel` then
    :func:`observe` on that stream would give them.  ``snr_db`` is a single
    SNR in dB, or a sequence of SNRs for the mixed mode, where each sample
    draws its SNR uniformly from the list (that choice comes first in the
    per-sample stream, then the channel, then the noise; a noise variance of
    0 draws no noise).

    The calling thread draws every block (see :func:`_sample_blocks`), in
    runs of ``_DRAW_RUN`` blocks, into arrays it allocates, and queues their
    synthesis on a :class:`_TaskLane`.  It draws the next run while the
    lane's helpers (``faslab-synth_0``, ...) synthesize the current one,
    then synthesizes from the same queue until that run is done, and yields
    it; so two runs at most are in flight, whatever ``n``.  The lane has one
    helper per CPU of :func:`_synth_workers` beyond the first, each CPU
    taking two blocks or more: with one CPU, off the main thread, or with
    fewer than four blocks, the calling thread synthesizes every block
    itself.  A helper never opens a stream: helpers that drew their own
    blocks waited for the GIL behind each other's per-row draws.  An
    exception raised by a draw or a synthesis reaches the consumer, and
    leaving the generator joins the helpers.  Block boundaries and
    arithmetic do not depend on the thread count, so neither does any byte.
    """
    draw, finish, rows = _sample_blocks(cfg, schedule, snr_db, master_seed, n)
    starts = range(0, n, rows)
    # A helper pays for its start from two blocks a CPU on: two blocks ran
    # 7% (paper) to 17% (desk) slower on two threads than in one.
    workers = min(_synth_workers(), len(starts) // 2)
    lane = _TaskLane([f"faslab-synth_{i}" for i in range(workers - 1)])

    def queue(run):
        blocks, tasks = [], []
        for lo in run:
            count = min(rows, n - lo)
            h = np.empty((count, cfg.num_ports), dtype=complex)
            y = np.empty((count, schedule.num_samples), dtype=complex)
            blocks.append((lo, h, y))
            tasks.append(functools.partial(finish, draw(lo, count), h, y))
        return blocks, lane.submit(tasks)

    def finished(blocks, futures):
        lane.wait(futures)
        return blocks

    queued = deque()
    with contextlib.closing(lane):
        for i in range(0, len(starts), _DRAW_RUN):
            queued.append(queue(starts[i : i + _DRAW_RUN]))
            if len(queued) == 2:
                yield from finished(*queued.popleft())
        while queued:
            yield from finished(*queued.popleft())


def queue_test_sets(lane: _TaskLane, cfg: ExperimentConfig, schedule: SwitchSchedule):
    """An iterator over the sweep's test sets, (channels, pilots) per SNR of
    ``cfg.snr_db_list`` in order: the ``cfg.n_test_samples`` rows of
    :func:`draw_samples` from the test seed's own stream family.

    Sample blocks are queued as :func:`draw_samples` queues them: the
    calling thread draws each block of a set (see :func:`_sample_blocks`)
    and puts only its synthesis on ``lane``, into two arrays that it
    allocates.  The first set is queued at the call and each later one when
    the set before it is handed out, so the lane synthesizes at most one
    set ahead of the caller.  Asking for a set waits for its blocks (see
    :meth:`_TaskLane.wait`); an exception raised by a draw or a synthesis
    is raised then, at its SNR.
    """
    n = cfg.n_test_samples

    def queue(snr):
        draw, finish, rows = _sample_blocks(cfg, schedule, snr, cfg.seeds.test, n)
        h = np.empty((n, cfg.num_ports), dtype=complex)
        y = np.empty((n, schedule.num_samples), dtype=complex)
        futures = []
        for lo in range(0, n, rows):
            try:
                drawn = draw(lo, min(rows, n - lo))
            except Exception as exc:  # raised when the set is asked for, at its SNR
                futures.append(Future())
                futures[-1].set_exception(exc)
                break
            futures += lane.submit(
                [functools.partial(finish, drawn, h[lo : lo + rows], y[lo : lo + rows])]
            )
        return h, y, futures

    snrs = iter(cfg.snr_db_list)
    queued = [queue(snr) for snr in itertools.islice(snrs, 1)]

    def test_sets():
        while queued:
            h, y, futures = queued.pop()
            lane.wait(futures)
            queued.extend(queue(snr) for snr in itertools.islice(snrs, 1))
            yield h, y

    return test_sets()


def generate_dataset(
    cfg: ExperimentConfig, n_samples: int, snr_db, master_seed: int
) -> Dataset:
    """Draw ``n_samples`` independent (observation, channel) rows with
    :func:`draw_samples`.

    Output bytes are fully determined by (cfg, n_samples, snr_db,
    master_seed).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    pm = cfg.num_slots * cfg.num_antennas
    n_ports = cfg.num_ports
    features = np.empty((n_samples, 2 * pm), dtype=np.float32)
    targets = np.empty((n_samples, 2 * n_ports), dtype=np.float32)
    # The pack_complex layout, written in place: no per-block temporaries.
    samples = draw_samples(cfg, cfg.build_schedule(), snr_db, master_seed, n_samples)
    for lo, h, y in samples:
        hi = lo + len(h)
        features[lo:hi, :pm] = y.real
        features[lo:hi, pm:] = y.imag
        targets[lo:hi, :n_ports] = h.real
        targets[lo:hi, n_ports:] = h.imag
    return Dataset(
        features,
        targets,
        dataset_fingerprint(cfg, snr_db),
        cfg.num_ports,
        cfg.num_antennas,
        cfg.num_slots,
    )


def _split_rows(n: int, rho: float, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """The row assignment of a split of ``n`` rows: a permutation whose
    first ``n_val = round(rho * n)`` entries are the validation rows and
    whose rest are the training rows, in order, and ``n_val``."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly between 0 and 1, got {rho}")
    n_val = validation_rows(n, rho)
    if n_val < 1 or n - n_val < 1:
        raise ValueError(
            f"degenerate split: {n} rows at rho={rho} gives {n_val} validation rows"
        )
    return rng.permutation(n), n_val


def split(ds: Dataset, rho: float, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Disjoint (train, validation) row partition with |val| = round(rho * n).

    Rows are permuted first; validation takes the head of the permutation.
    """
    perm, n_val = _split_rows(ds.n_samples, rho, rng)
    # Indexing with an index array copies, so neither part shares the source.
    make = lambda idx: replace(ds, features=ds.features[idx], targets=ds.targets[idx])
    return make(perm[n_val:]), make(perm[:n_val])


@dataclass
class Normalizer:
    """Per-dimension standard-score transform with a zero-variance guard."""

    mean: np.ndarray
    std: np.ndarray
    epsilon: float = STD_EPSILON

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.std = np.asarray(self.std, dtype=float)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be 1-D vectors of equal length")
        if np.any(self.std < 0):
            raise ValueError("std entries must be >= 0")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def width(self) -> int:
        return self.mean.size

    def scale(self) -> np.ndarray:
        return np.maximum(self.std, self.epsilon)


def fit_normalizer(train_matrix: np.ndarray) -> Normalizer:
    """Per-dimension mean and population standard deviation of training rows.

    Fitted in float64 over blocks of about ``_FIT_COLUMNS`` columns, so that
    a float32 matrix is never widened whole.  The statistics are those of
    the whole widened matrix, bit for bit: numpy sums a block of two or
    more columns row by row, as it sums the whole matrix, so no block is
    left one column wide (a single column would be summed pairwise).
    """
    m = np.asarray(train_matrix)
    if m.ndim != 2 or m.shape[0] < 2:
        raise ValueError(
            f"need a 2-D matrix with at least 2 rows, got shape {m.shape}"
        )
    width = m.shape[1]
    mean, std = np.empty(width), np.empty(width)
    lo = 0
    while lo < width:
        hi = lo + _FIT_COLUMNS
        if width - hi < 2:
            hi = width
        block = np.asarray(m[:, lo:hi], dtype=float)
        mean[lo:hi] = block.mean(axis=0)
        std[lo:hi] = block.std(axis=0, ddof=0)
        lo = hi
    return Normalizer(mean, std)


def _check_width(nrm: Normalizer, matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix)
    if m.shape[-1] != nrm.width:
        raise ValueError(
            f"width mismatch: normalizer fitted on {nrm.width} dims, got {m.shape[-1]}"
        )
    return m


def apply_normalizer(nrm: Normalizer, matrix: np.ndarray, out=None) -> np.ndarray:
    """(matrix - mean) / scale, written into ``out`` when it is given (it may
    be ``matrix`` itself) and into a new float64 array otherwise.

    The arithmetic runs in ``out``'s dtype: float64 widens a float32 matrix
    exactly, and a float32 ``out`` takes the statistics rounded to float32.
    """
    dtype = float if out is None else out.dtype
    out = np.subtract(
        _check_width(nrm, matrix), nrm.mean.astype(dtype, copy=False), out=out, dtype=dtype
    )
    out /= nrm.scale().astype(dtype, copy=False)
    return out


def invert_normalizer(nrm: Normalizer, matrix: np.ndarray, out=None) -> np.ndarray:
    """matrix * scale + mean; dtype and ``out`` as in :func:`apply_normalizer`."""
    dtype = float if out is None else out.dtype
    out = np.multiply(
        _check_width(nrm, matrix), nrm.scale().astype(dtype, copy=False), out=out, dtype=dtype
    )
    out += nrm.mean.astype(dtype, copy=False)
    return out


def read_file_aligned(path, data_offset: int) -> memoryview:
    """The bytes of ``path`` in a new writable buffer, placed so that byte
    ``data_offset`` of the file is 8-byte aligned in memory.

    ``np.frombuffer`` float32/float64 views from that offset on are then
    aligned arrays over the buffer, so a loader needs no copies.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = bytearray(size + 8)
        pad = -(np.frombuffer(buf, dtype=np.uint8).ctypes.data + data_offset) % 8
        view = memoryview(buf)[pad : pad + size]
        return view[: fh.readinto(view)]


@contextlib.contextmanager
def staged_artifacts(*paths):
    """Temporary paths next to ``paths``, one each (parent directories
    created), for the block to write.  When the block completes, each is
    renamed onto its path, but none while one of ``paths`` is a directory
    (which fails such a rename), so the files land together or not at all;
    when it raises, they are removed.  An earlier file at a path stays whole
    if the process dies first.  Nothing is synced, so this does not hold on
    power loss.
    """
    paths = [Path(p) for p in paths]
    tmps = []
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmps.append(path.with_name(f"{path.name}.{os.getpid()}.tmp"))
    try:
        yield tmps
        for path in paths:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def write_artifact(path, chunks) -> None:
    """Write the bytes-like chunks to ``path`` through
    :func:`staged_artifacts`: a write cut short leaves any earlier file at
    ``path`` whole."""
    with staged_artifacts(path) as (tmp,), open(tmp, "wb") as fh:
        fh.writelines(chunks)


def _check_widths(path, n_ports, n_ant, n_slots, feat_w, tgt_w) -> None:
    """Raise FileFormatError naming ``path`` and the header field unless the
    widths are those of the dimensions, as :func:`load_dataset` requires."""
    for field, value, expected, rule in (
        ("feature_width", feat_w, 2 * n_slots * n_ant, "2 * num_slots * num_antennas"),
        ("target_width", tgt_w, 2 * n_ports, "2 * num_ports"),
    ):
        if value != expected:
            raise FileFormatError(
                f"{path}: header field {field} is {value}, but {rule} is {expected}"
            )


def save_dataset(ds: Dataset, path) -> None:
    """Bit-exact binary format: fixed header, fingerprint, payload checksum,
    then features and targets as little-endian float32, row-major.  Widths
    that disagree with the dimensions raise FileFormatError (the file could
    not be loaded) and nothing is written."""
    feat = np.ascontiguousarray(ds.features, dtype="<f4")
    tgt = np.ascontiguousarray(ds.targets, dtype="<f4")
    _check_widths(
        path, ds.num_ports, ds.num_antennas, ds.num_slots, feat.shape[1], tgt.shape[1]
    )
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        ds.num_ports,
        ds.num_antennas,
        ds.num_slots,
        ds.n_samples,
        feat.shape[1],
        tgt.shape[1],
    )
    digest = hashlib.sha256(feat)
    digest.update(tgt)
    write_artifact(path, (header, ds.config_fingerprint, digest.digest(), feat, tgt))


def _checksum_error(path) -> ChecksumError:
    return ChecksumError(f"{path}: payload checksum mismatch (corrupt or truncated)")


def _load_rows(path, assign) -> tuple[Dataset, Dataset]:
    """The rows of the FASD file ``path`` as two parts, (kept, held out).

    A short header, a bad magic or version, or widths that disagree with
    the dimensions raise FileFormatError naming ``path``; a file size that
    is not the header's raises ChecksumError.  ``assign(n, fingerprint)``
    then gives ``(perm, n_val)``: file row ``perm[j]`` is row ``j`` of the
    held-out part for ``j < n_val`` and row ``j - n_val`` of the kept part
    otherwise.  ``assign=None`` keeps every row in file order and holds
    none out.  The payload is read in chunks of about ``_LOAD_CHUNK``
    bytes; each enters the SHA-256 and its rows go straight to their
    places.  The checksum is compared after the last chunk: corrupt or
    truncated payloads raise ChecksumError.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_PAYLOAD_OFFSET)
        if len(raw) < _PAYLOAD_OFFSET:
            raise FileFormatError(f"{path}: file too short for a dataset header")
        magic, version, n_ports, n_ant, n_slots, n, feat_w, tgt_w = _HEADER.unpack_from(raw)
        if magic != MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise FileFormatError(f"{path}: unsupported version {version}")
        # The checksum covers only the payload: a header that moves columns
        # between the two widths keeps the payload size and would load silently.
        _check_widths(path, n_ports, n_ant, n_slots, feat_w, tgt_w)
        fingerprint = raw[_HEADER.size : _HEADER.size + 32]
        if os.fstat(fh.fileno()).st_size != _PAYLOAD_OFFSET + 4 * n * (feat_w + tgt_w):
            raise _checksum_error(path)
        if assign is None:
            place, n_val = None, 0
        else:
            perm, n_val = assign(n, fingerprint)
            # File row i is row place[i] of the held-out part when place[i] <
            # n_val, and row place[i] - n_val of the kept part otherwise.
            place = np.empty(n, dtype=np.intp)
            place[perm] = np.arange(n)
        digest = hashlib.sha256()
        parts = []
        for width in (feat_w, tgt_w):
            val = np.empty((n_val, width), np.float32)
            trn = np.empty((n - n_val, width), np.float32)
            # A zero-width matrix reads no bytes; its rows still number n.
            rows = max(1, _LOAD_CHUNK // max(4 * width, 1))
            chunk = np.empty((min(rows, n), width), "<f4")
            for lo in range(0, n, rows):
                block = chunk[: min(rows, n - lo)]
                if fh.readinto(block) != block.nbytes:
                    raise _checksum_error(path)
                digest.update(block)
                if place is None:
                    trn[lo : lo + len(block)] = block
                    continue
                dest = place[lo : lo + len(block)]
                held_out = dest < n_val
                val[dest[held_out]] = block[held_out]
                kept = ~held_out
                trn[dest[kept] - n_val] = block[kept]
            parts.append((trn, val))
    if digest.digest() != raw[_HEADER.size + 32 :]:
        raise _checksum_error(path)
    (trn_x, val_x), (trn_t, val_t) = parts
    make = lambda x, t: Dataset(x, t, fingerprint, n_ports, n_ant, n_slots)
    return make(trn_x, trn_t), make(val_x, val_t)


def load_dataset(path) -> Dataset:
    """Inverse of :func:`save_dataset` with integrity checks.

    The file is read in chunks, as :func:`load_split` reads it, with every
    row kept in file order.  A header whose widths disagree with its
    dimensions raises FileFormatError naming the field; corrupt or
    truncated payloads raise ChecksumError.  The features and targets are
    two new float32 matrices.
    """
    return _load_rows(path, None)[0]


def load_split(path, rho: float, rng_for) -> tuple[Dataset, Dataset]:
    """``split(load_dataset(path), rho, rng_for(fingerprint))``, byte for
    byte, without holding the file next to its two parts.

    ``rng_for`` maps the file's config fingerprint to the generator the
    split draws from, once the header is checked.  The file is read as
    :func:`load_dataset` reads it, but each row goes straight to the place
    :func:`split` gives it in the train or validation matrices.  The errors
    of :func:`load_dataset` and :func:`split` are raised as they raise them.
    """
    return _load_rows(path, lambda n, fingerprint: _split_rows(n, rho, rng_for(fingerprint)))
