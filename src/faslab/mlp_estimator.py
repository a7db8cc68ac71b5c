"""From-scratch fully connected channel estimator.

Two ReLU hidden layers of equal width and a linear output layer, trained
with mini-batch Adam on mean-squared error over standard-score-normalized
targets.  Model selection and reporting use NMSE on de-normalized channels.

Training runs in the float type ``Hyperparams.compute_dtype`` names: float64
(the default) or float32, which roughly halves the cost of a paper-shape
step.  The layers keep the dtype of the parameters they are given, and each
mini-batch is normalized from the float32 dataset rows straight into a batch
buffer of that dtype.  Float32 training starts from the float64 draw of
:func:`init_params` rounded to float32 and returns its best parameters
widened back to float64.  Everything else is float64 whatever the training
precision: the normalizer statistics, the reported losses and NMSEs, the
FASM file, and inference through :func:`predict` and :func:`predict_batch`.

Where BLAS runs one thread and a second CPU is free, :func:`train` runs a
lane (:class:`~faslab.dataset_pipeline._TaskLane`) with one helper thread,
``faslab-gemm``, and hands it the second half of each step through
:func:`~faslab.dataset_pipeline.both`: the batch rows from a split row on
through forward's three layers and backward's upstream chain, the second
output-row half of the three weight-gradient products, and the second half
of Adam's flat vector.  No element's sum changes, so neither does any byte.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import COMPUTE_DTYPES
from .dataset_pipeline import (
    Dataset,
    Normalizer,
    _synth_workers,
    _TaskLane,
    apply_normalizer,
    both,
    fit_normalizer,
    invert_normalizer,
    pack_complex,
    read_file_aligned,
    unpack_complex as _rows_to_complex,  # the name faslab_bench/spans.py traces
    write_artifact,
)
from .errors import ChecksumError, FileFormatError, TrainingDivergedError

_PARAM_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")

MODEL_MAGIC = b"FASM"
MODEL_VERSION = 1


def _param_shapes(d_in: int, hidden: int, d_out: int) -> tuple[tuple[int, ...], ...]:
    """Shapes of w1, b1, w2, b2, w3, b3, in that (FASM) order."""
    return ((hidden, d_in), (hidden,), (hidden, hidden), (hidden,), (d_out, hidden), (d_out,))


class MlpParams:
    """Weights and biases; w1: (H, D_in), w2: (H, H), w3: (D_out, H).

    The six fields are views into one contiguous vector ``flat`` holding w1,
    b1, w2, b2, w3, b3 back to back, row-major: the parameter block of a FASM
    file.  ``flat`` is float64, or float32 during float32 training.  Writing
    through a field writes ``flat``; the fields cannot be rebound.  Gradients
    and Adam moments use the same container.  The constructor copies its six
    arrays into a new float64 buffer; :meth:`from_flat` wraps an existing one.
    """

    __slots__ = ("flat", "_fields")

    def __init__(self, w1, b1, w2, b2, w3, b3):
        arrays = [np.asarray(a, dtype=float) for a in (w1, b1, w2, b2, w3, b3)]
        if arrays[0].ndim != 2 or arrays[4].ndim != 2:
            raise ValueError("w1 and w3 must be 2-D matrices")
        (hidden, d_in), d_out = arrays[0].shape, arrays[4].shape[0]
        shapes = _param_shapes(d_in, hidden, d_out)
        self._bind(np.empty(sum(math.prod(s) for s in shapes)), shapes)
        for name, view, array in zip(_PARAM_FIELDS, self._fields, arrays):
            if array.shape != view.shape:
                raise ValueError(f"{name} has shape {array.shape}, expected {view.shape}")
            view[...] = array

    @classmethod
    def from_flat(cls, flat: np.ndarray, d_in: int, hidden: int, d_out: int) -> "MlpParams":
        """Field views over ``flat`` itself (no copy), laid out for the dims."""
        params = cls.__new__(cls)
        params._bind(flat, _param_shapes(d_in, hidden, d_out))
        return params

    def _bind(self, flat: np.ndarray, shapes) -> None:
        sizes = [math.prod(s) for s in shapes]
        if flat.ndim != 1 or flat.size != sum(sizes):
            raise ValueError(
                f"flat buffer of shape {flat.shape} does not hold {sum(sizes)} parameters"
            )
        bounds = list(itertools.accumulate(sizes, initial=0))
        self.flat = flat
        self._fields = tuple(
            flat[lo:hi].reshape(shape) for lo, hi, shape in zip(bounds, bounds[1:], shapes)
        )

    w1 = property(lambda self: self._fields[0])
    b1 = property(lambda self: self._fields[1])
    w2 = property(lambda self: self._fields[2])
    b2 = property(lambda self: self._fields[3])
    w3 = property(lambda self: self._fields[4])
    b3 = property(lambda self: self._fields[5])

    def dims(self) -> tuple[int, int, int]:
        """(input width, hidden width, output width)."""
        return self.w1.shape[1], self.w1.shape[0], self.w3.shape[0]

    def copy(self) -> "MlpParams":
        return MlpParams.from_flat(self.flat.copy(), *self.dims())

    def zeros_like(self) -> "MlpParams":
        return MlpParams.from_flat(np.zeros_like(self.flat), *self.dims())


def init_params(d_in: int, hidden: int, d_out: int, rng: np.random.Generator) -> MlpParams:
    """Fan-in-scaled uniform weights, zero biases.

    Each weight layer draws Uniform(-sqrt(6/fan_in), +sqrt(6/fan_in)); draw
    order is w1, w2, w3 (determinism contract).
    """
    if min(d_in, hidden, d_out) < 1:
        raise ValueError(f"dimensions must be positive, got {(d_in, hidden, d_out)}")
    params = MlpParams.from_flat(
        np.empty(sum(math.prod(s) for s in _param_shapes(d_in, hidden, d_out))),
        d_in, hidden, d_out,
    )
    # Uninitialized, as every entry is written below: a zeroed buffer
    # measured about 500 more page faults per paper-shape train() call.
    for b in (params.b1, params.b2, params.b3):
        b[...] = 0.0
    for w in (params.w1, params.w2, params.w3):
        # rng.uniform(-bound, bound) drawn in place: numpy's formula
        # low + (high - low) * u on the same draws u (high - low is 2 * bound
        # exactly), so the same bytes.
        bound = np.sqrt(6.0 / w.shape[1])
        rng.random(out=w)
        w *= 2.0 * bound
        w += -bound
    return params


class ForwardCache:
    """Activations of the last forward pass through it, kept for backward.

    ``x`` is the input; ``a1``, ``a2`` and the output are leading-row views
    of buffers sized for the largest batch so far, so handing the cache back
    to :func:`forward` reuses them: the next pass through the same cache
    overwrites the previous one's output.  :func:`backward` keeps its scratch
    here too.  The buffers take the parameters' dtype.  ``lane`` is None, or
    during :func:`train` the lane whose helper :func:`forward` and
    :func:`backward` hand half of their rows to (see :func:`both`).
    """

    def __init__(self):
        self.x = self.a1 = self.a2 = None
        self.single = False
        self.params = None
        self.lane = None
        self._buffers: dict[str, np.ndarray] = {}

    def _rows(self, name: str, rows: int, width: int, dtype) -> np.ndarray:
        """The first ``rows`` rows of the named buffer, grown if too small
        and replaced if its width or dtype differs."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape[0] < rows or buf.shape[1] != width or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty((rows, width), dtype=dtype)
        return buf[:rows]


def forward(params: MlpParams, x: np.ndarray, cache: ForwardCache | None = None):
    """y = w3 @ relu(w2 @ relu(w1 @ x + b1) + b2) + b3.

    Accepts a single input vector (D_in,) or a batch (B, D_in); the output
    matches the input's batch shape.  Everything runs in the parameters'
    dtype, and the input is cast to it.  Returns (y, cache).  Passing the
    cache of an earlier call reuses its buffers, and the returned y is then
    overwritten by the next pass through that cache.  Each ReLU overwrites
    its pre-activation, so the cache holds no pre-activations.
    """
    dtype = params.flat.dtype
    x = np.asarray(x, dtype=dtype)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    d_in, hidden, d_out = params.dims()
    if xb.ndim != 2 or xb.shape[1] != d_in:
        raise ValueError(f"input width {x.shape} does not match d_in={d_in}")
    if cache is None:
        cache = ForwardCache()
    rows = xb.shape[0]
    a1, a2 = cache._rows("a1", rows, hidden, dtype), cache._rows("a2", rows, hidden, dtype)
    y = cache._rows("y", rows, d_out, dtype)
    half = _split_row(rows, d_in * hidden, hidden * hidden, hidden * d_out)
    _by_rows(cache.lane, half, functools.partial(_layers, params), xb, a1, a2, y)
    cache.x, cache.a1, cache.a2 = xb, a1, a2
    cache.single, cache.params = single, params
    return (y[0] if single else y), cache


def _layers(params: MlpParams, x, a1, a2, y) -> None:
    """The three layers of :func:`forward` over some rows of its buffers."""
    np.matmul(x, params.w1.T, out=a1)
    a1 += params.b1
    np.maximum(a1, 0.0, out=a1)
    np.matmul(a1, params.w2.T, out=a2)
    a2 += params.b2
    np.maximum(a2, 0.0, out=a2)
    np.matmul(a2, params.w3.T, out=y)
    y += params.b3


def mse_loss(pred: np.ndarray, target: np.ndarray, out: np.ndarray | None = None):
    """Mean over all entries of the squared difference, and its gradient
    2*(pred - target)/count with respect to the prediction.

    The gradient takes pred's dtype (float32 stays float32; anything else
    becomes float64) and is written into ``out`` when it is given (pred's
    shape); the squares are formed there first, so no array is allocated.
    The loss is a float64 mean whatever the dtype.
    """
    pred = np.asarray(pred)
    dtype = np.float32 if pred.dtype == np.float32 else np.float64
    pred = pred.astype(dtype, copy=False)
    target = np.asarray(target, dtype=dtype)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if out is None:
        out = np.empty_like(pred)
    np.square(np.subtract(pred, target, out=out), out=out)
    loss = float(np.mean(out, dtype=np.float64))
    grad = np.subtract(pred, target, out=out)
    grad *= 2.0
    grad /= grad.size
    return loss, grad


def backward(
    params: MlpParams, cache: ForwardCache, d_out: np.ndarray, out: MlpParams | None = None
) -> MlpParams:
    """Exact reverse-mode gradients of the forward pass.

    ``d_out`` is the loss gradient at the output, matching the forward's
    output shape.  The ReLU subgradient at exactly zero is taken as zero.
    The mask is ``relu(z) > 0``, which is ``z > 0`` for every z (NaN, -0 and
    -inf included), so the pre-activations need not be kept.
    The gradients, in the parameters' dtype, are written into ``out`` when it
    is given (a net of the same dims, reused across steps) and returned.
    """
    if cache.params is not params:
        raise ValueError("cache was produced by a different parameter set")
    dtype = params.flat.dtype
    d_out = np.asarray(d_out, dtype=dtype)
    dy = d_out[None, :] if cache.single else d_out
    rows = cache.x.shape[0]
    if dy.shape != (rows, params.w3.shape[0]):
        raise ValueError(
            f"upstream gradient shape {d_out.shape} does not match forward output"
        )
    if out is None:
        out = params.zeros_like()
    elif out.dims() != params.dims() or out.flat.dtype != dtype:
        raise ValueError(
            f"gradient buffer {out.dims()} {out.flat.dtype} does not match "
            f"{params.dims()} {dtype}"
        )
    hidden = params.w2.shape[0]
    dz2, dz1 = cache._rows("dz2", rows, hidden, dtype), cache._rows("dz1", rows, hidden, dtype)
    mask = cache._rows("mask", rows, hidden, dtype=bool)
    lane = cache.lane
    half = _split_row(rows, dy.shape[1] * hidden, hidden * hidden)
    _by_rows(lane, half, functools.partial(_upstream, params), dy, cache.a2, cache.a1, dz2, dz1,
             mask)
    # Each weight gradient sums over the batch rows, so a lane splits it by
    # its own output rows instead; the bias sums stay whole, on this thread.
    products = ((dy.T, cache.a2, out.w3), (dz2.T, cache.a1, out.w2), (dz1.T, cache.x, out.w1))
    sums = ((dy, out.b3), (dz2, out.b2), (dz1, out.b1))
    halves = [_split_row(a.shape[0], a.shape[1] * b.shape[1]) for a, b, _ in products]
    if lane is None or not all(halves):
        _param_grads(products, [slice(None)] * 3, sums)
    else:
        both(
            lane,
            functools.partial(_param_grads, products, [slice(h) for h in halves], sums),
            functools.partial(_param_grads, products, [slice(h, None) for h in halves]),
        )
    return out


def _upstream(params: MlpParams, dy, a2, a1, dz2, dz1, mask) -> None:
    """dz2 and dz1 of :func:`backward`, masked, over some rows of its buffers."""
    np.matmul(dy, params.w3, out=dz2)
    # Multiply by the mask rather than zero through it: inf * 0 must stay NaN.
    np.multiply(dz2, np.greater(a2, 0, out=mask), out=dz2)
    np.matmul(dz2, params.w2, out=dz1)
    np.multiply(dz1, np.greater(a1, 0, out=mask), out=dz1)


def _param_grads(products, rows, sums=()) -> None:
    """``np.matmul(a[r], b, out=out[r])`` for each (a, b, out) of
    ``products`` and slice r of ``rows``, then ``np.sum(array, axis=0,
    out=out)`` for each (array, out) of ``sums``."""
    for (a, b, out), r in zip(products, rows):
        np.matmul(a[r], b, out=out[r])
    for array, out in sums:
        np.sum(array, axis=0, out=out)


# Bytes per operand of an in-place Adam block, in every dtype (65 536
# float32 or 32 768 float64 elements): the scratch and the block's slices
# of the parameters, gradients and moments stay in cache.  Against one
# whole-array pass it trains faster at desk and paper shapes and needs
# 0.5 MB of scratch per thread, not two parameter-sized vectors.  Blocks
# half this size gained little on two threads: between their short numpy
# calls the two threads mostly traded the interpreter lock.
_ADAM_BLOCK_BYTES = 1 << 18


@dataclass
class AdamState:
    """Optimizer moments plus hyper-constants; step_count grows by 1 per update."""

    first_moment: MlpParams
    second_moment: MlpParams
    step_count: int
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8
    # adam_step's scratch, in the moments' dtype, so that an update allocates
    # nothing: one pair of block-sized vectors for each of the two threads
    # that a lane runs it on.
    _scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        flat = self.first_moment.flat
        block = min(flat.size, _ADAM_BLOCK_BYTES // flat.itemsize)
        self._scratch = np.empty((2, 2, block), dtype=flat.dtype)

    @classmethod
    def for_params(cls, params: MlpParams, learning_rate: float, *constants) -> "AdamState":
        """Zero moments; ``constants`` are beta1, beta2, eps_hat in order, or their defaults."""
        return cls(params.zeros_like(), params.zeros_like(), 0, learning_rate, *constants)


def adam_step(
    params: MlpParams, grads: MlpParams, state: AdamState, lane: _TaskLane | None = None
):
    """One bias-corrected Adam update, in place; returns (params, state).

    Walks ``flat`` in blocks through the state's scratch vectors, so no
    array is allocated.  Each element sees the same operations in the same
    order as the whole-array form m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2,
    theta -= lr * (m/bc1) / (sqrt(v/bc2) + eps), so the result is bit-identical.
    Every gradient is checked before anything is updated: a non-finite one
    raises ``ValueError`` naming its field and leaves the state untouched.
    The update runs in the dtype that the parameters, gradients and moments
    share.  Given a lane, it updates the second half of ``flat`` on the
    lane's helper (see :func:`both`) while this thread updates the first;
    every element still sees the same operations, so the bytes are the same.
    """
    nets = (params, grads, state.first_moment, state.second_moment)
    if len({(net.dims(), net.flat.dtype) for net in nets}) != 1:
        raise ValueError("parameters, gradients and moments differ in dims or dtype")
    grad = grads.flat
    block = state._scratch.shape[2]
    # The finiteness flags of a block go into the scratch's bytes, viewed as bools.
    finite = state._scratch[0, 0].view(bool)
    for lo in range(0, grad.size, block):
        g = grad[lo : lo + block]
        if not np.isfinite(g, out=finite[: g.size]).all():
            for name in _PARAM_FIELDS:
                if not np.all(np.isfinite(getattr(grads, name))):
                    raise ValueError(f"non-finite gradient in {name}")
    state.step_count += 1
    vectors = [net.flat for net in nets]
    if lane is None:
        _adam_update(state, state._scratch[0], *vectors)
    else:
        mid = grad.size // 2
        both(
            lane,
            functools.partial(_adam_update, state, state._scratch[0], *(v[:mid] for v in vectors)),
            functools.partial(_adam_update, state, state._scratch[1], *(v[mid:] for v in vectors)),
        )
    return params, state


def _adam_update(state: AdamState, scratch, theta, grad, first, second) -> None:
    """The update of :func:`adam_step` at ``state.step_count`` over
    stretches of the flat parameter, gradient and moment vectors, block by
    block through the pair of vectors ``scratch``."""
    t = state.step_count
    beta1, beta2 = state.beta1, state.beta2
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    block = scratch.shape[1]
    for lo in range(0, theta.size, block):
        g, m, v, p = (vec[lo : lo + block] for vec in (grad, first, second, theta))
        a, b = scratch[:, : g.size]
        m *= beta1
        m += np.multiply(1.0 - beta1, g, out=a)
        v *= beta2
        v += np.multiply(1.0 - beta2, np.square(g, out=a), out=a)
        np.divide(m, bc1, out=a)
        np.sqrt(np.divide(v, bc2, out=b), out=b)
        b += state.eps_hat
        a /= b
        a *= state.learning_rate
        p -= a


# -- metrics ---------------------------------------------------------------


def nmse_db(value: float) -> float:
    """A linear NMSE in dB; an exact reconstruction (0) is -inf.  A negative
    or NaN value is no NMSE and raises ``ValueError`` naming it."""
    value = float(value)
    if not value >= 0.0:
        raise ValueError(f"NMSE must be a non-negative number, got {value}")
    return float(10.0 * np.log10(value)) if value > 0.0 else -math.inf


def channel_energy(h: np.ndarray) -> float:
    """Total channel energy sum_i ||h_i||^2 of a sample set; zero energy
    raises ``ValueError``, as no NMSE can be taken against it."""
    energy = float(np.sum(np.abs(h) ** 2))
    if energy == 0.0:
        raise ValueError("channel set has zero energy")
    return energy


def ensemble_nmse(h_hat: np.ndarray, h: np.ndarray, energy=None, scratch=None) -> float:
    """Total squared error over total channel energy across a sample set.

    The linear-domain aggregate sum_i ||err_i||^2 / sum_i ||h_i||^2; rows
    are samples, and a single vector is a one-row set (||h_hat - h||^2 /
    ||h||^2).  This weighting keeps the metric consistent with its
    closed-form predictions (an unweighted mean of per-sample ratios is
    biased upward by low-energy draws).

    A caller that scores many estimates against one set can pass its
    :func:`channel_energy` as ``energy`` and, as ``scratch``, a complex and
    a float64 buffer of ``h``'s shape for the error and its squared modulus
    (the first may be ``h_hat`` itself, which is then overwritten); neither
    changes a bit of the result.
    """
    h_hat = np.asarray(h_hat)
    h = np.asarray(h)
    if h_hat.shape != h.shape:
        raise ValueError(f"shape mismatch: {h_hat.shape} vs {h.shape}")
    if energy is None:
        energy = channel_energy(h)
    err, sq = scratch if scratch is not None else (None, None)
    sq = np.abs(np.subtract(h_hat, h, out=err), out=sq)
    return float(np.sum(np.square(sq, out=sq))) / energy


# -- complexity counters -----------------------------------------------------


def count_forward_multiplies(d_in: int, hidden: int, d_out: int) -> int:
    """Real multiplications in one forward pass: D_in*H + H^2 + H*D_out."""
    if min(d_in, d_out) < 0 or hidden < 0:
        raise ValueError("dimensions must be non-negative")
    return d_in * hidden + hidden * hidden + hidden * d_out


def count_training_cost(
    epochs: int, n_train: int, d_in: int, hidden: int, d_out: int
) -> int:
    """Leading-order training multiplications: 3*E*N_tr*H*(D_in + H + D_out).

    Forward plus the roughly-double backward cost, per sample, per epoch.
    """
    if min(epochs, n_train, d_in, hidden, d_out) < 0:
        raise ValueError("arguments must be non-negative")
    return 3 * epochs * n_train * hidden * (d_in + hidden + d_out)


def instrumented_forward(params: MlpParams, x: np.ndarray):
    """Forward pass in explicit scalar arithmetic, counting real multiplies.

    Slow by construction; exists as an independent check of
    :func:`count_forward_multiplies`.  Returns (y, multiply_count).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("instrumented forward takes a single input vector")
    count = 0

    def affine(w: np.ndarray, v: np.ndarray, b: np.ndarray) -> np.ndarray:
        nonlocal count
        out = np.empty(w.shape[0])
        for i in range(w.shape[0]):
            acc = b[i]
            row = w[i]
            for j in range(w.shape[1]):
                acc += row[j] * v[j]
                count += 1
            out[i] = acc
        return out

    a1 = np.maximum(affine(params.w1, x, params.b1), 0.0)
    a2 = np.maximum(affine(params.w2, a1, params.b2), 0.0)
    y = affine(params.w3, a2, params.b3)
    return y, count


# -- training ----------------------------------------------------------------


@dataclass(frozen=True)
class Hyperparams:
    """What :func:`train` trains with; a value it cannot train with raises
    ``ValueError`` naming the field when the object is built.  A learning
    rate of 0 is allowed: it freezes the net at its initialization."""

    hidden_width: int
    learning_rate: float
    batch_size: int
    max_epochs: int
    patience: int
    compute_dtype: str = "float64"  # one of config.COMPUTE_DTYPES

    def __post_init__(self) -> None:
        for name in ("hidden_width", "batch_size", "max_epochs"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if not self.patience >= 0:
            raise ValueError(f"patience must be >= 0, got {self.patience!r}")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate!r}"
            )
        if self.compute_dtype not in COMPUTE_DTYPES:
            raise ValueError(
                f"compute_dtype must be one of {COMPUTE_DTYPES}, got {self.compute_dtype!r}"
            )


@dataclass
class Normalizers:
    """Feature- and target-side standard-score transforms fitted on train rows."""

    features: Normalizer
    targets: Normalizer


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    val_nmse: list[float] = field(default_factory=list)
    val_nmse_db: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-indexed
    stopped_early: bool = False
    epochs_run: int = 0


def train(
    train_ds: Dataset,
    val_ds: Dataset,
    hyper: Hyperparams,
    rng: np.random.Generator,
    shuffle_rng: np.random.Generator | None = None,
):
    """Mini-batch Adam training with early stopping on validation NMSE.

    Normalizers are fitted on the training rows only.  Each epoch reshuffles
    the training rows (the last partial batch is kept); after every epoch the
    validation NMSE is computed on de-normalized channel vectors.  The
    training rows stay in the dataset's float32 matrices: each mini-batch is
    gathered from them and normalized into a batch buffer.  Training stops
    once the epochs since the best validation NMSE exceed ``hyper.patience``,
    and the parameters from that best epoch are returned, as float64.  A
    validation set with zero channel energy raises ``ValueError`` before
    the first step.

    Parameters, gradients, Adam moments, batch buffers and activations are
    all in ``hyper.compute_dtype``; the validation pass runs in it too.  The
    initialization is drawn in float64 whatever the dtype, so both dtypes
    start from the same draw.  All of that state is freed before the best
    parameters are widened to float64.

    ``rng`` seeds the parameter initialization and, when ``shuffle_rng`` is
    not given, the epoch shuffles too.  Returns (params, normalizers, report).
    """
    if train_ds.n_samples < 2 or val_ds.n_samples < 1:
        raise ValueError(
            f"need >= 2 train and >= 1 validation rows, got "
            f"{train_ds.n_samples}/{val_ds.n_samples}"
        )
    if train_ds.features.shape[1] != val_ds.features.shape[1] or (
        train_ds.targets.shape[1] != val_ds.targets.shape[1]
    ):
        raise ValueError("train and validation widths differ")
    normalizers = Normalizers(fit_normalizer(train_ds.features), fit_normalizer(train_ds.targets))
    best, report = _train_epochs(
        train_ds, val_ds, normalizers, hyper, rng, rng if shuffle_rng is None else shuffle_rng
    )
    # A float32 value widens to float64 exactly.
    dims = normalizers.features.width, hyper.hidden_width, normalizers.targets.width
    return MlpParams.from_flat(best.astype(float, copy=False), *dims), normalizers, report


# Multiply-adds from which each half of a split product is worth a hand-off
# to the lane's helper.  The bound sits on the halves, not on the whole
# product, because the halves are what BLAS runs: each must keep clear of
# the small sizes where OpenBLAS takes other kernels.  With forward's x @ w.T
# layout, a 64 x 64 x 64 product split at 16 or 48 rows does not round as it
# does whole; desk's 64-row batches split at row 32 into halves of 2**20 or
# 2**21, which do, in float32 and float64.  On a 2-vCPU VM with one BLAS
# thread, desk float64 training (batch 64, a 128-256-128 net, 540 rows)
# took 2.13 ms a step through the lane against 2.48 ms without one.
_SPLIT_MIN = 1 << 20
# The split falls on a multiple of this many rows, which BLAS register-tile
# heights divide, so both halves start where a tile of the unsplit product
# starts.  (Paper-shape products split 4 rows or more from either end gave
# the same bits; split 1 to 3 rows from an end, they did not.)
_SPLIT_ROWS = 16
# The variables OpenBLAS takes its thread count from, in the order it reads them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _split_row(rows: int, *sizes: int) -> int:
    """The row at which a lane splits a chain of products with ``rows``
    output rows each, whose other two dimensions multiply to ``sizes``: a
    multiple of :data:`_SPLIT_ROWS` near the middle, or 0 (no split) when
    that is 0 or a product over the first half's rows takes fewer than
    :data:`_SPLIT_MIN` multiply-adds.  The second half has at least as many
    rows."""
    half = rows // 2 // _SPLIT_ROWS * _SPLIT_ROWS
    return half if all(half * size >= _SPLIT_MIN for size in sizes) else 0


def _by_rows(lane: _TaskLane | None, half: int, job, *arrays) -> None:
    """``job(*arrays)``; with a lane and a split row ``half`` other than 0,
    ``job`` over the arrays' rows before ``half`` here and over the rest on
    the lane's helper."""
    if lane is None or half == 0:
        job(*arrays)
    else:
        both(
            lane,
            functools.partial(job, *(a[:half] for a in arrays)),
            functools.partial(job, *(a[half:] for a in arrays)),
        )


def _gemm_lane_on(rows: int, d_in: int, hidden: int, d_out: int) -> bool:
    """Whether :func:`train` runs a lane with a ``faslab-gemm`` helper for
    batches of ``rows`` rows through a ``d_in``-``hidden``-``d_out`` net: when
    :func:`_split_row` splits the batch's largest product, the first of
    ``_BLAS_THREAD_VARS`` that is set reads 1 (BLAS leaves the other CPUs
    idle) and :func:`_synth_workers` finds two CPUs or more (in the affinity
    mask, on the main thread)."""
    blas = next((v for v in map(os.environ.get, _BLAS_THREAD_VARS) if v is not None), "")
    return bool(
        _split_row(rows, hidden * max(d_in, hidden, d_out))
        and blas.strip() == "1"
        and _synth_workers() >= 2
    )


def _train_epochs(train_ds, val_ds, normalizers, hyper, rng, shuffle_rng):
    """The epochs of :func:`train`: returns the best epoch's flat parameter
    vector, in the compute dtype, and the report.  The parameters,
    gradients, Adam state, forward cache and buffers it builds die with
    its frame; the ``faslab-gemm`` thread of its lane, if it runs one,
    ends before it returns or raises."""
    dtype = np.dtype(hyper.compute_dtype)
    feat_nrm, tgt_nrm = normalizers.features, normalizers.targets
    x_val = apply_normalizer(
        feat_nrm, val_ds.features, out=np.empty(val_ds.features.shape, dtype)
    )
    # The validation channels and their energy, taken once, and the error
    # buffers that every epoch's score reuses.
    h_val = _rows_to_complex(val_ds.targets)
    energy = channel_energy(h_val)
    scratch = (np.empty_like(h_val), np.empty(h_val.shape))

    d_in = feat_nrm.width
    d_out = tgt_nrm.width
    params = init_params(d_in, hyper.hidden_width, d_out, rng)
    if dtype != params.flat.dtype:
        params = MlpParams.from_flat(params.flat.astype(dtype), *params.dims())
    state = AdamState.for_params(params, hyper.learning_rate)

    report = TrainReport()
    best_nmse = np.inf
    best = params.flat.copy()
    n = train_ds.n_samples
    # Buffers reused by every step and epoch: the rows gathered from the
    # float32 matrices, normalized in place when training in float32 and
    # into a batch buffer otherwise, the loss gradient, the parameter
    # gradients and the activations (in the forward cache, which the
    # validation pass shares).
    batch = min(hyper.batch_size, n)
    x_rows = np.empty((batch, d_in), dtype=train_ds.features.dtype)
    t_rows = np.empty((batch, d_out), dtype=train_ds.targets.dtype)
    x_batch = x_rows if x_rows.dtype == dtype else np.empty((batch, d_in), dtype)
    t_batch = t_rows if t_rows.dtype == dtype else np.empty((batch, d_out), dtype)
    d_batch = np.empty((batch, d_out), dtype)
    grads = params.zeros_like()
    cache = ForwardCache()

    on = _gemm_lane_on(batch, d_in, hyper.hidden_width, d_out)
    cache.lane = lane = _TaskLane(["faslab-gemm"]) if on else None
    # The lane's thread is joined when the epochs end, however they end.
    with contextlib.closing(lane) if on else contextlib.nullcontext():
        for epoch in range(1, hyper.max_epochs + 1):
            perm = shuffle_rng.permutation(n)
            sq_err_sum = 0.0
            entry_count = 0
            for start in range(0, n, hyper.batch_size):
                idx = perm[start : start + hyper.batch_size]
                rows = idx.size
                # The indices are in range; mode="clip" lets take write `out`
                # directly instead of through a temporary.  take does not cast,
                # so the rows land in float32 buffers first.
                xb = np.take(train_ds.features, idx, axis=0, out=x_rows[:rows], mode="clip")
                tb = np.take(train_ds.targets, idx, axis=0, out=t_rows[:rows], mode="clip")
                xb = apply_normalizer(feat_nrm, xb, out=x_batch[:rows])
                tb = apply_normalizer(tgt_nrm, tb, out=t_batch[:rows])
                pred, cache = forward(params, xb, cache)
                loss, dloss = mse_loss(pred, tb, out=d_batch[:rows])
                if not np.isfinite(loss):
                    raise TrainingDivergedError(epoch)
                backward(params, cache, dloss, out=grads)
                adam_step(params, grads, state, lane)
                sq_err_sum += loss * pred.size
                entry_count += pred.size
            report.train_loss.append(sq_err_sum / entry_count)

            # Through the step cache, which grows once if the validation rows
            # outnumber the batch; the output is de-normalized in place and
            # unpacked into the first error buffer.
            val_pred, cache = forward(params, x_val, cache)
            h_hat = _rows_to_complex(
                invert_normalizer(tgt_nrm, val_pred, out=val_pred), scratch[0]
            )
            val_nmse = ensemble_nmse(h_hat, h_val, energy, scratch)
            report.val_nmse.append(val_nmse)
            report.val_nmse_db.append(nmse_db(val_nmse))
            report.epochs_run = epoch

            if val_nmse < best_nmse:
                best_nmse = val_nmse
                np.copyto(best, params.flat)
                report.best_epoch = epoch
            elif epoch - report.best_epoch > hyper.patience:
                report.stopped_early = True
                break
    return best, report


def predict_batch(
    params: MlpParams, normalizers: Normalizers, pilot_matrix: np.ndarray
) -> np.ndarray:
    """Estimate the complex port-domain channel of each row of a complex
    pilot matrix.

    Pipeline: pack -> feature-normalize with training statistics -> forward
    -> de-normalize with target statistics -> unpack.
    """
    x = pack_complex(pilot_matrix)
    y, _ = forward(params, apply_normalizer(normalizers.features, x, out=x))
    return _rows_to_complex(invert_normalizer(normalizers.targets, y, out=y))


def predict(
    params: MlpParams, normalizers: Normalizers, pilot_samples: np.ndarray
) -> np.ndarray:
    """:func:`predict_batch` on one stacked pilot vector (a batch of one)."""
    return predict_batch(params, normalizers, np.asarray(pilot_samples)[None, :])[0]


def report_to_csv(report: TrainReport) -> str:
    """Per-epoch convergence trace: epoch, train_loss, val_nmse_db."""
    lines = ["epoch,train_loss,val_nmse_db"]
    for i in range(report.epochs_run):
        lines.append(
            f"{i + 1},{report.train_loss[i]:.6g},{report.val_nmse_db[i]:.6g}"
        )
    return "\n".join(lines) + "\n"


# -- model persistence --------------------------------------------------------

_MODEL_HEADER = struct.Struct("<4sHIII")


def save_model(path, params: MlpParams, normalizers: Normalizers) -> None:
    """Binary model file: dims, both normalizers, all parameters as
    little-endian float64, integrity checksum at the end."""
    d_in, hidden, d_out = params.dims()
    if normalizers.features.width != d_in or normalizers.targets.width != d_out:
        raise ValueError("normalizer widths do not match parameter dims")
    pieces = [
        _MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, d_in, hidden, d_out),
        struct.pack("<dd", normalizers.features.epsilon, normalizers.targets.epsilon),
    ]
    for vec in (
        normalizers.features.mean,
        normalizers.features.std,
        normalizers.targets.mean,
        normalizers.targets.std,
        params.flat,
    ):
        pieces.append(np.ascontiguousarray(vec, dtype="<f8"))
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    write_artifact(path, [*pieces, digest.digest()])


def load_model(path) -> tuple[MlpParams, Normalizers]:
    """Inverse of :func:`save_model` with magic/version/checksum validation.

    The parameters and normalizer vectors are writable views over one buffer
    holding the file, not copies.
    """
    raw = read_file_aligned(path, _MODEL_HEADER.size + 16)
    if len(raw) < _MODEL_HEADER.size + 32:
        raise FileFormatError(f"{path}: file too short for a model header")
    body, checksum = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != checksum:
        raise ChecksumError(f"{path}: model checksum mismatch (corrupt or truncated)")
    magic, version, d_in, hidden, d_out = _MODEL_HEADER.unpack_from(body)
    if magic != MODEL_MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}, expected {MODEL_MAGIC!r}")
    if version != MODEL_VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    n_params = sum(math.prod(s) for s in _param_shapes(d_in, hidden, d_out))
    offset = _MODEL_HEADER.size + 16
    expected = offset + 8 * (2 * d_in + 2 * d_out + n_params)
    if len(body) < expected:
        raise FileFormatError(
            f"{path}: header dims {d_in}-{hidden}-{d_out} need {expected} bytes "
            f"before the checksum, the file has {len(body)}"
        )
    if len(body) > expected:
        raise FileFormatError(f"{path}: trailing bytes after model payload")
    feat_eps, tgt_eps = struct.unpack_from("<dd", body, _MODEL_HEADER.size)

    def take(count: int) -> np.ndarray:
        nonlocal offset
        out = np.frombuffer(body, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        return out

    feat_nrm = Normalizer(take(d_in), take(d_in), feat_eps)
    tgt_nrm = Normalizer(take(d_out), take(d_out), tgt_eps)
    params = MlpParams.from_flat(take(n_params), d_in, hidden, d_out)
    return params, Normalizers(feat_nrm, tgt_nrm)
