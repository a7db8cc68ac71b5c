"""Span tracer that wraps faslab's public functions from outside the package.

Tracing rebinds each traced name in the module that calls it (for example
``mlp_estimator.forward``, which ``train`` and ``predict`` look up as a
module global, or ``experiment_cli.omp_estimate``, which the CLI imported
with ``from .baseline_estimators import omp_estimate``).  Nothing under
``src/`` is edited; :meth:`Tracer.uninstall` puts every original back, so
untraced passes run the program exactly as a user does.

Spans are kept in memory as ``[name, parent, start, end, work]`` and
reduced to the per-layer metrics by :func:`layer_metrics` when the run
ends.  A span's self time is its duration minus the durations of its direct
children; calls are strictly nested in this single-threaded program, so the
children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import os
import resource
import statistics
import time
import warnings as _warnings
from collections import defaultdict

from faslab import baseline_estimators as be
from faslab import channel_model as cm
from faslab import config
from faslab import dataset_pipeline as dp
from faslab import experiment_cli as cli
from faslab import mlp_estimator as mlp
from faslab import pilot_system as ps

MODULES = (
    "channel_model",
    "pilot_system",
    "dataset_pipeline",
    "mlp_estimator",
    "baseline_estimators",
    "config",
    "experiment_cli",
)

NAME, PARENT, START, END, WORK = range(5)
# Work marker: the span's work is the minor page faults taken during the call.
FAULTS = object()


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


# -- work counters, computed from argument shapes (not measured) ---------------


def _forward_flops(args, kwargs, result):
    params, x = args[0], args[1]
    d_in, hidden, d_out = params.dims()
    rows = 1 if x.ndim == 1 else x.shape[0]
    return 2.0 * rows * (d_in * hidden + hidden * hidden + hidden * d_out)


def _backward_flops(args, kwargs, result):
    params, cache = args[0], args[1]
    d_in, hidden, d_out = params.dims()
    rows = cache.x.shape[0]
    # gw3, da2, gw2, da1, gw1: the input-side gradient is never formed.
    return 2.0 * rows * (2 * hidden * d_out + 2 * hidden * hidden + hidden * d_in)


def _adam_bytes(args, kwargs, result):
    params = args[0]
    d_in, hidden, d_out = params.dims()
    n = hidden * d_in + hidden + hidden * hidden + hidden + d_out * hidden + d_out
    # Reads gradient, both moments and the parameter; writes moments and parameter.
    return 7.0 * 8.0 * n


def _file_bytes(position):
    def work(args, kwargs, result):
        return float(os.path.getsize(args[position]))

    return work


def _rows_arg(position):
    def work(args, kwargs, result):
        value = args[position]
        return float(value if isinstance(value, int) else len(value))

    return work


class _CountingWarnings:
    """Stands in for the ``warnings`` module inside baseline_estimators, whose
    only warning is OMP's rank-deficiency drop, and counts those drops."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def warn(self, message, category=None, stacklevel=1, source=None):
        self._tracer.dropped_atoms += 1
        _warnings.warn(message, category, stacklevel + 1, source)


class Tracer:
    """Records nested spans around faslab calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.dropped_atoms = 0
        self._paused = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Record no spans inside the block (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _record(self, name, fn, args, kwargs, work):
        if self._paused:
            return fn(*args, **kwargs)
        index = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(index)
        faults = _minor_faults() if work is FAULTS else 0
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
        if work is FAULTS:
            span[WORK] = float(_minor_faults() - faults)
        elif work is not None:
            span[WORK] = work(args, kwargs, result)
        return result

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs, work)

        return traced

    def _wrap_omp(self, fn):
        """OMP with its accepted and dropped atom counts as the span's work.

        ``with_trace=True`` only changes what omp_estimate returns, so the
        traced call does the same arithmetic as the caller's."""

        def call(obs, dictionary, sparsity, with_trace=False):
            dropped = self.dropped_atoms
            estimate, trace = fn(obs, dictionary, sparsity, with_trace=True)
            return (estimate, trace, len(trace.support), self.dropped_atoms - dropped)

        def work(args, kwargs, result):
            return (result[2], result[3])

        @functools.wraps(fn)
        def traced(obs, dictionary, sparsity, with_trace=False):
            estimate, trace, _, _ = self._record(
                "baseline_estimators.omp_estimate", call,
                (obs, dictionary, sparsity), {}, work,
            )
            return (estimate, trace) if with_trace else estimate

        return traced

    def _bindings(self):
        """(owner, attribute, replacement) for every traced name."""
        cfg_cls = config.ExperimentConfig
        table = [
            ("channel_model.draw_channel", cm.draw_channel, (dp, cli), None),
            ("pilot_system.observe", ps.observe, (dp, cli), None),
            ("dataset_pipeline.sample_stream", dp.sample_stream, (dp, cli), None),
            ("dataset_pipeline.generate_dataset", dp.generate_dataset, (cli,), _rows_arg(1)),
            ("dataset_pipeline.save_dataset", dp.save_dataset, (cli,), _file_bytes(1)),
            ("dataset_pipeline.load_dataset", dp.load_dataset, (cli,), _file_bytes(0)),
            ("dataset_pipeline.split", dp.split, (cli,), None),
            ("dataset_pipeline.invert_normalizer", dp.invert_normalizer, (mlp,), None),
            ("mlp_estimator.train", mlp.train, (cli,), None),
            ("mlp_estimator.forward", mlp.forward, (mlp,), _forward_flops),
            ("mlp_estimator.mse_loss", mlp.mse_loss, (mlp,), None),
            ("mlp_estimator.backward", mlp.backward, (mlp,), _backward_flops),
            ("mlp_estimator.adam_step", mlp.adam_step, (mlp,), _adam_bytes),
            ("mlp_estimator.ensemble_nmse", mlp.ensemble_nmse, (mlp, cli), None),
            ("mlp_estimator._rows_to_complex", mlp._rows_to_complex, (mlp,), None),
            ("mlp_estimator.predict", mlp.predict, (cli,), None),
            ("mlp_estimator.predict_batch", mlp.predict_batch, (cli,), _rows_arg(2)),
            ("mlp_estimator.load_model", mlp.load_model, (cli,), None),
            ("mlp_estimator.save_model", mlp.save_model, (cli,), None),
            ("baseline_estimators.build_dictionary", be.build_dictionary, (cli,), None),
            ("baseline_estimators.ls_observed_estimate", be.ls_observed_estimate, (cli,), None),
            ("config.validate", cfg_cls.validate, (cfg_cls,), None),
            ("config.build_schedule", cfg_cls.build_schedule, (cfg_cls,), None),
            ("config.dataset_fingerprint", config.dataset_fingerprint, (dp, cli), None),
            ("experiment_cli.cmd_generate", cli.cmd_generate, (cli,), None),
            ("experiment_cli.cmd_generate_single", cli.cmd_generate_single, (cli,), None),
            ("experiment_cli.cmd_train", cli.cmd_train, (cli,), None),
            ("experiment_cli.cmd_sweep", cli.cmd_sweep, (cli,), None),
            ("experiment_cli.cmd_eval_single", cli.cmd_eval_single, (cli,), FAULTS),
        ]
        out = []
        for name, fn, owners, work in table:
            traced = self.wrap(name, fn, work)
            attr = name.rsplit(".", 1)[1]
            out.extend((owner, attr, traced) for owner in owners)
        out.append((cli, "omp_estimate", self._wrap_omp(be.omp_estimate)))
        out.append((be, "warnings", _CountingWarnings(self)))
        return out

    def install(self) -> None:
        for owner, attr, replacement in self._bindings():
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# -- reduction to per-layer metrics -----------------------------------------------

# (metric name, unit); the values are computed in layer_metrics below.
PER_LAYER = (
    ("channel_model.draw_channel.us", "us"),
    ("channel_model.draw_channel.calls", "count"),
    ("pilot_system.observe.us", "us"),
    ("pilot_system.observe.calls", "count"),
    ("dataset_pipeline.sample_stream.us", "us"),
    ("dataset_pipeline.sample_stream.calls", "count"),
    ("dataset_pipeline.generate_dataset.self_us_per_row", "us"),
    ("dataset_pipeline.generate_dataset.calls", "count"),
    ("dataset_pipeline.save_dataset.mb_per_s", "MB/s"),
    ("dataset_pipeline.load_dataset.mb_per_s", "MB/s"),
    ("dataset_pipeline.split.ms", "ms"),
    ("mlp_estimator.forward.ms", "ms"),
    ("mlp_estimator.backward.ms", "ms"),
    ("mlp_estimator.adam_step.ms", "ms"),
    ("mlp_estimator.mse_loss.us", "us"),
    ("mlp_estimator.train.steps", "count"),
    ("mlp_estimator.train.epochs", "count"),
    ("mlp_estimator.train.self_ms_per_step", "ms"),
    ("mlp_estimator.train.val_ms_per_epoch", "ms"),
    ("mlp_estimator.forward.gflop_per_s", "GFLOP/s"),
    ("mlp_estimator.backward.gflop_per_s", "GFLOP/s"),
    ("mlp_estimator.adam_step.gb_per_s", "GB/s"),
    ("mlp_estimator.predict.us", "us"),
    ("mlp_estimator.predict_batch.rows_per_s", "rows/s"),
    ("mlp_estimator.load_model.ms", "ms"),
    ("mlp_estimator.save_model.ms", "ms"),
    ("baseline_estimators.omp_estimate.us", "us"),
    ("baseline_estimators.omp_estimate.calls", "count"),
    ("baseline_estimators.omp_estimate.dropped_atoms", "count"),
    ("baseline_estimators.omp_estimate.accepted_ratio", "1"),
    ("baseline_estimators.build_dictionary.ms", "ms"),
    ("baseline_estimators.ls_observed_estimate.us", "us"),
    ("experiment_cli.cmd_generate.s", "s"),
    ("experiment_cli.cmd_train.s", "s"),
    ("experiment_cli.cmd_sweep.s", "s"),
    ("experiment_cli.cmd_sweep.self_s", "s"),
    ("experiment_cli.cmd_eval_single.ms", "ms"),
    ("experiment_cli.cmd_eval_single.self_us", "us"),
    ("experiment_cli.cmd_eval_single.minor_faults", "count"),
    ("config.total_ms", "ms"),
    *((f"{module}.self_pct", "%") for module in MODULES),
    ("harness.self_pct", "%"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(
    spans: list[list], traced_passes: list[float], untraced_passes: list[float]
) -> dict[str, float]:
    """Per-layer values from the spans of one traced run.

    Spans come from the traced timed passes only (set-up and the output
    checks are not traced), whose wall times are ``traced_passes``.  Every
    figure here is in raw seconds, not the reference seconds of the
    end-to-end metrics.
    ``harness.self_pct`` is the part of those passes no span covers.  The
    tracing overhead compares the median traced pass with the median
    untraced pass of the same run.
    """
    dur = [s[END] - s[START] for s in spans]
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        children[s[PARENT]].append(i)
    self_time = [dur[i] - sum(dur[c] for c in children.get(i, ())) for i in range(len(spans))]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def calls(name):
        return float(len(by_name.get(name, ())))

    def mean(name, scale, use=None):
        idx = by_name.get(name, ())
        times = use if use is not None else dur
        return _ratio(sum(times[i] for i in idx), len(idx)) * scale

    def work(i, empty=0.0):
        # A span whose call raised has no work figure.
        return empty if spans[i][WORK] is None else spans[i][WORK]

    def rate(indices, scale):
        return _ratio(sum(work(i) for i in indices), sum(dur[i] for i in indices)) * scale

    # Training: a forward followed by mse_loss is a step; the other children
    # of train except the step calls make up the validation pass.
    step_fwd, val_time, steps, epochs, train_self = [], 0.0, 0, 0, 0.0
    step_names = ("mlp_estimator.mse_loss", "mlp_estimator.backward", "mlp_estimator.adam_step")
    for t in by_name.get("mlp_estimator.train", ()):
        kids = children.get(t, [])
        train_self += self_time[t]
        for pos, k in enumerate(kids):
            name = spans[k][NAME]
            nxt = spans[kids[pos + 1]][NAME] if pos + 1 < len(kids) else None
            if name == "mlp_estimator.forward" and nxt == "mlp_estimator.mse_loss":
                step_fwd.append(k)
            elif name == "mlp_estimator.adam_step":
                steps += 1
            elif name == "mlp_estimator.ensemble_nmse":
                epochs += 1
                val_time += dur[k]
            elif name not in step_names:
                val_time += dur[k]
    n_train = calls("mlp_estimator.train")

    gen_rows = sum(work(i) for i in by_name.get("dataset_pipeline.generate_dataset", ()))
    gen_self = sum(self_time[i] for i in by_name.get("dataset_pipeline.generate_dataset", ()))

    omp = by_name.get("baseline_estimators.omp_estimate", ())
    accepted = sum(work(i, (0, 0))[0] for i in omp)
    dropped = sum(work(i, (0, 0))[1] for i in omp)

    timed_wall = sum(traced_passes)
    module_self = {m: 0.0 for m in MODULES}
    config_total = 0.0
    for i in range(len(spans)):
        module = spans[i][NAME].split(".", 1)[0]
        module_self[module] += self_time[i]
        parent = spans[i][PARENT]
        if module == "config" and (parent < 0 or not spans[parent][NAME].startswith("config.")):
            config_total += dur[i]

    untraced = statistics.median(untraced_passes) if untraced_passes else 0.0
    traced = statistics.median(traced_passes) if traced_passes else 0.0

    values = {
        "channel_model.draw_channel.us": mean("channel_model.draw_channel", 1e6),
        "channel_model.draw_channel.calls": calls("channel_model.draw_channel"),
        "pilot_system.observe.us": mean("pilot_system.observe", 1e6),
        "pilot_system.observe.calls": calls("pilot_system.observe"),
        "dataset_pipeline.sample_stream.us": mean("dataset_pipeline.sample_stream", 1e6),
        "dataset_pipeline.sample_stream.calls": calls("dataset_pipeline.sample_stream"),
        "dataset_pipeline.generate_dataset.self_us_per_row": _ratio(gen_self, gen_rows) * 1e6,
        "dataset_pipeline.generate_dataset.calls": calls("dataset_pipeline.generate_dataset"),
        "dataset_pipeline.save_dataset.mb_per_s": rate(by_name.get("dataset_pipeline.save_dataset", ()), 1e-6),
        "dataset_pipeline.load_dataset.mb_per_s": rate(by_name.get("dataset_pipeline.load_dataset", ()), 1e-6),
        "dataset_pipeline.split.ms": mean("dataset_pipeline.split", 1e3),
        "mlp_estimator.forward.ms": _ratio(sum(dur[i] for i in step_fwd), len(step_fwd)) * 1e3,
        "mlp_estimator.backward.ms": mean("mlp_estimator.backward", 1e3),
        "mlp_estimator.adam_step.ms": mean("mlp_estimator.adam_step", 1e3),
        "mlp_estimator.mse_loss.us": mean("mlp_estimator.mse_loss", 1e6),
        "mlp_estimator.train.steps": _ratio(steps, n_train),
        "mlp_estimator.train.epochs": _ratio(epochs, n_train),
        "mlp_estimator.train.self_ms_per_step": _ratio(train_self, steps) * 1e3,
        "mlp_estimator.train.val_ms_per_epoch": _ratio(val_time, epochs) * 1e3,
        "mlp_estimator.forward.gflop_per_s": rate(step_fwd, 1e-9),
        "mlp_estimator.backward.gflop_per_s": rate(by_name.get("mlp_estimator.backward", ()), 1e-9),
        "mlp_estimator.adam_step.gb_per_s": rate(by_name.get("mlp_estimator.adam_step", ()), 1e-9),
        "mlp_estimator.predict.us": mean("mlp_estimator.predict", 1e6),
        "mlp_estimator.predict_batch.rows_per_s": rate(by_name.get("mlp_estimator.predict_batch", ()), 1.0),
        "mlp_estimator.load_model.ms": mean("mlp_estimator.load_model", 1e3),
        "mlp_estimator.save_model.ms": mean("mlp_estimator.save_model", 1e3),
        "baseline_estimators.omp_estimate.us": mean("baseline_estimators.omp_estimate", 1e6),
        "baseline_estimators.omp_estimate.calls": float(len(omp)),
        "baseline_estimators.omp_estimate.dropped_atoms": float(dropped),
        "baseline_estimators.omp_estimate.accepted_ratio": _ratio(accepted, accepted + dropped),
        "baseline_estimators.build_dictionary.ms": mean("baseline_estimators.build_dictionary", 1e3),
        "baseline_estimators.ls_observed_estimate.us": mean("baseline_estimators.ls_observed_estimate", 1e6),
        "experiment_cli.cmd_generate.s": mean("experiment_cli.cmd_generate", 1.0),
        "experiment_cli.cmd_train.s": mean("experiment_cli.cmd_train", 1.0),
        "experiment_cli.cmd_sweep.s": mean("experiment_cli.cmd_sweep", 1.0),
        "experiment_cli.cmd_sweep.self_s": mean("experiment_cli.cmd_sweep", 1.0, self_time),
        "experiment_cli.cmd_eval_single.ms": mean("experiment_cli.cmd_eval_single", 1e3),
        "experiment_cli.cmd_eval_single.self_us": mean("experiment_cli.cmd_eval_single", 1e6, self_time),
        "experiment_cli.cmd_eval_single.minor_faults": _ratio(
            sum(work(i) for i in by_name.get("experiment_cli.cmd_eval_single", ())),
            calls("experiment_cli.cmd_eval_single"),
        ),
        "config.total_ms": _ratio(config_total, len(traced_passes)) * 1e3,
        "harness.self_pct": 100.0 * _ratio(timed_wall - sum(module_self.values()), timed_wall),
        "trace.overhead_s": traced - untraced,
        "trace.overhead_pct": 100.0 * _ratio(traced - untraced, untraced),
    }
    for module in MODULES:
        values[f"{module}.self_pct"] = 100.0 * _ratio(module_self[module], timed_wall)
    return {name: values[name] for name, _ in PER_LAYER}
