"""The benchmark workloads: set-up, timed passes and output checks.

Every workload drives faslab through ``experiment_cli``'s command functions
with a config file it writes from the workload seed, the way a user runs the
lab.  Each command call is one operation.  It fails if it raises or if the
check of its outputs fails; checks run outside the timed interval.

A run has two parts:

* set-up, repeated ``SETUP_REPEATS`` times in fresh directories, at the
  start and inside the measured interval, so its median can be reported
  (``setup_s``);
* the measured interval of ``--seconds``: timed passes of the workload's
  pipeline, the README quick start (generate, train, sweep, eval-single),
  back to back.  ``wall_s`` is the median pass.

Every time is reported in reference seconds (see reference.py): scaled by
the speed of the host around the set-up or pass it was measured in.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from faslab import experiment_cli
from faslab.channel_model import draw_channel
from faslab.config import dataset_fingerprint
from faslab.dataset_pipeline import load_dataset, sample_stream, snr_stream_key
from faslab.mlp_estimator import load_model, predict, predict_batch
from faslab.pilot_system import noise_variance_for_snr, observe

from reference import REFERENCE_S, ReferenceKernel
from spans import Tracer, layer_metrics

SETUP_REPEATS = 7
# On a fully covered schedule nmse_ls must lie near sigma2/(1+sigma2).  The
# closed form holds for unit mean channel energy; a test set of T rows has a
# mean energy off by 0.67/sqrt(T) (one standard deviation, since the energy of
# one row has that coefficient of variation), so the tolerance is five of them.
LS_ENERGY_CV = 0.67
LS_TOLERANCE_SIGMAS = 5.0
# eval-single writes 6 significant digits, so its CSV can differ from the
# full-precision estimate by half a unit in the sixth digit.
CSV_REL_TOL = 5.000001e-6
PREDICT_REL_TOL = 1e-12
# eval-single pilots are drawn at this SNR and sent to the model trained on
# it (or to the mixed-SNR model).
EVAL_SNR_DB = 0.0

# (metric name, unit); every workload reports all of them with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("generate_rows_per_s", "rows/s"),
    ("train_rows_per_s", "rows/s"),
    ("sweep_rows_per_s", "rows/s"),
    ("val_nmse", "1"),
    ("nmse_mlp", "1"),
    ("nmse_omp", "1"),
    ("nmse_ls", "1"),
    ("peak_rss_mb", "MB"),
)


class CheckFailed(Exception):
    """An output of a command call is missing or wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Harness:
    """Counts operations and keeps the timings of the measured ones."""

    def __init__(self, tracer: Tracer | None = None):
        self.attempted = 0
        self.failed = 0
        self.record = True
        self.tracer = tracer
        self.untimed_seconds = 0.0
        self.raw_seconds = 0.0  # the last timed call, unscaled
        self.kernel = ReferenceKernel()
        self.kernel.run()  # first touch of its inputs
        self.kernel_seconds = [self.kernel.run()]
        # (seconds, rows) per kind, in reference seconds; the calls of the
        # unit being measured wait in _unit until its scale is known.
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self._unit: list[tuple[str, float, float]] = []
        self.val_nmse_db: dict[str, float] = {}
        self.sweep_nmse_db: dict[str, list[float]] = {}

    def op(self, kind: str, fn, *args, check=None):
        """Run one command call; return its result, or None if it failed.

        ``check(result)`` validates the outputs and returns the rows the call
        processed; (seconds, rows) is kept under ``kind`` while recording.
        """
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                result = fn(*args)
                seconds = time.perf_counter() - start
            rows = self.untimed(check, result) if check is not None else 1.0
        except Exception:  # one failed operation must not stop the run
            self.failed += 1
            print(f"operation {kind} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        if self.record:
            self._unit.append((kind, seconds, float(rows)))
        return result

    def untimed(self, fn, *args):
        """``fn(*args)`` outside the timed interval and outside any trace."""
        paused = self.tracer.paused() if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with paused:
                return fn(*args)
        finally:
            self.untimed_seconds += time.perf_counter() - start

    def timed(self, fn, *args) -> float:
        """Reference seconds of ``fn(*args)``, the time spent in checks left out.

        The reference kernel runs after the call; the call and every command
        sample taken inside it are scaled by the mean kernel time before and
        after it."""
        untimed = self.untimed_seconds
        start = time.perf_counter()
        fn(*args)
        self.raw_seconds = time.perf_counter() - start - (self.untimed_seconds - untimed)
        self.kernel_seconds.append(self.kernel.run())
        scale = REFERENCE_S / statistics.fmean(self.kernel_seconds[-2:])
        for kind, call_seconds, rows in self._unit:
            self.samples[kind].append((call_seconds * scale, rows))
        self._unit.clear()
        return self.raw_seconds * scale


# -- outputs and their checks ------------------------------------------------------


def _read_csv(path) -> list[list[str]]:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    return [line.split(",") for line in lines]


def _full_coverage(cfg) -> bool:
    """Every port observed exactly once (read from the fields, so a check
    never calls into the config methods)."""
    return cfg.schedule_kind == "sequential" and cfg.num_slots * cfg.num_antennas == cfg.num_ports


def _snr_points(cfg) -> list:
    return [list(cfg.snr_db_list)] if cfg.mixed_snr else list(cfg.snr_db_list)


def check_generate(cfg):
    def check(paths):
        points = _snr_points(cfg)
        _require(len(paths) == len(points), f"{len(paths)} dataset files for {len(points)} points")
        for path, snr in zip(paths, points):
            ds = load_dataset(path)  # verifies the payload checksum
            _require(ds.n_samples == cfg.n_train_samples, f"{path}: {ds.n_samples} rows")
            _require(
                ds.config_fingerprint == dataset_fingerprint(cfg, snr),
                f"{path}: fingerprint differs from the config's",
            )
        return len(paths) * cfg.n_train_samples

    return check


def check_train(h: Harness, cfg):
    n_val = int(round(cfg.rho * cfg.n_train_samples))
    n_train = cfg.n_train_samples - n_val

    def check(result):
        model_file, curve_file = result
        params, _ = load_model(model_file)  # verifies the checksum
        d_in = 2 * cfg.num_slots * cfg.num_antennas
        _require(
            params.dims() == (d_in, cfg.hidden_width, 2 * cfg.num_ports),
            f"{model_file}: dims {params.dims()}",
        )
        rows = _read_csv(curve_file)
        _require(rows[0] == ["epoch", "train_loss", "val_nmse_db"], f"{curve_file}: header")
        val_db = [float(r[2]) for r in rows[1:]]
        _require(
            0 < len(val_db) <= cfg.max_epochs and all(math.isfinite(v) for v in val_db),
            f"{curve_file}: {len(val_db)} epochs or non-finite values",
        )
        h.val_nmse_db[Path(model_file).stem] = min(val_db)
        return len(val_db) * n_train

    return check


def check_sweep(h: Harness, cfg):
    def check(path):
        rows = _read_csv(path)
        _require(rows[0] == ["snr_db", "estimator", "nmse_db", "n_test"], f"{path}: header")
        expected = [(snr, est) for snr in cfg.snr_db_list for est in experiment_cli.ESTIMATORS]
        found = [(float(r[0]), r[1]) for r in rows[1:]]
        _require(found == expected, f"{path}: rows {found}")
        values = defaultdict(list)
        for _, est, value, n_test in rows[1:]:
            _require(int(n_test) == cfg.n_test_samples, f"{path}: n_test {n_test}")
            _require(math.isfinite(float(value)), f"{path}: non-finite {est} value")
            values[est].append(float(value))
        if _full_coverage(cfg):
            spread = LS_TOLERANCE_SIGMAS * LS_ENERGY_CV / math.sqrt(cfg.n_test_samples)
            tolerance_db = 10.0 * math.log10(1.0 + spread)
            for snr, ls_db in zip(cfg.snr_db_list, values["ls_observed"]):
                sigma2 = noise_variance_for_snr(snr)
                closed = 10.0 * math.log10(sigma2 / (1.0 + sigma2))
                _require(
                    abs(ls_db - closed) <= tolerance_db,
                    f"{path}: LS {ls_db:.3f} dB at {snr} dB, closed form {closed:.3f} dB "
                    f"(tolerance {tolerance_db:.2f} dB)",
                )
        h.sweep_nmse_db = dict(values)
        return len(cfg.snr_db_list) * cfg.n_test_samples

    return check


class EvalSet:
    """Pilot CSVs for eval-single and the estimates expected for them.

    The expected estimate of each pilot is ``predict_batch`` on its row with
    the model the current pass trained; the single-row ``predict`` that
    eval-single uses must agree with it to 1e-12.
    """

    def __init__(self, cfg, snr_db: float, count: int, seed: int, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        geometry, scattering = cfg.geometry(), cfg.scattering()
        schedule = cfg.build_schedule()
        sigma2 = noise_variance_for_snr(snr_db)
        key = snr_stream_key(snr_db)
        rows = []
        for i in range(count):
            rng = sample_stream(seed, key, i)
            rows.append(observe(draw_channel(scattering, geometry, rng), schedule, sigma2, rng).samples)
        self.rows = np.array(rows)
        self.pilots = [out_dir / f"pilots_{i:03d}.csv" for i in range(count)]
        for path, row in zip(self.pilots, rows):
            lines = ["re,im"] + [f"{float(v.real)!r},{float(v.imag)!r}" for v in row]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.model: Path | None = None
        self._expected = None

    def use(self, model: Path) -> None:
        """Expect the estimates of ``model`` from now on."""
        self.model = model
        self._expected = None

    def expected(self, i: int) -> np.ndarray:
        if self._expected is None:
            params, normalizers = load_model(self.model)
            batch = predict_batch(params, normalizers, self.rows)
            agrees = [
                bool(np.max(np.abs(predict(params, normalizers, row) - want))
                     <= PREDICT_REL_TOL * np.max(np.abs(want)))
                for row, want in zip(self.rows, batch)
            ]
            self._expected = (batch, agrees)
        batch, agrees = self._expected
        _require(agrees[i], f"predict and predict_batch differ on {self.pilots[i]}")
        return batch[i]


def check_eval(es: EvalSet, i: int):
    def check(path):
        want = es.expected(i)
        want = np.stack([want.real, want.imag], axis=1)
        rows = _read_csv(path)
        _require(rows[0] == ["re", "im"], f"{path}: header")
        got = np.array([[float(a), float(b)] for a, b in rows[1:]])
        _require(got.shape == want.shape, f"{path}: {got.shape[0]} rows, expected {want.shape[0]}")
        _require(
            bool(np.all(np.abs(got - want) <= CSV_REL_TOL * np.abs(want))),
            f"{path}: estimate differs from predict_batch beyond CSV rounding",
        )
        return 1

    return check


# -- workloads -------------------------------------------------------------------


class Workload:
    """One set of inputs, run as the README quick start.

    Subclasses set the profile, the config overlay at each scale and the
    warm-up overlay.  Set-up writes the config, runs a tiny warm-up pipeline
    so lazy imports and first-touch costs are paid before timing, and writes
    the eval-single pilot CSVs.  A timed pass runs ``cmd_generate``,
    ``cmd_train`` per dataset, ``cmd_sweep`` and one ``cmd_eval_single`` per
    pilot CSV.

    Each pass writes into a new directory and the previous pass's files are
    removed outside the timed interval, so no command overwrites a file:
    on ext4, rewriting an existing file through truncation makes its close
    wait for the disk, which on a shared host adds milliseconds of noise to
    every small write.
    """

    name = ""
    profile = "desk"
    overlay: dict = {}
    smoke: dict = {}
    warmup: dict = {}
    eval_pilots = {"full": 16, "smoke": 2}

    def __init__(self, scale: str, seed: int):
        self.scale = scale
        seeds = np.random.SeedSequence(seed).generate_state(6)
        self.seeds = dict(zip(("channel", "schedule", "init", "shuffle", "test"), map(int, seeds)))
        self.pilot_seed = int(seeds[5])
        self.workdir: Path | None = None
        self.passes = 0
        self.evals: EvalSet | None = None

    def config(self, workdir: Path, extra: dict | None = None):
        """Write the config file the program sees, then load it like the CLI does."""
        data = dict(self.overlay)
        if self.scale == "smoke":
            data.update(self.smoke)
        data.update(extra or {})
        data.update(
            seeds=self.seeds,
            dataset_dir=str(workdir / "datasets"),
            model_dir=str(workdir / "models"),
            results_dir=str(workdir / "results"),
        )
        path = workdir / "config.json"
        path.write_text(json.dumps(data, indent=1), encoding="utf-8")
        return experiment_cli.load_config(path, self.profile)

    def generate(self, h, cfg):
        return h.op(
            "generate", experiment_cli.cmd_generate, cfg, check=check_generate(cfg)
        ) or []

    def train(self, h, cfg, datasets):
        for path in datasets:
            h.op("train", experiment_cli.cmd_train, cfg, path, check=check_train(h, cfg))

    def sweep(self, h, cfg):
        h.op("sweep", experiment_cli.cmd_sweep, cfg, check=check_sweep(h, cfg))

    def setup(self, h: Harness, workdir: Path) -> None:
        self.workdir, self.passes = workdir, 0
        cfg = self.config(workdir)
        (workdir / "warmup").mkdir()
        warm = self.config(workdir / "warmup", self.warmup)
        self.train(h, warm, self.generate(h, warm))
        self.sweep(h, warm)
        self.evals = EvalSet(
            cfg, EVAL_SNR_DB, self.eval_pilots[self.scale], self.pilot_seed, workdir / "pilots"
        )

    def next_pass_config(self):
        """The config of the next pass, whose output directories are new."""
        shutil.rmtree(self.workdir / f"pass{self.passes}", ignore_errors=True)
        self.passes += 1
        (self.workdir / f"pass{self.passes}").mkdir()
        return self.config(self.workdir / f"pass{self.passes}")

    def timed_pass(self, h: Harness) -> None:
        cfg = h.untimed(self.next_pass_config)
        self.train(h, cfg, self.generate(h, cfg))
        self.sweep(h, cfg)
        es = self.evals
        es.use(experiment_cli.model_path(cfg, list(cfg.snr_db_list) if cfg.mixed_snr else EVAL_SNR_DB))
        out = Path(cfg.results_dir)
        for i, pilot in enumerate(es.pilots):
            h.op(
                "eval", experiment_cli.cmd_eval_single, es.model, pilot,
                out / f"estimate_{i:03d}.csv", check=check_eval(es, i),
            )


class DeskPipeline(Workload):
    """Desk shapes, one model per SNR point, sequential full-coverage schedule.

    Small-shape training (Adam-bound at batch 64) is the largest part of a
    pass; three independent SNR points, where per-SNR parallelism would show."""

    name = "desk_pipeline"
    overlay = {"n_train_samples": 600, "max_epochs": 6, "n_test_samples": 120}
    smoke = {"n_train_samples": 96, "max_epochs": 1, "n_test_samples": 32}
    warmup = {"n_train_samples": 96, "max_epochs": 1, "n_test_samples": 16}


class PaperPipeline(Workload):
    """Paper shapes (256 ports, hidden 512, batch 256), random schedule, one
    mixed-SNR model.

    GEMM-bound training and OMP over the 1024-atom dictionary; one dataset
    and one model, so per-SNR parallelism of generate and train is bypassed."""

    name = "paper_pipeline"
    profile = "paper"
    overlay = {
        "schedule_kind": "random",
        "mixed_snr": True,
        "snr_db_list": [-10.0, 0.0, 10.0],
        "n_train_samples": 1024,
        # A fifth held out, so val_nmse rests on 205 rows, not 51.
        "rho": 0.2,
        "max_epochs": 3,
        "n_test_samples": 96,
    }
    smoke = {"n_train_samples": 300, "max_epochs": 1, "n_test_samples": 8}
    warmup = {"n_train_samples": 300, "max_epochs": 1, "n_test_samples": 4}
    eval_pilots = {"full": 8, "smoke": 2}


WORKLOADS = {w.name: w for w in (DeskPipeline, PaperPipeline)}


# -- one run ----------------------------------------------------------------------


def _median_rate(samples) -> float | None:
    rates = [rows / seconds for seconds, rows in samples if seconds > 0]
    return statistics.median(rates) if rates else None


def _db_mean_to_linear(values) -> float | None:
    values = list(values)
    return 10.0 ** (statistics.fmean(values) / 10.0) if values else None


def end_to_end_metrics(h: Harness, setups: list[float], passes: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(passes) if passes else None,
        "generate_rows_per_s": _median_rate(h.samples["generate"]),
        "train_rows_per_s": _median_rate(h.samples["train"]),
        "sweep_rows_per_s": _median_rate(h.samples["sweep"]),
        "val_nmse": _db_mean_to_linear(h.val_nmse_db.values()),
        "nmse_mlp": _db_mean_to_linear(h.sweep_nmse_db.get("mlp", ())),
        "nmse_omp": _db_mean_to_linear(h.sweep_nmse_db.get("omp", ())),
        "nmse_ls": _db_mean_to_linear(h.sweep_nmse_db.get("ls_observed", ())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str, tmp: Path):
    """Run one workload; return (harness, metrics, sample counts)."""
    workload = WORKLOADS[name](scale, seed)
    tracer = Tracer() if trace else None
    h = Harness(tracer)

    # Set-up runs once before the measured interval and, untraced, again at
    # even points inside it, so its median sees the same host as the passes.
    # Its calls are operations, but not samples: the warm-up sizes differ
    # from the measured ones.
    setups = []
    repeats = 1 if trace else SETUP_REPEATS

    def set_up():
        rep = len(setups)
        (tmp / f"run{rep}").mkdir()
        h.record = False
        try:
            setups.append(h.timed(workload.setup, h, tmp / f"run{rep}"))
        finally:
            h.record = True
        if rep > 0:
            shutil.rmtree(tmp / f"run{rep - 1}")

    set_up()

    # Measured interval: timed passes back to back.  A traced run alternates
    # untraced and traced passes, so the tracing overhead is measured within
    # one run; the spans are in raw seconds, so the trace is reduced with the
    # raw pass times.
    passes, traced_passes = [], []
    raw = {False: [], True: []}
    start = time.perf_counter()
    while True:
        trace_pass = bool(tracer) and len(passes) > len(traced_passes)
        if trace_pass:
            tracer.install()
        try:
            duration = h.timed(workload.timed_pass, h)
        finally:
            if trace_pass:
                tracer.uninstall()
        (traced_passes if trace_pass else passes).append(duration)
        raw[trace_pass].append(h.raw_seconds)
        elapsed = time.perf_counter() - start
        if len(setups) < repeats and elapsed >= seconds * len(setups) / repeats:
            set_up()
        elif elapsed >= seconds and (traced_passes or not tracer):
            break

    counts = {
        "setups": len(setups),
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        **{f"{kind}_calls": len(v) for kind, v in h.samples.items()},
        "reference_kernel_ms": round(1e3 * statistics.median(h.kernel_seconds), 4),
    }
    evals = [s * 1e3 for s, _ in h.samples["eval"]]
    if evals:
        # Printed with the counts, not bounded metrics: at desk shapes an
        # eval call takes either about 740 minor page faults or almost none,
        # as the allocator's state drifts, which moves its median by up to 2x
        # between runs of the same code.
        counts["eval_p50_ms"] = round(statistics.median(evals), 4)
    if len(evals) >= 100:  # a tail with at least ten calls beyond it
        counts["eval_p90_ms"] = round(float(np.percentile(evals, 90)), 4)
    if tracer:
        metrics = layer_metrics(tracer.spans, raw[True], raw[False])
    else:
        metrics = end_to_end_metrics(h, setups, passes)
    return h, metrics, counts
