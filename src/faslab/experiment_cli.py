"""Configuration-driven command-line harness.

Subcommands: ``generate`` (per-SNR dataset files), ``train`` (model +
convergence CSV for one dataset), ``sweep`` (NMSE-vs-SNR CSV across
estimators on a fresh test set), ``eval-single`` (one pilot vector through
a trained model).  Every command is a pure function of (config, inputs,
seeds): re-running reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .baseline_estimators import build_dictionary, ls_observed_estimate, omp_estimate
from .channel_model import draw_channel  # unused here; faslab_bench/spans.py traces it
from .config import (
    PROFILES,
    ExperimentConfig,
    canonical_json,
    dataset_fingerprint,
    snr_label,
)
from .dataset_pipeline import (
    generate_dataset,
    load_dataset,  # unused here; faslab_bench/spans.py traces it
    load_split,
    queue_test_sets,
    sample_stream,  # unused here; faslab_bench/spans.py traces it
    save_dataset,
    split,  # unused here; faslab_bench/spans.py traces it
    staged_artifacts,
    task_lane,
    write_artifact,
)
from .errors import ConfigError, TrainingDivergedError
from .mlp_estimator import (
    Hyperparams,
    channel_energy,
    ensemble_nmse,
    load_model,
    nmse_db,
    predict,
    predict_batch,
    report_to_csv,
    save_model,
    train,
)
from .pilot_system import noise_variance_for_snr
from .pilot_system import observe  # unused here; faslab_bench/spans.py traces it

ESTIMATORS = ("mlp", "omp", "ls_observed")


def _fmt(x: float) -> str:
    """CSV number format: 6 significant digits, '.' decimal separator."""
    return f"{float(x):.6g}"


def dataset_path(cfg: ExperimentConfig, snr_db) -> Path:
    return Path(cfg.dataset_dir) / f"{snr_label(snr_db)}.fasd"


def model_path(cfg: ExperimentConfig, snr_db) -> Path:
    return Path(cfg.model_dir) / f"{snr_label(snr_db)}.fasm"


def curve_path(cfg: ExperimentConfig, snr_db) -> Path:
    return Path(cfg.results_dir) / f"convergence_{snr_label(snr_db)}.csv"


def sweep_path(cfg: ExperimentConfig) -> Path:
    return Path(cfg.results_dir) / "sweep.csv"


def _fingerprint_int(fingerprint: bytes) -> int:
    """Stable integer tag from a dataset fingerprint, used to derive the
    training-side streams for that dataset."""
    return int.from_bytes(fingerprint[:8], "little")


# -- commands -----------------------------------------------------------------


def cmd_generate(cfg: ExperimentConfig, out_dir=None) -> list[Path]:
    """Write one dataset file per SNR point (or a single mixed file)."""
    return [cmd_generate_single(cfg, snr, out_dir) for snr in cfg.snr_points()]


def cmd_generate_single(cfg: ExperimentConfig, snr_db, out_dir=None) -> Path:
    """Generate, write and report the dataset for one SNR point (a list for
    the mixed mode), in ``out_dir`` or else the config's dataset_dir."""
    ds = generate_dataset(cfg, cfg.n_train_samples, snr_db, cfg.seeds.channel)
    path = dataset_path(cfg, snr_db)
    if out_dir is not None:
        path = Path(out_dir) / path.name
    save_dataset(ds, path)
    print(f"wrote {path} ({ds.n_samples} rows, widths "
          f"{ds.features.shape[1]}/{ds.targets.shape[1]})")
    return path


def cmd_train(
    cfg: ExperimentConfig,
    dataset_file,
    model_out=None,
    curve_out=None,
) -> tuple[Path, Path]:
    """Train on one dataset file; write the model and the convergence CSV,
    both or neither (see :func:`staged_artifacts`).

    All training-side streams (split, shuffling, initialization) derive
    from the config seeds combined with the dataset's fingerprint, so each
    SNR point trains reproducibly and independently.
    """
    dataset_file = Path(dataset_file)
    # The file's rows go straight into the two parts of the split: the file
    # is never held whole next to them.
    train_ds, val_ds = load_split(
        dataset_file,
        cfg.rho,
        lambda fingerprint: np.random.default_rng(
            (cfg.seeds.shuffle, _fingerprint_int(fingerprint), 0)
        ),
    )
    if train_ds.config_fingerprint not in {
        dataset_fingerprint(cfg, p) for p in cfg.snr_points()
    }:
        warnings.warn(
            f"{dataset_file}: fingerprint does not match any SNR point of "
            "this configuration; proceeding anyway",
            stacklevel=2,
        )
    tag = _fingerprint_int(train_ds.config_fingerprint)
    shuffle_rng = np.random.default_rng((cfg.seeds.shuffle, tag, 1))
    init_rng = np.random.default_rng((cfg.seeds.init, tag))
    hyper = Hyperparams(
        hidden_width=cfg.hidden_width,
        learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size,
        max_epochs=cfg.max_epochs,
        patience=cfg.patience,
        compute_dtype=cfg.compute_dtype,
    )
    params, normalizers, report = train(
        train_ds, val_ds, hyper, init_rng, shuffle_rng
    )

    model_file = Path(model_out) if model_out else Path(cfg.model_dir) / (
        dataset_file.stem + ".fasm"
    )
    curve_file = Path(curve_out) if curve_out else Path(cfg.results_dir) / (
        "convergence_" + dataset_file.stem + ".csv"
    )
    curve = report_to_csv(report).encode()
    with staged_artifacts(model_file, curve_file) as (model_tmp, curve_tmp):
        save_model(model_tmp, params, normalizers)
        write_artifact(curve_tmp, [curve])
    print(
        f"trained {dataset_file.stem} in {cfg.compute_dtype}: best epoch {report.best_epoch}/"
        f"{report.epochs_run}, val NMSE {report.val_nmse_db[report.best_epoch - 1]:.2f} dB"
        f"{' (early stop)' if report.stopped_early else ''}"
    )
    return model_file, curve_file


def _sweep_model(cfg: ExperimentConfig, snr, build_missing: bool) -> Path:
    """The model file the sweep scores ``snr`` with, generated and trained
    first when it is missing and ``build_missing`` is set."""
    # The mixed mode shares one model across the whole sweep.
    model_key = list(cfg.snr_db_list) if cfg.mixed_snr else snr
    mfile = model_path(cfg, model_key)
    if mfile.exists():
        return mfile
    if not build_missing:
        raise FileNotFoundError(
            f"missing model {mfile}; run `faslab generate` then "
            f"`faslab train --dataset {dataset_path(cfg, model_key)}` first "
            "(or pass --build to sweep)"
        )
    dfile = dataset_path(cfg, model_key)
    saved = dfile if dfile.exists() else cmd_generate_single(cfg, model_key)
    return cmd_train(cfg, saved)[0]


def cmd_sweep(cfg: ExperimentConfig, out_csv=None, build_missing: bool = False) -> Path:
    """NMSE (dB) per SNR per estimator over a fresh test set.

    Expects per-SNR models from ``generate`` + ``train``; with
    ``build_missing`` they are produced on the fly.  Every model is found or
    built before the first test set is drawn, so a missing one fails the
    sweep at once.  The test sets' block syntheses and OMP's row blocks are
    tasks on one :func:`task_lane`: with two CPUs or more its helper thread
    synthesizes the next SNR's test set, which this thread draws, and takes
    OMP blocks while this thread scores (see :func:`queue_test_sets` and
    :func:`omp_estimate`); the bytes written do not depend on it.  Each
    SNR's channel energy is taken once, and one pair of error buffers serves
    every estimator's :func:`ensemble_nmse`; neither changes a bit of the
    result.
    """
    model_files = [_sweep_model(cfg, snr, build_missing) for snr in cfg.snr_db_list]
    schedule = cfg.build_schedule()
    rows = []
    # Only the current model is held: the mixed mode loads its one model
    # once, and a per-SNR model is dropped before the next is loaded.
    loaded = params = normalizers = None
    shape = (cfg.n_test_samples, cfg.num_ports)
    scratch = (np.empty(shape, dtype=complex), np.empty(shape))
    with task_lane() as lane:
        test_sets = queue_test_sets(lane, cfg, schedule)
        dictionary = build_dictionary(
            cfg.geometry(), schedule, cfg.dictionary_oversampling * cfg.num_ports
        )
        sparsity = min(2 * cfg.num_clusters, schedule.num_samples)
        for snr, mfile in zip(cfg.snr_db_list, model_files):
            if mfile != loaded:
                params = normalizers = None
                params, normalizers = load_model(mfile)
                loaded = mfile
            channels, pilots = next(test_sets)
            energy = channel_energy(channels)
            estimates = {
                "mlp": predict_batch(params, normalizers, pilots),
                "omp": omp_estimate(pilots, dictionary, sparsity),
                "ls_observed": ls_observed_estimate(
                    pilots, schedule, noise_variance_for_snr(snr)
                ),
            }
            for name in ESTIMATORS:
                value = nmse_db(ensemble_nmse(estimates[name], channels, energy, scratch))
                rows.append((snr, name, value))
                print(f"snr {snr:+.1f} dB  {name:<12} {value:8.2f} dB")

    out = Path(out_csv) if out_csv else sweep_path(cfg)
    lines = ["snr_db,estimator,nmse_db,n_test"]
    for snr, name, value in rows:
        lines.append(f"{_fmt(snr)},{name},{_fmt(value)},{cfg.n_test_samples}")
    write_artifact(out, [("\n".join(lines) + "\n").encode()])
    return out


def _parse_complex_csv(path) -> np.ndarray:
    """Complex vector from a two-column (re, im) CSV with optional header.
    A UTF-8 byte-order mark (Excel's "CSV UTF-8") is skipped."""
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    values = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        if lineno == 1 and text.lower().replace(" ", "") == "re,im":
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(
                f"{path}:{lineno}: expected 're,im' pair, got {text!r}"
            )
        try:
            re_part, im_part = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if not (math.isfinite(re_part) and math.isfinite(im_part)):
            raise ValueError(f"{path}:{lineno}: non-finite value in {text!r}")
        values.append(complex(re_part, im_part))
    return np.array(values, dtype=complex)


def cmd_eval_single(model_file, pilot_csv, out_csv) -> Path:
    """Run one stacked pilot vector through a trained model; write the
    estimated channel as an (re, im) CSV."""
    pilot = _parse_complex_csv(pilot_csv)
    params, normalizers = load_model(model_file)
    expected = params.dims()[0] // 2
    if pilot.size != expected:
        raise ValueError(
            f"{pilot_csv}: pilot vector has {pilot.size} entries, model "
            f"expects {expected}"
        )
    estimate = predict(params, normalizers, pilot)
    out = Path(out_csv)
    lines = ["re,im"]
    for value in estimate:
        lines.append(f"{_fmt(value.real)},{_fmt(value.imag)}")
    write_artifact(out, [("\n".join(lines) + "\n").encode()])
    return out


# -- argument parsing -----------------------------------------------------------


def load_config(
    config_path=None, profile: str = "paper", seed_overrides=None
) -> ExperimentConfig:
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile '{profile}'")
    cfg = PROFILES[profile]()
    if config_path is not None:
        try:
            # utf-8-sig skips a byte-order mark, which json.loads refuses.
            text = Path(config_path).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{config_path}: {exc}") from None
        cfg = ExperimentConfig.from_json(text, base=cfg, source=str(config_path))
    return ExperimentConfig.from_dict({"seeds": seed_overrides or {}}, base=cfg)


def _seed_override(arg: str) -> tuple[str, int]:
    if "=" not in arg:
        raise argparse.ArgumentTypeError(
            f"seed override must look like name=value, got {arg!r}"
        )
    name, _, value = arg.partition("=")
    try:
        return name.strip(), int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed value must be an integer: {arg!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faslab",
        description="Fluid antenna channel reconstruction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file over the profile defaults")
        p.add_argument(
            "--profile", choices=sorted(PROFILES), default="paper",
            help="base parameter profile",
        )
        p.add_argument(
            "--seed-override", action="append", type=_seed_override, default=[],
            metavar="NAME=VALUE", help="override one master seed",
        )

    p_gen = sub.add_parser("generate", help="write per-SNR dataset files")
    common(p_gen)
    p_gen.add_argument("--out", help="output directory (default: config dataset_dir)")

    p_train = sub.add_parser("train", help="train a model on one dataset file")
    common(p_train)
    p_train.add_argument("--dataset", required=True, help="dataset file to train on")
    p_train.add_argument("--out", help="model file path")
    p_train.add_argument("--curve", help="convergence CSV path")

    p_sweep = sub.add_parser("sweep", help="NMSE-vs-SNR comparison CSV")
    common(p_sweep)
    p_sweep.add_argument("--out", help="results CSV path")
    p_sweep.add_argument(
        "--build", action="store_true",
        help="generate datasets / train models that are missing",
    )

    p_eval = sub.add_parser("eval-single", help="estimate one channel from pilots")
    p_eval.add_argument("--model", required=True, help="trained model file")
    p_eval.add_argument("--pilots", required=True, help="input pilot CSV (re,im)")
    p_eval.add_argument("--out", required=True, help="output channel CSV (re,im)")

    p_cfg = sub.add_parser("show-config", help="print the resolved configuration")
    common(p_cfg)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval-single":
            cmd_eval_single(args.model, args.pilots, args.out)
            return 0
        cfg = load_config(args.config, args.profile, dict(args.seed_override))
        if args.command == "generate":
            cmd_generate(cfg, args.out)
        elif args.command == "train":
            cmd_train(cfg, args.dataset, args.out, args.curve)
        elif args.command == "sweep":
            cmd_sweep(cfg, args.out, build_missing=args.build)
        elif args.command == "show-config":
            print(canonical_json(cfg))
        return 0
    except (ConfigError, OSError, ValueError, TrainingDivergedError) as exc:
        # An OSError holds its paths apart from its message; the second,
        # where os.replace gives one, is the artifact written.
        path = getattr(exc, "filename2", None) or getattr(exc, "filename", None)
        print(f"error: {f'{path}: {exc.strerror}' if path else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
