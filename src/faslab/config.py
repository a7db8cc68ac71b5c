"""Experiment configuration, profiles, canonical serialization and fingerprints.

The default configuration reproduces the reference simulation setup
(256 ports over a 10-wavelength aperture, 4 antennas, 64 pilot slots,
hidden width 512, 5e4 training samples, batch 256, lr 1e-4, patience 20);
the "paper" profile is that setup trained in float32.  A reduced "desk"
profile, trained in float64, ships for CPU-scale runs and CI.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .channel_model import ArrayGeometry, ScatteringConfig
from .errors import ConfigError
from .pilot_system import (
    SwitchSchedule,
    noise_variance_for_snr,
    random_schedule,
    sequential_schedule,
)

SCHEDULE_KINDS = ("sequential", "random")
# Training precisions; the model file and inference stay float64 either way.
COMPUTE_DTYPES = ("float64", "float32")


@dataclass(frozen=True)
class Seeds:
    """Independent master seeds for each randomness consumer."""

    channel: int = 101
    schedule: int = 202
    init: int = 303
    shuffle: int = 404
    test: int = 505

    def __post_init__(self) -> None:
        for f in fields(self):
            name = f"seeds.{f.name}"
            value = _coerce(name, int, getattr(self, f.name))
            if value < 0:
                # Stream seeds are non-negative entropy words.
                raise ConfigError(f"{name}: must be an integer >= 0 (got {value!r})")
            object.__setattr__(self, f.name, value)


def _coerce(name: str, kind: type, value):
    """``value`` as a ``kind``, refusing lossy conversions: bool fields take
    only bools, int fields take integral numbers but no bools, float fields
    take any real number but no bools, other fields only their own type."""
    is_number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if kind is bool:
        ok = isinstance(value, bool)
    elif kind is int:
        ok = is_number and (isinstance(value, numbers.Integral) or float(value).is_integer())
    elif kind is float:
        ok = is_number
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}")
    try:
        return kind(value) if kind in (int, float) else value
    except OverflowError:
        # float() of an integer beyond the float range.
        raise ConfigError(f"{name}: got an integer out of the {kind.__name__} range") from None


def snr_label(snr_db) -> str:
    """The SNR part of an artifact's file name: the SNR at one decimal, or
    ``snr_mixed`` for the list of the mixed mode."""
    if isinstance(snr_db, (list, tuple)):
        return "snr_mixed"
    return f"snr{float(snr_db):+.1f}dB"


def validation_rows(n: int, rho: float) -> int:
    """The rows a split of ``n`` rows at ``rho`` holds out for validation."""
    return int(round(rho * n))


def _finite_noise_variance(snr_db: float) -> bool:
    try:
        return math.isfinite(noise_variance_for_snr(snr_db))
    except OverflowError:
        return False


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's parameters; immutable, and valid once built.

    Derive a variant with ``dataclasses.replace``, which checks it again.
    """

    num_ports: int = 256
    num_antennas: int = 4
    num_slots: int = 64
    aperture_wavelengths: float = 10.0
    # Metadata only: results depend on the spacing ratio alone.
    carrier_frequency_hz: float = 3.5e9
    num_clusters: int = 2
    rays_per_cluster: int = 10
    max_angle_spread_deg: float = 5.0
    snr_db_list: list[float] = field(
        default_factory=lambda: [-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0]
    )
    schedule_kind: str = "sequential"
    mixed_snr: bool = False
    n_train_samples: int = 50_000
    rho: float = 0.05
    batch_size: int = 256
    learning_rate: float = 1e-4
    hidden_width: int = 512
    patience: int = 20
    max_epochs: int = 200
    n_test_samples: int = 2000
    dictionary_oversampling: int = 4
    seeds: Seeds = field(default_factory=Seeds)
    # Post-v1: the float type the MLP trains in (see _POST_V1_FIELDS).
    compute_dtype: str = "float64"
    dataset_dir: str = "artifacts/datasets"
    model_dir: str = "artifacts/models"
    results_dir: str = "artifacts/results"

    def __post_init__(self) -> None:
        # Coerced once, here, so that equal values give one canonical JSON
        # and one fingerprint however the config was built.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "snr_db_list":
                value = [_coerce(f.name, float, v) for v in _coerce(f.name, list, value)]
            else:
                value = _coerce(f.name, Seeds if f.name == "seeds" else type(f.default), value)
            object.__setattr__(self, f.name, value)
        self.validate()

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Raise ConfigError naming the first offending field."""
        def check(cond: bool, name: str, detail: str) -> None:
            if not cond:
                raise ConfigError(f"{name}: {detail} (got {getattr(self, name)!r})")

        check(self.num_ports >= 2, "num_ports", "must be an integer >= 2")
        check(self.num_antennas >= 1, "num_antennas", "must be an integer >= 1")
        check(
            self.num_antennas <= self.num_ports,
            "num_antennas",
            f"must not exceed num_ports = {self.num_ports}",
        )
        check(self.num_slots >= 1, "num_slots", "must be an integer >= 1")
        check(
            0 < self.aperture_wavelengths < math.inf,
            "aperture_wavelengths",
            "must be positive and finite",
        )
        check(
            0 < self.carrier_frequency_hz < math.inf,
            "carrier_frequency_hz",
            "must be positive and finite",
        )
        check(self.num_clusters >= 1, "num_clusters", "must be an integer >= 1")
        check(self.rays_per_cluster >= 1, "rays_per_cluster", "must be an integer >= 1")
        check(
            0 <= self.max_angle_spread_deg < math.inf,
            "max_angle_spread_deg",
            "must be finite and >= 0",
        )
        check(
            len(self.snr_db_list) > 0
            and all(math.isfinite(s) for s in self.snr_db_list),
            "snr_db_list",
            "must be a non-empty list of finite values",
        )
        check(
            all(_finite_noise_variance(s) for s in self.snr_db_list),
            "snr_db_list",
            "an SNR so low that its noise variance 10^(-SNR/10) overflows",
        )
        # Each point writes its own dataset, model and curve files.
        seen = {}
        for point in self.snr_points():
            label = snr_label(point)
            check(
                label not in seen,
                "snr_db_list",
                f"{seen.get(label)!r} and {point!r} would share the artifact "
                f"name {label} (one decimal)",
            )
            seen[label] = point
        check(
            self.schedule_kind in SCHEDULE_KINDS,
            "schedule_kind",
            f"must be one of {SCHEDULE_KINDS}",
        )
        if self.schedule_kind == "sequential":
            try:
                sequential_schedule(self.num_ports, self.num_antennas, self.num_slots)
            except ValueError as exc:
                raise ConfigError(f"num_slots: {exc} (got {self.num_slots!r})") from None
        check(self.n_train_samples >= 2, "n_train_samples", "must be an integer >= 2")
        check(0.0 < self.rho < 1.0, "rho", "must lie strictly between 0 and 1")
        n_val = validation_rows(self.n_train_samples, self.rho)
        check(
            0 < n_val < self.n_train_samples,
            "rho",
            f"holds out {n_val} of n_train_samples = {self.n_train_samples} rows "
            "for validation; training and validation each need a row",
        )
        check(self.batch_size >= 1, "batch_size", "must be an integer >= 1")
        check(
            0 < self.learning_rate < math.inf,
            "learning_rate",
            "must be positive and finite",
        )
        check(self.hidden_width >= 1, "hidden_width", "must be an integer >= 1")
        check(self.patience >= 0, "patience", "must be an integer >= 0")
        check(self.max_epochs >= 1, "max_epochs", "must be an integer >= 1")
        check(self.n_test_samples >= 1, "n_test_samples", "must be an integer >= 1")
        check(
            self.dictionary_oversampling >= 1,
            "dictionary_oversampling",
            "must be an integer >= 1",
        )
        check(
            self.compute_dtype in COMPUTE_DTYPES,
            "compute_dtype",
            f"must be one of {COMPUTE_DTYPES}",
        )

    def snr_points(self) -> list:
        """The points that each get a dataset, a model and a curve: every SNR,
        or in the mixed mode the whole list once."""
        return [list(self.snr_db_list)] if self.mixed_snr else list(self.snr_db_list)

    # -- derived physical objects ---------------------------------------

    @property
    def max_angle_spread_rad(self) -> float:
        return math.radians(self.max_angle_spread_deg)

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.num_ports, self.aperture_wavelengths)

    def scattering(self) -> ScatteringConfig:
        return ScatteringConfig(
            self.num_clusters, self.rays_per_cluster, self.max_angle_spread_rad
        )

    def build_schedule(self) -> SwitchSchedule:
        """The (fixed) schedule all pipeline stages share for this config."""
        if self.schedule_kind == "sequential":
            return sequential_schedule(self.num_ports, self.num_antennas, self.num_slots)
        rng = np.random.default_rng((self.seeds.schedule,))
        return random_schedule(self.num_ports, self.num_antennas, self.num_slots, rng)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(
        cls, data: dict, base: "ExperimentConfig | None" = None, source: str = "config"
    ) -> "ExperimentConfig":
        """Build a config from a (possibly partial) dict over ``base`` defaults.

        ``source`` names where ``data`` came from in the error raised when it
        is not a JSON object."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"{source}: expected a JSON object, got {_json_type(data)}"
            )
        base = base if base is not None else cls()
        known = {f.name for f in fields(cls)}
        changes = {}
        for key, value in data.items():
            if key not in known:
                raise ConfigError(f"unknown config key '{key}'")
            if key == "seeds":
                if not isinstance(value, dict):
                    raise ConfigError(f"seeds: expected an object, got {value!r}")
                unknown = value.keys() - {f.name for f in fields(Seeds)}
                if unknown:
                    raise ConfigError(f"unknown seed name '{min(unknown)}'")
                value = replace(base.seeds, **value)
            changes[key] = value
        return replace(base, **changes)

    @classmethod
    def from_json(
        cls, text: str, base: "ExperimentConfig | None" = None, source: str = "config"
    ) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: {exc}") from None
        return cls.from_dict(data, base=base, source=source)


def _json_type(value) -> str:
    """The JSON name of the type ``json.loads`` gave ``value``."""
    names = {list: "array", str: "string", bool: "boolean", int: "number",
             float: "number", type(None): "null"}
    return names.get(type(value), type(value).__name__)


def _canonical(doc: dict) -> str:
    """Sorted keys, compact separators, exact floats: the text fingerprints hash."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _digest(doc: dict) -> bytes:
    return hashlib.sha256(_canonical(doc).encode("utf-8")).digest()


def canonical_json(cfg: ExperimentConfig) -> str:
    """Canonical serialization: sorted keys, compact separators, exact floats."""
    return _canonical(cfg.to_dict())


# Storage locations are excluded from fingerprints: where artifacts live must
# not change what gets generated or trained.
_PATH_FIELDS = ("dataset_dir", "model_dir", "results_dir")
# Fields added after v1 are excluded too, so that adding one moves no FASD
# header and no split, shuffle or init stream (cmd_train derives those from
# the dataset fingerprint).  Training precision changes no dataset byte.
_POST_V1_FIELDS = ("compute_dtype",)


def _fingerprint_payload(cfg: ExperimentConfig) -> dict:
    data = cfg.to_dict()
    for key in _PATH_FIELDS + _POST_V1_FIELDS:
        data.pop(key, None)
    return data


def config_fingerprint(cfg: ExperimentConfig) -> bytes:
    """32-byte digest of the experiment-defining fields (paths and post-v1
    fields excluded)."""
    return _digest(_fingerprint_payload(cfg))


def dataset_fingerprint(cfg: ExperimentConfig, snr_db) -> bytes:
    """Digest identifying one generated dataset: the config plus its SNR point.

    ``snr_db`` is a float for per-SNR datasets or a list for the mixed mode.
    """
    if isinstance(snr_db, (list, tuple)):
        tag: object = [float(s) for s in snr_db]
    else:
        tag = float(snr_db)
    return _digest({"config": _fingerprint_payload(cfg), "dataset_snr_db": tag})


def paper_profile() -> ExperimentConfig:
    """Full-scale reference setup (GPU-friendly; heavy on CPU).

    It trains in float32, about twice as fast as float64 at these shapes;
    the model file and inference stay float64.
    """
    return ExperimentConfig(compute_dtype="float32")


def desk_profile() -> ExperimentConfig:
    """Reduced setup sized for desktop CPUs and CI.

    Keeps full port coverage (P*M = N) and the sparse two-cluster scenario;
    the learning rate and batch size are rescaled so training converges,
    plateaus, and early-stops within the shortened epoch budget.
    """
    return ExperimentConfig(
        num_ports=64,
        num_slots=16,
        n_train_samples=8000,
        hidden_width=256,
        max_epochs=60,
        learning_rate=7e-4,
        batch_size=64,
        snr_db_list=[-10.0, 0.0, 10.0],
        n_test_samples=2000,
    )


PROFILES = {"paper": paper_profile, "desk": desk_profile}
