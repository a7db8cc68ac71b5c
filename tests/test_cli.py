"""Tests for the configuration surface and the command-line harness."""

import json
import math
import re
import shutil
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from faslab import dataset_pipeline, experiment_cli
from faslab.config import (
    COMPUTE_DTYPES,
    PROFILES,
    SCHEDULE_KINDS,
    ExperimentConfig,
    Seeds,
    canonical_json,
    config_fingerprint,
    dataset_fingerprint,
    desk_profile,
    paper_profile,
)
from faslab.errors import ChecksumError, ConfigError
from faslab.experiment_cli import (
    cmd_eval_single,
    cmd_generate,
    cmd_sweep,
    cmd_train,
    load_config,
    main,
)
from faslab.mlp_estimator import ensemble_nmse, load_model, predict, predict_batch
from faslab.pilot_system import noise_variance_for_snr, observe
from faslab.channel_model import draw_channel
from test_golden import CONFIGS as GOLDEN_CONFIGS, golden_config


def micro_config(tmp_path, **overrides):
    """A config small enough to run the full pipeline in seconds."""
    cfg = ExperimentConfig(
        num_ports=32,
        num_antennas=2,
        num_slots=16,
        aperture_wavelengths=4.0,
        num_clusters=1,
        rays_per_cluster=2,
        snr_db_list=[0.0, 10.0],
        n_train_samples=400,
        hidden_width=24,
        batch_size=32,
        learning_rate=3e-3,
        max_epochs=6,
        patience=10,
        n_test_samples=40,
        dataset_dir=str(tmp_path / "datasets"),
        model_dir=str(tmp_path / "models"),
        results_dir=str(tmp_path / "results"),
    )
    return replace(cfg, **overrides)


class TestConfigDefaults:
    def test_reference_table_values(self):
        cfg = paper_profile()
        assert cfg.num_ports == 256
        assert cfg.num_antennas == 4
        assert cfg.num_slots == 64
        assert cfg.carrier_frequency_hz == 3.5e9
        assert cfg.aperture_wavelengths == 10.0
        assert cfg.max_angle_spread_deg == 5.0
        assert cfg.hidden_width == 512
        assert cfg.n_train_samples == 50_000
        assert cfg.rho == 0.05
        assert cfg.batch_size == 256
        assert cfg.learning_rate == 1e-4
        assert cfg.patience == 20

    def test_training_precision_defaults(self):
        assert ExperimentConfig().compute_dtype == "float64"
        assert desk_profile().compute_dtype == "float64"
        assert paper_profile().compute_dtype == "float32"

    def test_desk_profile_keeps_full_coverage(self):
        cfg = desk_profile()
        assert cfg.num_ports == 64
        assert cfg.num_slots * cfg.num_antennas == cfg.num_ports
        assert cfg.n_train_samples == 8000
        assert cfg.hidden_width == 256
        assert cfg.max_epochs == 60


class TestConfigValidation:
    def test_bad_rho_names_field(self):
        with pytest.raises(ConfigError, match="rho"):
            cfg = ExperimentConfig(rho=1.2)
            cfg.validate()

    def test_antennas_exceeding_ports_named(self):
        with pytest.raises(ConfigError, match="num_antennas"):
            cfg = ExperimentConfig(num_ports=4, num_antennas=8)
            cfg.validate()

    def test_bad_schedule_kind_named(self):
        with pytest.raises(ConfigError, match="schedule_kind"):
            cfg = ExperimentConfig(schedule_kind="zigzag")
            cfg.validate()

    @pytest.mark.parametrize("value", ["float16", 32])
    def test_bad_compute_dtype_named(self, value):
        with pytest.raises(ConfigError, match="compute_dtype"):
            ExperimentConfig(compute_dtype=value).validate()
        with pytest.raises(ConfigError, match="compute_dtype"):
            ExperimentConfig.from_dict({"compute_dtype": value}).validate()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="learning_rte"):
            ExperimentConfig.from_dict({"learning_rte": 0.1})

    def test_unknown_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict({"seeds": {"bogus": 1}})

    def test_sequential_schedule_that_cannot_be_built_names_num_slots(self, tmp_path, capsys):
        # 17 slots of 4 antennas is 68 samples over 64 ports: uneven coverage.
        with pytest.raises(ConfigError, match=r"num_slots: num_slots\*num_antennas = 68 "):
            replace(desk_profile(), num_slots=17)
        replace(desk_profile(), num_slots=17, schedule_kind="random")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"num_slots": 17}))
        assert main(["show-config", "--profile", "desk", "--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err.startswith("error: num_slots: ")

    def test_training_size_leaving_a_split_side_empty_names_rho(self, tmp_path, capsys):
        # round(0.05 * 2) = 0 validation rows; round(0.9 * 2) = 2 leaves no training row.
        with pytest.raises(ConfigError, match="rho: holds out 0 of n_train_samples = 2 "):
            replace(desk_profile(), n_train_samples=2)
        with pytest.raises(ConfigError, match="rho: holds out 2 of n_train_samples = 2 "):
            replace(desk_profile(), n_train_samples=2, rho=0.9)
        assert replace(desk_profile(), n_train_samples=30).n_train_samples == 30  # 2 held out
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n_train_samples": 2}))
        assert main(["show-config", "--profile", "desk", "--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err.startswith("error: rho: ")

    @pytest.mark.parametrize(
        "name",
        ["aperture_wavelengths", "carrier_frequency_hz", "max_angle_spread_deg", "learning_rate"],
    )
    def test_infinite_float_rejected_naming_field(self, name, tmp_path, capsys):
        with pytest.raises(ConfigError, match=f"^{name}: must be .*finite"):
            replace(desk_profile(), **{name: math.inf})
        text = f'{{"{name}": Infinity}}'
        with pytest.raises(ConfigError, match=f"^{name}: "):
            ExperimentConfig.from_json(text)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        assert main(["show-config", "--profile", "desk", "--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {name}: ")

    @pytest.mark.parametrize(
        "text, name",
        [
            ('{"learning_rate": 1%s}' % ("0" * 400), "learning_rate"),
            ('{"snr_db_list": [0, 1%s]}' % ("0" * 400), "snr_db_list"),
        ],
        ids=["learning_rate", "snr_db_list"],
    )
    def test_integer_beyond_the_float_range_names_field(self, text, name, tmp_path, capsys):
        with pytest.raises(ConfigError, match=f"^{name}: .*out of the float range"):
            ExperimentConfig.from_json(text)
        cfg_file = tmp_path / "big.json"
        cfg_file.write_text(text)
        assert main(["show-config", "--profile", "desk", "--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {name}: ")

    def test_negative_seed_exits_nonzero(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seeds": {"channel": -1}}))
        assert main(["show-config", "--profile", "desk", "--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err == "error: seeds.channel: must be an integer >= 0 (got -1)\n"
        assert main(["show-config", "--seed-override", "test=-2"]) == 1
        assert capsys.readouterr().err.startswith("error: seeds.test: must be an integer >= 0")


class TestStrictOverlay:
    """The overlay refuses values that would change meaning on conversion."""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("mixed_snr", "false"),
            ("mixed_snr", 0),
            ("num_ports", 64.9),
            ("num_ports", "64"),
            ("hidden_width", True),
            ("learning_rate", True),
            ("learning_rate", "1e-3"),
            ("schedule_kind", 3),
            ("snr_db_list", [0.0, True]),
            ("snr_db_list", ["5"]),
            ("snr_db_list", 5.0),
        ],
    )
    def test_lossy_value_rejected_naming_field(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({key: value})

    @pytest.mark.parametrize("value", [1.5, True, "7", -1])
    def test_bad_seed_rejected_naming_seed(self, value):
        with pytest.raises(ConfigError, match="seeds.channel"):
            ExperimentConfig.from_dict({"seeds": {"channel": value}})

    def test_exact_conversions_accepted(self):
        cfg = ExperimentConfig.from_dict({
            "num_ports": 64.0, "learning_rate": 1, "mixed_snr": False,
            "snr_db_list": [-5, 2.5], "seeds": {"test": 9.0},
        })
        assert cfg.num_ports == 64 and type(cfg.num_ports) is int
        assert cfg.learning_rate == 1.0 and type(cfg.learning_rate) is float
        assert cfg.mixed_snr is False
        assert cfg.snr_db_list == [-5.0, 2.5]
        assert cfg.seeds.test == 9 and type(cfg.seeds.test) is int

    def test_constructor_coerces_like_the_overlay(self):
        # Equal values give one canonical JSON and one fingerprint, whichever
        # way the config was built.
        direct = replace(
            desk_profile(), snr_db_list=[0, 10], learning_rate=1, seeds=Seeds(test=9.0)
        )
        overlay = ExperimentConfig.from_dict(
            {"snr_db_list": [0, 10], "learning_rate": 1, "seeds": {"test": 9}},
            base=desk_profile(),
        )
        assert canonical_json(direct) == canonical_json(overlay)
        for point in direct.snr_points():
            assert dataset_fingerprint(direct, point) == dataset_fingerprint(overlay, point)
        assert type(direct.learning_rate) is float and type(direct.seeds.test) is int

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: replace(desk_profile(), hidden_width=True), "hidden_width"),
            (lambda: replace(desk_profile(), snr_db_list=(0.0, 10.0)), "snr_db_list"),
            (lambda: replace(desk_profile(), seeds={"channel": 1}), "seeds"),
            (lambda: Seeds(channel=True), "seeds.channel"),
        ],
        ids=["hidden_width", "snr_db_list", "seeds", "seeds.channel"],
    )
    def test_constructor_refuses_lossy_value_naming_field(self, build, name):
        with pytest.raises(ConfigError, match=f"^{name}: expected "):
            build()

    def test_cli_reports_rejected_field(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"num_ports": 64.9}))
        assert main(["show-config", "--config", str(cfg_file)]) == 1
        assert "num_ports" in capsys.readouterr().err


# Small integers: validate() builds the sequential schedule, whose size is
# num_slots * num_antennas.
INTS = st.integers(-4, 300)
REALS = st.floats()  # nan and the infinities included
NON_INTEGRAL = INTS.map(lambda n: n + 0.5) | st.sampled_from([np.nan, np.inf, -np.inf])
TEXT = st.text("ab7.", max_size=3)  # a fixed alphabet spares hypothesis its Unicode tables
SEED_NAMES = [f.name for f in fields(Seeds)]


def overlay_values(f):
    """(well-typed, ill-typed) strategies for the overlay value of field ``f``."""
    if f.name == "seeds":
        def seeds(values):
            return st.dictionaries(st.sampled_from(SEED_NAMES), values, min_size=1, max_size=3)

        good = st.integers(0, 2**32)
        return (
            seeds(good | good.map(float)),
            seeds(st.booleans() | NON_INTEGRAL | TEXT) | st.none() | st.just([1]),
        )
    if f.name == "snr_db_list":
        return (
            st.lists(REALS | INTS, max_size=4),
            REALS | st.none() | st.lists(st.booleans() | TEXT, min_size=1, max_size=3),
        )
    others = st.none() | st.just([1]) | st.just({})
    kind = type(f.default)
    if kind is bool:
        return st.booleans(), others | INTS | TEXT
    if kind is int:
        return INTS | INTS.map(float), others | st.booleans() | NON_INTEGRAL | TEXT
    if kind is float:
        return REALS | INTS, others | st.booleans() | TEXT
    return st.sampled_from(SCHEDULE_KINDS + COMPUTE_DTYPES) | TEXT, others | INTS | REALS


OVERLAY_VALUES = {f.name: overlay_values(f) for f in fields(ExperimentConfig)}


@st.composite
def overlays(draw, ill_typed=True):
    """A config overlay of up to four known keys, and the keys whose value is
    ill-typed."""
    names = draw(st.lists(st.sampled_from(sorted(OVERLAY_VALUES)), unique=True, max_size=4))
    overlay, bad = {}, set()
    for name in names:
        good, ill = OVERLAY_VALUES[name]
        if ill_typed and draw(st.booleans()):
            bad.add(name)
        overlay[name] = draw(ill if name in bad else good)
    return overlay, bad


class TestOverlayProperties:
    @settings(max_examples=200, deadline=None)
    @given(overlays())
    def test_overlay_builds_what_replace_builds_or_names_a_key(self, drawn):
        overlay, ill_typed = drawn
        base = desk_profile()
        try:
            got = canonical_json(ExperimentConfig.from_dict(overlay, base=base))
        except ConfigError as exc:
            got = exc
        if ill_typed:
            assert isinstance(got, ConfigError), overlay
            # "seeds.channel: expected int, ..." names the seeds key.
            assert str(got).split(":")[0].split(".")[0] in ill_typed, got
            return
        kwargs = dict(overlay)
        if "seeds" in kwargs:
            kwargs["seeds"] = replace(base.seeds, **kwargs["seeds"])
        try:
            want = canonical_json(replace(base, **kwargs))
        except ConfigError as exc:
            # A rule over several fields names each of them.
            assert str(got) == str(exc)
            assert any(re.search(rf"\b{key}\b", str(exc)) for key in overlay), exc
        else:
            assert got == want

    @settings(max_examples=50, deadline=None)
    @given(overlays(ill_typed=False))
    def test_canonical_json_round_trips(self, drawn):
        try:
            cfg = ExperimentConfig.from_dict(drawn[0], base=desk_profile())
        except ConfigError:
            reject()
        assert ExperimentConfig.from_json(canonical_json(cfg)) == cfg

    def test_no_field_can_be_assigned(self):
        cfg = desk_profile()
        for target in (cfg, cfg.seeds):
            for f in fields(target):
                with pytest.raises(FrozenInstanceError):
                    setattr(target, f.name, getattr(target, f.name))


def pinned_config(name):
    """A profile, or a golden config of tests/test_golden.py."""
    if name in PROFILES:
        return PROFILES[name]()
    return golden_config(Path("golden"), **GOLDEN_CONFIGS[name])


# dataset_fingerprint(cfg, snr).hex() of the profiles and of the three float64
# golden configs, per SNR point and for the mixed mode.
PINNED_FINGERPRINTS = {
    "desk": {
        -10.0: "33366b2a015d2ac5c72faf966962ad7e94539a700e32715607c1f98d016f6f5d",
        0.0: "1655f5303de24ad7a5e5c99702143078cd8fb96255e3b5bbd0e451590a4f5b79",
        10.0: "8af08997f93e6ff1f58316168bb012c34faf1b123c35a547d6ec3968ad86e68c",
        "mixed": "15757a88b55658ad1c0c9fc5b207160299369b0135569a78c3cc550e517e2d8b",
    },
    "paper": {
        -15.0: "1493c5771b460f2dc47e6aceb0bebb09c0ead39253963874849b1338d9ae56d7",
        -10.0: "07d5112de1b4645ad1773c3c7ca5059f417b6f187ae65cc2b08b24f79ec6c7c8",
        -5.0: "d9bd0b79d5904a0eaca835c6be928845ecd63aa3da3cdc54211fae0ded5c45fe",
        0.0: "661ff698b438e37221c54bf041d81a97c9a366cc22fcf192fffac2ee8ef3e25d",
        5.0: "805648d52e0a3e0ff7435e5fff183261d485660e5d2c7d7b591cf8c819950afe",
        10.0: "e349544e0d063c525abb07908dc65ef9f5fdfb7aae3e29cb57daacb4d70701c9",
        15.0: "c89648d257a7b0ab5d64361ee3fc01fa6366fd187b57dda2fa2147c551657a30",
        "mixed": "03a1b6f1a8fbca6df8b4f0d9f314478f1766064d62f8dbbe82513972ba094544",
    },
    "random_mixed": {
        -10.0: "ade0ab7923c58965aa32f4fcfd7ccf1e0b3b1b18239b75712069605e9e0efff8",
        10.0: "85fa408cc2c26ba1b4e0729c2c409cd71af7a869a2cf8172c19fd196058db6b5",
        "mixed": "c13987466e9b5dd945faf2ffbab5a532f4349a2e3d4446f1e52571a5737b8b2a",
    },
    "sequential": {
        -10.0: "4077cecbc705fc90925b02f4ea64f63be37fadd96c39c8aafa1f47fd8a0b42dc",
        10.0: "8fae01bb1cf264a6b136491ca7d6d9135ef39a006feb1eec7e8720fdde3aa4db",
        "mixed": "10cb1941b33a27e8d2a2be9374454cd1b8361b58e7a626defba0cf2fca70c1da",
    },
    "sequential_wide_val": {
        -10.0: "20497e965541ebca059c784716dbfb9666e59e723915a88bdf559ad171990fa7",
        10.0: "126e08c67f88f840f90576f098fc77c0f38c2eb3229d4bcbfd66380add625453",
        "mixed": "fc48ab26b7b75661c689727b94b283db8cdcd540c48e08a1ec0e60f11e31c2e3",
    },
}


class TestConfigSerialization:
    def test_canonical_round_trip(self):
        cfg = desk_profile()
        cfg = replace(cfg, seeds=replace(cfg.seeds, channel=777), snr_db_list=[-3.5, 2.25])
        again = ExperimentConfig.from_json(canonical_json(cfg))
        assert again == cfg
        assert canonical_json(again) == canonical_json(cfg)

    def test_fingerprint_sensitivity(self):
        a, b = paper_profile(), paper_profile()
        assert config_fingerprint(a) == config_fingerprint(b)
        b = replace(b, num_ports=128)
        assert config_fingerprint(a) != config_fingerprint(b)

    def test_dataset_fingerprint_covers_snr(self):
        cfg = paper_profile()
        assert dataset_fingerprint(cfg, 0.0) != dataset_fingerprint(cfg, 5.0)
        assert dataset_fingerprint(cfg, 0.0) == dataset_fingerprint(cfg, 0.0)

    def test_storage_paths_do_not_affect_fingerprints(self):
        a, b = paper_profile(), paper_profile()
        b = replace(b, dataset_dir="/somewhere/else", results_dir="/another/place")
        assert config_fingerprint(a) == config_fingerprint(b)
        assert dataset_fingerprint(a, 0.0) == dataset_fingerprint(b, 0.0)

    @pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
    def test_dataset_fingerprints_pinned(self, name):
        # Recorded before compute_dtype existed: a field added after v1 must
        # move no dataset fingerprint, at its default or at any other value.
        cfg = pinned_config(name)
        pins = PINNED_FINGERPRINTS[name]
        assert set(pins) == {*cfg.snr_db_list, "mixed"}
        for dtype in ("float64", "float32"):
            cfg = replace(cfg, compute_dtype=dtype)
            for snr in cfg.snr_db_list:
                assert dataset_fingerprint(cfg, snr).hex() == pins[snr], (dtype, snr)
            mixed = dataset_fingerprint(cfg, list(cfg.snr_db_list)).hex()
            assert mixed == pins["mixed"], dtype
            assert config_fingerprint(cfg) == config_fingerprint(
                replace(cfg, compute_dtype="float64")
            )

    def test_partial_config_file_over_profile(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"num_ports": 16, "num_slots": 8,
                                    "num_antennas": 2}))
        cfg = load_config(path, profile="desk", seed_overrides={"channel": 9})
        assert cfg.num_ports == 16
        assert cfg.hidden_width == 256  # inherited from desk profile
        assert cfg.seeds.channel == 9


class TestPipelineCommands:
    def test_generate_train_sweep_round(self, tmp_path):
        cfg = micro_config(tmp_path)
        written = cmd_generate(cfg)
        assert len(written) == 2
        assert all(p.exists() for p in written)

        model_file, curve_file = cmd_train(cfg, written[0])
        assert model_file.exists() and curve_file.exists()
        lines = curve_file.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_nmse_db"
        # best-so-far validation NMSE is non-increasing
        vals = [float(l.split(",")[2]) for l in lines[1:]]
        best = np.minimum.accumulate(vals)
        assert np.all(np.diff(best) <= 0)

        cmd_train(cfg, written[1])
        out = cmd_sweep(cfg)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "snr_db,estimator,nmse_db,n_test"
        assert len(rows) == 1 + len(cfg.snr_db_list) * 3
        estimators = {r.split(",")[1] for r in rows[1:]}
        assert estimators == {"mlp", "omp", "ls_observed"}
        assert all(r.split(",")[3] == "40" for r in rows[1:])

    def test_reproducible_bytes_across_reruns(self, tmp_path):
        outputs = {}
        for run in ("one", "two"):
            cfg = micro_config(tmp_path / run)
            files = cmd_generate(cfg)
            model_file, curve_file = cmd_train(cfg, files[0])
            cmd_train(cfg, files[1])
            sweep_file = cmd_sweep(cfg)
            outputs[run] = {
                "dataset": files[0].read_bytes(),
                "model": model_file.read_bytes(),
                "curve": curve_file.read_bytes(),
                "sweep": sweep_file.read_bytes(),
            }
        assert outputs["one"] == outputs["two"]

    def test_sweep_missing_model_names_commands(self, tmp_path):
        cfg = micro_config(tmp_path)
        with pytest.raises(FileNotFoundError, match="faslab generate"):
            cmd_sweep(cfg)

    def test_sweep_build_missing(self, tmp_path, capsys):
        cfg = micro_config(tmp_path, snr_db_list=[5.0])
        out = cmd_sweep(cfg, build_missing=True)
        assert out.exists()
        assert len(out.read_text().strip().splitlines()) == 4
        # The dataset is built by the generate command's own code.
        assert f"wrote {tmp_path / 'datasets' / 'snr+5.0dB.fasd'} (" in capsys.readouterr().out

    def test_noiseless_sweep_writes_minus_inf_without_a_warning(self, tmp_path):
        # 10^-400 underflows: sigma2 = 0, and LS on the full-coverage desk
        # schedule reconstructs every channel exactly (NMSE 0).
        cfg = desk_profile()
        overrides = dict(
            snr_db_list=[4000.0], n_train_samples=200, max_epochs=1, n_test_samples=20,
            dataset_dir=str(tmp_path / "datasets"), model_dir=str(tmp_path / "models"),
            results_dir=str(tmp_path / "results"),
        )
        cfg = replace(cfg, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = cmd_sweep(cfg, build_missing=True)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert ["4000", "ls_observed", "-inf", "20"] in rows

    def test_mixed_snr_mode_shares_one_model(self, tmp_path):
        cfg = micro_config(tmp_path, mixed_snr=True)
        written = cmd_generate(cfg)
        assert [p.name for p in written] == ["snr_mixed.fasd"]
        out = cmd_sweep(cfg, build_missing=True)
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1 + len(cfg.snr_db_list) * 3
        assert (tmp_path / "models" / "snr_mixed.fasm").exists()

    def test_float32_training_is_byte_reproducible_and_named(self, tmp_path, capsys):
        cfg = micro_config(tmp_path, compute_dtype="float32")
        dataset = cmd_generate(cfg)[0]
        outputs = []
        for run in ("one", "two"):
            model_file, curve_file = cmd_train(
                cfg, dataset, tmp_path / run / "m.fasm", tmp_path / run / "c.csv"
            )
            outputs.append((model_file.read_bytes(), curve_file.read_bytes()))
        assert outputs[0] == outputs[1]
        assert f"trained {dataset.stem} in float32: best epoch" in capsys.readouterr().out

    def test_float32_model_file_holds_float32_values_as_float64(self, tmp_path):
        cfg = micro_config(tmp_path, compute_dtype="float32", snr_db_list=[10.0])
        model_file, _ = cmd_train(cfg, cmd_generate(cfg)[0])
        params, normalizers = load_model(model_file)
        assert params.flat.dtype == np.float64
        assert np.array_equal(params.flat.astype(np.float32).astype(np.float64), params.flat)
        # Inference stays float64: one row through predict agrees with the
        # batch path as it does for a float64-trained model.
        rng = np.random.default_rng(7)
        pilots = rng.standard_normal((5, 32)) + 1j * rng.standard_normal((5, 32))
        batch = predict_batch(params, normalizers, pilots)
        assert batch.dtype == np.complex128
        for row, want in zip(pilots, batch):
            got = predict(params, normalizers, row)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_fingerprint_mismatch_warns(self, tmp_path):
        cfg = micro_config(tmp_path)
        files = cmd_generate(cfg)
        other = micro_config(tmp_path, rays_per_cluster=3)
        with pytest.warns(UserWarning, match="fingerprint"):
            cmd_train(other, files[0])


@pytest.fixture(scope="module")
def swept_models(tmp_path_factory):
    """A three-SNR micro config with every model trained."""
    cfg = micro_config(tmp_path_factory.mktemp("lanes"), snr_db_list=[0.0, 5.0, 10.0])
    for dataset in cmd_generate(cfg):
        cmd_train(cfg, dataset)
    return cfg


def sweep_lanes(monkeypatch, cpus):
    """Make cmd_sweep see ``cpus`` CPUs in the affinity mask."""
    mask = set(range(cpus))
    monkeypatch.setattr(dataset_pipeline.os, "sched_getaffinity", lambda pid: mask, raising=False)


class TestSweepLanes:
    """cmd_sweep scores one SNR while a helper thread draws the next test set
    and takes OMP row blocks."""

    def test_missing_last_model_fails_before_any_test_set_is_drawn(
        self, swept_models, tmp_path, monkeypatch
    ):
        cfg = replace(swept_models, model_dir=str(tmp_path / "models"))
        shutil.copytree(swept_models.model_dir, cfg.model_dir)
        missing = experiment_cli.model_path(cfg, cfg.snr_db_list[-1])
        missing.unlink()
        draws = []
        stream_states = dataset_pipeline._stream_states
        monkeypatch.setattr(
            dataset_pipeline, "_stream_states", lambda *a: draws.append(a) or stream_states(*a)
        )
        out = tmp_path / "sweep.csv"
        with pytest.raises(FileNotFoundError, match=re.escape(str(missing))):
            cmd_sweep(cfg, out)
        assert draws == [] and not out.exists()

    def test_two_lanes_draw_on_one_helper_at_most_one_set_ahead(
        self, swept_models, tmp_path, monkeypatch
    ):
        sweep_lanes(monkeypatch, 2)
        events = []
        sample_blocks = dataset_pipeline._sample_blocks
        omp_estimate = experiment_cli.omp_estimate

        def drawing(cfg, schedule, snr, *args):
            draw, finish, rows = sample_blocks(cfg, schedule, snr, *args)

            def block(lo, count):
                events.append(("draw", snr, threading.current_thread()))
                return draw(lo, count)

            return block, finish, rows

        def scoring(pilots, *args):
            estimate = omp_estimate(pilots, *args)
            events.append(("scored", None, threading.current_thread()))
            return estimate

        started = []
        start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda thread: started.append(thread) or start(thread)
        )
        monkeypatch.setattr(dataset_pipeline, "_sample_blocks", drawing)
        monkeypatch.setattr(experiment_cli, "omp_estimate", scoring)
        before = threading.enumerate()
        cmd_sweep(swept_models, tmp_path / "sweep.csv")
        assert threading.enumerate() == before
        draws = [e for e in events if e[0] == "draw"]
        # The micro config's 40 test rows make one block per set.
        assert [snr for _, snr, _ in draws] == swept_models.snr_db_list
        # One helper; a block runs on it or on the calling thread.
        assert [thread.name for thread in started] == ["faslab-sweep"]
        assert {thread for _, _, thread in draws} <= {started[0], threading.main_thread()}
        assert all(e[2] is threading.main_thread() for e in events if e[0] == "scored")
        # SNR k is drawn only once SNR k-2 has been scored.
        kinds = [kind for kind, _, _ in events]
        for k in range(2, len(draws)):
            assert kinds[: events.index(draws[k])].count("scored") >= k - 1

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_draw_error_reaches_the_caller_at_its_snr(
        self, swept_models, tmp_path, monkeypatch, capsys, cpus
    ):
        sweep_lanes(monkeypatch, cpus)

        class Boom(RuntimeError):
            pass

        sample_blocks = dataset_pipeline._sample_blocks

        def second_snr_raises(cfg, schedule, snr, *args):
            draw, finish, rows = sample_blocks(cfg, schedule, snr, *args)

            def block(lo, count):
                if snr == cfg.snr_db_list[1]:
                    raise Boom(f"drawing {snr}")
                return draw(lo, count)

            return block, finish, rows

        monkeypatch.setattr(dataset_pipeline, "_sample_blocks", second_snr_raises)
        out = tmp_path / "sweep.csv"
        before = threading.enumerate()
        with pytest.raises(Boom, match="drawing 5.0"):
            cmd_sweep(swept_models, out)
        assert threading.enumerate() == before
        assert not out.exists()
        printed = capsys.readouterr().out
        assert "snr +0.0 dB  ls_observed" in printed and "snr +5.0 dB" not in printed

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_scoring_error_joins_the_helper(self, swept_models, tmp_path, monkeypatch, cpus):
        sweep_lanes(monkeypatch, cpus)

        def raising(*args):
            raise FloatingPointError("omp")

        monkeypatch.setattr(experiment_cli, "omp_estimate", raising)
        out = tmp_path / "sweep.csv"
        before = threading.enumerate()
        with pytest.raises(FloatingPointError, match="omp"):
            cmd_sweep(swept_models, out)
        assert threading.enumerate() == before
        assert not out.exists()

    def test_one_cpu_starts_no_thread_and_writes_the_same_bytes(
        self, swept_models, tmp_path, monkeypatch
    ):
        sweep_lanes(monkeypatch, 2)
        two_lanes = cmd_sweep(swept_models, tmp_path / "two.csv").read_bytes()
        sweep_lanes(monkeypatch, 1)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda thread: started.append(thread) or start(thread)
        )
        one_lane = cmd_sweep(swept_models, tmp_path / "one.csv").read_bytes()
        assert started == []
        assert one_lane == two_lanes


class TestSweepHoldsOneModel:
    """cmd_sweep keeps only the model of the SNR it is scoring."""

    @staticmethod
    def tracked_loads(monkeypatch):
        """Replace load_model; each entry counts the models of earlier
        loads still alive when the load is made."""
        refs, alive_at_load = [], []
        load_model = experiment_cli.load_model

        def tracking(path):
            alive_at_load.append(sum(ref() is not None for ref in refs))
            params, normalizers = load_model(path)
            refs.extend((weakref.ref(params.flat), weakref.ref(normalizers)))
            return params, normalizers

        monkeypatch.setattr(experiment_cli, "load_model", tracking)
        return alive_at_load

    def test_no_two_per_snr_models_are_alive_at_once(self, swept_models, tmp_path, monkeypatch):
        alive_at_load = self.tracked_loads(monkeypatch)
        cmd_sweep(swept_models, tmp_path / "sweep.csv")
        assert alive_at_load == [0] * len(swept_models.snr_db_list)

    def test_the_mixed_model_is_loaded_once(self, tmp_path, monkeypatch):
        cfg = micro_config(tmp_path, mixed_snr=True, snr_db_list=[0.0, 5.0, 10.0], max_epochs=1)
        cmd_train(cfg, cmd_generate(cfg)[0])
        alive_at_load = self.tracked_loads(monkeypatch)
        cmd_sweep(cfg, tmp_path / "sweep.csv")
        assert alive_at_load == [0]


class TestCmdTrainMemory:
    def test_peak_stays_below_twice_the_payload(self, tmp_path):
        # 1 000 rows of 512 features and 512 targets make a 4.1 MB payload,
        # the net (hidden width 8) about 12 KB.  Holding the loaded file
        # next to the two parts of its split takes twice the payload; the
        # rows themselves, the 1 MiB read chunk, fit_normalizer's float64
        # columns (1.0 MB) and the 50 validation rows stay well below that.
        cfg = micro_config(
            tmp_path, num_ports=256, num_antennas=1, num_slots=256, n_train_samples=1000,
            rho=0.05, hidden_width=8, max_epochs=1, snr_db_list=[0.0],
        )
        (dataset,) = cmd_generate(cfg)
        payload = 4 * cfg.n_train_samples * (2 * 256 + 2 * 256)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cmd_train(cfg, dataset)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * payload, f"cmd_train peaked at {peak} bytes, payload {payload}"

    def test_a_flipped_payload_byte_fails_before_training_and_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        cfg = micro_config(tmp_path, snr_db_list=[0.0], n_train_samples=60, max_epochs=1)
        (dataset,) = cmd_generate(cfg)
        raw = bytearray(dataset.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        dataset.write_bytes(bytes(raw))
        monkeypatch.setattr(experiment_cli, "train", lambda *args: pytest.fail("trained"))
        with pytest.raises(ChecksumError, match=re.escape(f"{dataset}: payload checksum")):
            cmd_train(cfg, dataset)
        for directory in (cfg.model_dir, cfg.results_dir):
            assert not Path(directory).exists() or list(Path(directory).iterdir()) == []
        assert list(tmp_path.rglob("*.tmp")) == []


class TestCmdTrainConvergence:
    def test_desk_scale_validation_stabilizes(self, tmp_path):
        # Reduced-scale run: validation NMSE settles before training stops
        # (final five epochs move by well under 0.1 dB).
        from dataclasses import replace
        from faslab.config import desk_profile

        cfg = replace(
            desk_profile(),
            learning_rate=3e-4,
            batch_size=64,
            snr_db_list=[-10.0],
            dataset_dir=str(tmp_path / "d"),
            model_dir=str(tmp_path / "m"),
            results_dir=str(tmp_path / "r"),
        )
        files = cmd_generate(cfg)
        _, curve_file = cmd_train(cfg, files[0])
        vals = [
            float(line.split(",")[2])
            for line in curve_file.read_text().strip().splitlines()[1:]
        ]
        tail = vals[-5:]
        assert max(tail) - min(tail) < 0.1, (
            f"validation NMSE still moving at stop: final-5 range "
            f"{max(tail) - min(tail):.3f} dB"
        )
        assert min(vals) < vals[0]


class TestEvalSingle:
    def test_round_trip(self, tmp_path):
        cfg = micro_config(tmp_path, snr_db_list=[10.0])
        files = cmd_generate(cfg)
        model_file, _ = cmd_train(cfg, files[0])

        rng = np.random.default_rng(123)
        h = draw_channel(cfg.scattering(), cfg.geometry(), rng)
        obs = observe(h, cfg.build_schedule(), noise_variance_for_snr(10.0), rng)
        pilot_csv = tmp_path / "pilot.csv"
        pilot_csv.write_text(
            "re,im\n"
            + "\n".join(f"{v.real:.9g},{v.imag:.9g}" for v in obs.samples)
            + "\n"
        )
        out_csv = tmp_path / "estimate.csv"
        cmd_eval_single(model_file, pilot_csv, out_csv)

        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "re,im"
        est = np.array(
            [complex(float(a), float(b)) for a, b in
             (line.split(",") for line in lines[1:])]
        )
        assert est.shape == (cfg.num_ports,)
        assert np.isfinite(ensemble_nmse(est, h))

        # repeated invocation produces identical bytes
        out2 = tmp_path / "estimate2.csv"
        cmd_eval_single(model_file, pilot_csv, out2)
        assert out2.read_bytes() == out_csv.read_bytes()

    def test_malformed_row_reports_line_number(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("re,im\n0.1,0.2\noops\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3"):
            cmd_eval_single(tmp_path / "missing.fasm", bad, tmp_path / "out.csv")

    @pytest.mark.parametrize("row", ["nan,0.2", "0.1,inf", "0.1,-Infinity"])
    def test_non_finite_value_reports_line_number(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"re,im\n0.1,0.2\n{row}\n")
        out = tmp_path / "out.csv"
        rc = main([
            "eval-single", "--model", str(tmp_path / "missing.fasm"),
            "--pilots", str(bad), "--out", str(out),
        ])
        assert rc == 1
        assert f"bad.csv:3: non-finite value in '{row}'" in capsys.readouterr().err
        assert not out.exists()

    def test_pilots_that_are_not_utf8_name_their_file(self, tmp_path, capsys):
        bad = tmp_path / "p.csv"
        bad.write_bytes(b"re,im\n0.1,\xff\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}: 'utf-8' codec"):
            cmd_eval_single(tmp_path / "missing.fasm", bad, tmp_path / "out.csv")
        out = tmp_path / "out.csv"
        rc = main([
            "eval-single", "--model", str(tmp_path / "missing.fasm"),
            "--pilots", str(bad), "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: 'utf-8' codec can't decode")
        assert not out.exists()

    def test_wrong_length_rejected(self, tmp_path):
        cfg = micro_config(tmp_path, snr_db_list=[10.0])
        files = cmd_generate(cfg)
        model_file, _ = cmd_train(cfg, files[0])
        short = tmp_path / "short.csv"
        short.write_text("re,im\n0.1,0.2\n")
        with pytest.raises(ValueError, match="expects"):
            cmd_eval_single(model_file, short, tmp_path / "out.csv")


class TestMainEntry:
    def test_generate_and_show_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "num_ports": 16, "num_antennas": 2, "num_slots": 8,
            "num_clusters": 1, "rays_per_cluster": 2,
            "n_train_samples": 30, "snr_db_list": [0.0],
            "dataset_dir": str(tmp_path / "d"),
            "model_dir": str(tmp_path / "m"),
            "results_dir": str(tmp_path / "r"),
        }))
        rc = main(["generate", "--config", str(cfg_file), "--profile", "desk"])
        assert rc == 0
        assert (tmp_path / "d" / "snr+0.0dB.fasd").exists()

        rc = main(["show-config", "--config", str(cfg_file)])
        assert rc == 0
        shown = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert shown["num_ports"] == 16

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"rho": 1.2}))
        rc = main(["generate", "--config", str(cfg_file)])
        assert rc == 1
        assert "rho" in capsys.readouterr().err

    @pytest.mark.parametrize("text, found", [("[1, 2]", "array"), ('"x"', "string")])
    def test_config_that_is_not_an_object_exits_nonzero(
        self, tmp_path, capsys, text, found
    ):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(text)
        rc = main(["show-config", "--profile", "desk", "--config", str(cfg_file)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cfg_file}: expected a JSON object, got {found}\n"
        )

    def test_malformed_json_config_names_its_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text('{"num_slots": 8,')
        with pytest.raises(ConfigError, match=r"^bad\.json: Expecting property name"):
            ExperimentConfig.from_json(cfg_file.read_text(), source="bad.json")
        rc = main(["show-config", "--profile", "desk", "--config", str(cfg_file)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cfg_file}: Expecting property name enclosed in double quotes: "
            "line 1 column 17 (char 16)\n"
        )

    def test_config_that_is_not_utf8_names_its_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_bytes(b'{"num_slots": \xff}')
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(cfg_file))}: 'utf-8' codec"):
            load_config(cfg_file, profile="desk")
        rc = main(["show-config", "--profile", "desk", "--config", str(cfg_file)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cfg_file}: 'utf-8' codec can't decode byte 0xff in position 14: "
            "invalid start byte\n"
        )

    @pytest.mark.parametrize("flag", ["--config", "--dataset", "--model"])
    def test_directory_given_as_input_file_exits_nonzero_naming_it(
        self, tmp_path, capsys, flag
    ):
        pilots = tmp_path / "pilots.csv"
        pilots.write_text("re,im\n1,0\n")
        argv = {
            "--config": ["show-config", "--profile", "desk", "--config", str(tmp_path)],
            "--dataset": ["train", "--profile", "desk", "--dataset", str(tmp_path)],
            "--model": [
                "eval-single", "--model", str(tmp_path), "--pilots", str(pilots),
                "--out", str(tmp_path / "out.csv"),
            ],
        }[flag]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path}: ") and err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    def test_directory_in_the_way_of_an_artifact_exits_nonzero_naming_it(
        self, tmp_path, capsys
    ):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "num_ports": 16, "num_antennas": 2, "num_slots": 8, "num_clusters": 1,
            "rays_per_cluster": 2, "n_train_samples": 20, "snr_db_list": [0.0],
        }))
        in_the_way = tmp_path / "out" / "snr+0.0dB.fasd"
        in_the_way.mkdir(parents=True)
        argv = ["generate", "--profile", "desk", "--config", str(cfg_file)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {in_the_way}: Is a directory\n"
        assert [p.name for p in (tmp_path / "out").iterdir()] == [in_the_way.name]

    def test_curve_that_cannot_be_written_leaves_no_model(self, tmp_path, capsys):
        cfg = micro_config(tmp_path, snr_db_list=[0.0], n_train_samples=60, max_epochs=1)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(canonical_json(cfg))
        (dataset,) = cmd_generate(cfg)
        in_the_way = tmp_path / "out.csv"
        in_the_way.mkdir()
        model = tmp_path / "m2" / "x.fasm"
        rc = main([
            "train", "--config", str(cfg_file), "--dataset", str(dataset),
            "--out", str(model), "--curve", str(in_the_way),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {in_the_way}: Is a directory\n"
        assert list(model.parent.iterdir()) == []
        assert list(in_the_way.iterdir()) == []

    def test_zero_width_dataset_exits_nonzero(self, tmp_path, capsys):
        # num_slots 0 gives feature width 0: the file loads, and the network
        # it would train has no input.
        path = tmp_path / "z.fasd"
        dataset_pipeline.save_dataset(
            dataset_pipeline.Dataset(np.zeros((100, 0)), np.ones((100, 8)), bytes(32), 4, 2, 0),
            path,
        )
        model, curve = tmp_path / "m.fasm", tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the fingerprint matches no SNR point
            rc = main([
                "train", "--profile", "desk", "--dataset", str(path),
                "--out", str(model), "--curve", str(curve),
            ])
        assert rc == 1
        assert capsys.readouterr().err == "error: dimensions must be positive, got (0, 256, 8)\n"
        assert not model.exists() and not curve.exists()

    def test_snr_whose_noise_variance_overflows_exits_nonzero(self, tmp_path, capsys):
        # 10^(4000/10) overflows a float64; -3000 dB still fits.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "snr_db_list": [-3000.0, -4000.0], "dataset_dir": str(tmp_path / "d"),
        }))
        rc = main(["generate", "--config", str(cfg_file), "--profile", "desk"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: snr_db_list: ")
        assert not (tmp_path / "d").exists()

    def test_snr_points_sharing_an_artifact_name_exit_nonzero(self, tmp_path, capsys):
        # Both label as snr+0.0dB: the second dataset would overwrite the first.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "snr_db_list": [0.0, 0.04], "dataset_dir": str(tmp_path / "d"),
        }))
        rc = main(["generate", "--config", str(cfg_file), "--profile", "desk"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: snr_db_list: 0.0 and 0.04 ")
        assert "snr+0.0dB" in err
        assert not (tmp_path / "d").exists()

    def test_snr_points_sharing_an_artifact_name_are_fine_when_mixed(self):
        cfg = replace(desk_profile(), snr_db_list=[0.0, 0.04, 0.0], mixed_snr=True)
        cfg.validate()  # one dataset and one model, snr_mixed
        with pytest.raises(ConfigError, match=r"snr_db_list: 0\.0 and 0\.04 "):
            cfg = replace(cfg, mixed_snr=False)
            cfg.validate()
        cfg = replace(desk_profile(), snr_db_list=[0.0, -0.04, 0.05])  # snr+0.0dB, snr-0.0dB, snr+0.1dB
        cfg.validate()

    def test_training_divergence_exits_nonzero(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "num_ports": 16, "num_antennas": 2, "num_slots": 8,
            "num_clusters": 1, "rays_per_cluster": 2,
            "n_train_samples": 80, "snr_db_list": [0.0], "hidden_width": 8,
            "batch_size": 16, "max_epochs": 50, "patience": 50,
            # Adam steps are bounded by lr, so overflow needs lr^3 past float64.
            "learning_rate": 1e150,
            "dataset_dir": str(tmp_path / "d"),
            "model_dir": str(tmp_path / "m"),
            "results_dir": str(tmp_path / "r"),
        }))
        assert main(["generate", "--config", str(cfg_file), "--profile", "desk"]) == 0
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main([
                "train", "--config", str(cfg_file), "--profile", "desk",
                "--dataset", str(tmp_path / "d" / "snr+0.0dB.fasd"),
            ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite training loss at epoch")
        assert not (tmp_path / "m").exists()

    def test_seed_override_flag(self, tmp_path, capsys):
        rc = main([
            "show-config", "--profile", "desk",
            "--seed-override", "channel=31337",
        ])
        assert rc == 0
        shown = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert shown["seeds"]["channel"] == 31337
