"""Golden artifact bytes: SHA-256 of every file the quick start writes.

Five small fixed desk configs run generate -> train -> sweep; the digests of
the FASD, FASM, convergence CSV and sweep CSV files were recorded once and
must not move.  One fixed pilot CSV run through one of those models pins
the eval-single CSV the same way.  A refactor or speed-up that changes one of them changed
the artifacts.  Floating-point results can differ across numpy/BLAS builds,
so the failure message names the numpy version that ran.  Never re-record
these digests to make a change pass.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from faslab.config import desk_profile
from faslab.experiment_cli import (
    cmd_eval_single,
    cmd_generate,
    cmd_generate_single,
    cmd_sweep,
    cmd_train,
)

RECORDED_WITH_NUMPY = "2.4.6"


def golden_config(tmp_path, **overrides):
    fields = dict(
        num_ports=32,
        num_slots=8,
        n_train_samples=300,
        hidden_width=16,
        batch_size=32,
        max_epochs=4,
        snr_db_list=[-10.0, 10.0],
        n_test_samples=60,
        dataset_dir=str(tmp_path / "datasets"),
        model_dir=str(tmp_path / "models"),
        results_dir=str(tmp_path / "results"),
    )
    fields.update(overrides)
    return replace(desk_profile(), **fields)


# Sequential full coverage with one model per SNR, a random schedule that
# revisits ports (48 samples over 32 ports) with one mixed-SNR model, the
# sequential config with more validation rows (120) than the batch (32), the
# sequential config trained in float32, and the sequential config at desk
# training shapes (a 128-256-128 net, batch 64), whose full batches a GEMM
# lane splits at row 32 where BLAS runs one thread and a second CPU is free.
CONFIGS = {
    "sequential": {},
    "random_mixed": {"schedule_kind": "random", "num_slots": 12, "mixed_snr": True},
    "sequential_wide_val": {"rho": 0.4},
    "sequential_float32": {"compute_dtype": "float32"},
    "sequential_desk_shapes": {
        "num_ports": 64, "num_slots": 16, "hidden_width": 256, "batch_size": 64
    },
}

GOLDEN = {
    "sequential": {
        "snr-10.0dB.fasd": "a1da6c75b78e956c01244c1ef969a3fb7b9ba1173bed2d51340b2a0cf82f75c4",
        "snr-10.0dB.fasm": "2df5184e925c909a6d6e53a5bd2591d06c99350e68c2f8a17994ce15884f0d8b",
        "convergence_snr-10.0dB.csv": "1d24418b19e9101176f988e98dfb6cdf36913e50c015143973b780374cba4f8e",
        "snr+10.0dB.fasd": "85616a077604deaf8a7bad0a2b0a9def250b20058ffd2e4717c23beca386a050",
        "snr+10.0dB.fasm": "c535d1932a1da9b50ab4e0105ef080bc82ea55b192a80b6cebda55a9a9ca277e",
        "convergence_snr+10.0dB.csv": "6fdc0e4d5e18bfa7f19692c26f0b22af79b93221440debf3d319bc705444727c",
        "sweep.csv": "df73259422513e8fcd2abe0e134d0523f6a528c1823bc80a3ab24621b10163fc",
    },
    "random_mixed": {
        "snr_mixed.fasd": "d48019b3eff30d8816f4a3188e04b11c13fab65df5d47e17a92d99f398d39779",
        "snr_mixed.fasm": "d333f2de635fadaf78f731e6d689b0b7e970e56ebc6489face31f2d6ce4d539f",
        "convergence_snr_mixed.csv": "b97e674bccbb40d3e1882ba241d2f49d9e12e1dc3ad7cf2f55c61887232d643a",
        "sweep.csv": "336ff9d805af2799e367bb7fd8abf1e176c0a2b17cf5b5907a6ed3f4f36c79e8",
    },
    "sequential_wide_val": {
        "snr-10.0dB.fasd": "84cf07168f103d22b3b23c06802889d0836cbe20b3597a25aa935f5b2b17f0af",
        "snr-10.0dB.fasm": "222bd1799d64fe0fa3b5d2a829e00546527742c93b3ec6a205d01d3997d2bb12",
        "convergence_snr-10.0dB.csv": "feb2e87739dbfa01107f5338b67688bdac4db0c7f7ad2b6f25803daa007fa426",
        "snr+10.0dB.fasd": "69b3d6ae61508c590206951794cd005afed2f77e504b4a3970c574c62a193159",
        "snr+10.0dB.fasm": "5bb42b7d44711c0e644779fb27157c2590c8c8b4cb3204f89af9e8463d126190",
        "convergence_snr+10.0dB.csv": "2169e904c9e6df1c7fb67183c311eb2f339d05a1e049a4f08b08110a14d485fc",
        "sweep.csv": "9d9bd33a646fe1adcaa8efb40b15156f49384fef4c596a6e60bb9d6751012e5a",
    },
    # Training precision enters no fingerprint, so the datasets are the
    # sequential config's; the models differ.  At these shapes the float32
    # CSVs happen to match the float64 ones in all six printed digits.
    "sequential_float32": {
        "snr-10.0dB.fasd": "a1da6c75b78e956c01244c1ef969a3fb7b9ba1173bed2d51340b2a0cf82f75c4",
        "snr-10.0dB.fasm": "764482b08b15388b51eb533dd3b9eaa54df678f0200b4e53f6164ea02ac83f0c",
        "convergence_snr-10.0dB.csv": "1d24418b19e9101176f988e98dfb6cdf36913e50c015143973b780374cba4f8e",
        "snr+10.0dB.fasd": "85616a077604deaf8a7bad0a2b0a9def250b20058ffd2e4717c23beca386a050",
        "snr+10.0dB.fasm": "14a5d451948d9cf3634b89bfc8bf360018756b803d483b527f38db47df0c15bb",
        "convergence_snr+10.0dB.csv": "6fdc0e4d5e18bfa7f19692c26f0b22af79b93221440debf3d319bc705444727c",
        "sweep.csv": "df73259422513e8fcd2abe0e134d0523f6a528c1823bc80a3ab24621b10163fc",
    },
    # Recorded before desk batches trained through the GEMM lane, and the
    # same with the lane: a split leaves every byte alone.
    "sequential_desk_shapes": {
        "snr-10.0dB.fasd": "67727f90c48e45a4f919b40277650360333ef1c2d9caab765a6d16d904b3a248",
        "snr-10.0dB.fasm": "8b1111428c7f8944ff6ad02b104f6abc3fbd97bdad23fc7ae545585fb93fda37",
        "convergence_snr-10.0dB.csv": "b8f8d64a85f79e6c98665487f5fc0a9b0bd7df8a4c7e7d9024276c0a020bee84",
        "snr+10.0dB.fasd": "3d5ea4f11990bdb0502c822ad914ba2559ee00056d97dbe607e6ae9d69967115",
        "snr+10.0dB.fasm": "807a12a7f6036e14cebf65c78075d66eb0cdc533a32d0ebb30406d8f0dd25ec9",
        "convergence_snr+10.0dB.csv": "ccc046f2cf170138d4081c1b9bcf6884fab8dd619a21af606a19b05dd0594b28",
        "sweep.csv": "785e3429a520a806768d965caf2fb3484ad9bf7456b81aa332fd39581642dc6d",
    },
}


def run_pipeline(cfg):
    """All artifact bytes of one quick-start round, keyed by file name."""
    files = []
    for dataset_file in cmd_generate(cfg):
        files.append(dataset_file)
        files.extend(cmd_train(cfg, dataset_file))
    files.append(cmd_sweep(cfg))
    return {path.name: path.read_bytes() for path in files}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifact_digests_pinned(tmp_path, name):
    artifacts = run_pipeline(golden_config(tmp_path, **CONFIGS[name]))
    digests = {
        fname: hashlib.sha256(data).hexdigest() for fname, data in artifacts.items()
    }
    assert digests == GOLDEN[name], (
        f"artifact bytes of the '{name}' golden config changed (running numpy "
        f"{np.__version__}; digests recorded with numpy {RECORDED_WITH_NUMPY})"
    )


def test_float32_training_leaves_the_dataset_bytes_alone():
    float32, float64 = GOLDEN["sequential_float32"], GOLDEN["sequential"]
    fasd = [name for name in float64 if name.endswith(".fasd")]
    assert fasd and all(float32[name] == float64[name] for name in fasd)
    assert all(
        float32[name] != float64[name] for name in float64 if name.endswith(".fasm")
    )


GOLDEN_EVAL = "b51f2e76885605b40755ecd440e5b3c0e5983fd3f8817d5449e2edf165baf0d5"


def test_eval_single_digest_pinned(tmp_path):
    cfg = golden_config(tmp_path)
    model_file, _ = cmd_train(cfg, cmd_generate_single(cfg, 10.0))
    assert (
        hashlib.sha256(model_file.read_bytes()).hexdigest()
        == GOLDEN["sequential"]["snr+10.0dB.fasm"]
    )
    # 8 slots x 4 antennas: one fixed 32-sample pilot vector, exact reprs.
    pilots = np.random.default_rng(2024).standard_normal((32, 2)).tolist()
    pilot_csv = tmp_path / "pilots.csv"
    pilot_csv.write_text("re,im\n" + "".join(f"{re!r},{im!r}\n" for re, im in pilots))
    out = cmd_eval_single(model_file, pilot_csv, tmp_path / "estimate.csv")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_EVAL, (
        f"eval-single bytes changed (running numpy {np.__version__}; digest "
        f"recorded with numpy {RECORDED_WITH_NUMPY})"
    )
