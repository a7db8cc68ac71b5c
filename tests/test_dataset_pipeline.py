"""Tests for packing, dataset generation, normalization, and storage."""

import struct
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from faslab import dataset_pipeline
from faslab.config import ExperimentConfig, dataset_fingerprint, desk_profile, paper_profile
from faslab.dataset_pipeline import (
    Dataset,
    Normalizer,
    apply_normalizer,
    fit_normalizer,
    generate_dataset,
    invert_normalizer,
    load_dataset,
    load_split,
    pack_complex,
    save_dataset,
    split,
    unpack_complex,
)
from faslab.channel_model import draw_channel
from faslab.errors import ChecksumError, FileFormatError
from faslab.pilot_system import noise_variance_for_snr, observe


def micro_config(**overrides):
    cfg = ExperimentConfig(
        num_ports=16,
        num_antennas=2,
        num_slots=8,
        aperture_wavelengths=3.0,
        num_clusters=1,
        rays_per_cluster=3,
        snr_db_list=[0.0, 10.0],
        n_train_samples=50,
        hidden_width=8,
        batch_size=8,
        max_epochs=3,
    )
    return replace(cfg, **overrides)


class TestPacking:
    def test_pack_layout(self):
        packed = pack_complex(np.array([1 + 2j, 3 - 1j]))
        assert packed.tolist() == [1.0, 3.0, 2.0, -1.0]

    def test_pack_real_vector_has_zero_tail(self):
        packed = pack_complex(np.array([1.5, -2.0]))
        assert packed.tolist() == [1.5, -2.0, 0.0, 0.0]

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        assert np.array_equal(unpack_complex(pack_complex(v)), v)

    def test_unpack_examples(self):
        assert unpack_complex(np.array([0.0, 0.0, 1.0, 1.0])).tolist() == [1j, 1j]
        assert unpack_complex(np.array([1.0, 2.0, 0.0, 0.0])).tolist() == [1.0, 2.0]

    def test_unpack_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even"):
            unpack_complex(np.array([1.0, 2.0, 3.0]))

    def test_unpack_row_matrix_row_by_row_in_float64(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        assert np.array_equal(unpack_complex(pack_complex(m)), m)
        rows = pack_complex(m).astype(np.float32)
        unpacked = unpack_complex(rows)
        assert unpacked.dtype == np.complex128
        assert np.array_equal(unpacked, [unpack_complex(row) for row in rows])

    def test_unpack_into_a_buffer_gives_the_bits_of_the_float64_formula(self):
        rng = np.random.default_rng(2)
        for rows in (rng.standard_normal((4, 6)), rng.standard_normal((4, 6)).astype(np.float32)):
            rows[0, :] = [np.inf, -0.0, np.nan, -np.inf, 0.0, -0.0]
            out = np.full((4, 3), 7 + 7j)
            with np.errstate(invalid="ignore"):  # 1j * inf has a NaN real part
                got = unpack_complex(rows, out=out)
                wide = rows.astype(float)
                want = wide[:, :3] + 1j * wide[:, 3:]
            assert got is out
            assert got.tobytes() == want.tobytes()

    def test_unpack_rejects_odd_row_width_and_a_scalar(self):
        with pytest.raises(ValueError, match="even"):
            unpack_complex(np.ones((2, 3)))
        with pytest.raises(ValueError, match="even"):
            unpack_complex(np.float64(1.0))


def per_sample(cfg, snr_db, seed, n):
    """The reference for draw_samples: draw_channel then observe on each
    sample's own default_rng((seed, key, i)) stream, one sample at a time."""
    mixed = isinstance(snr_db, list)
    variances = [noise_variance_for_snr(s) for s in (snr_db if mixed else [snr_db])]
    key = dataset_pipeline.snr_stream_key(snr_db)
    schedule = cfg.build_schedule()
    channels, pilots = [], []
    for i in range(n):
        rng = np.random.default_rng((seed, key, i))
        sigma2 = variances[rng.integers(len(variances))] if mixed else variances[0]
        h = draw_channel(cfg.scattering(), cfg.geometry(), rng)
        channels.append(h)
        pilots.append(observe(h, schedule, sigma2, rng).samples)
    return np.array(channels), np.array(pilots)


class TestDrawSamples:
    """Blocks of draw_samples are byte-equal to per-sample calls."""

    @staticmethod
    def blocks(cfg, snr_db, seed, n):
        blocks = list(dataset_pipeline.draw_samples(cfg, cfg.build_schedule(), snr_db, seed, n))
        starts = [lo for lo, _, _ in blocks]
        sizes = [len(h) for _, h, _ in blocks]
        assert starts == list(np.cumsum([0] + sizes[:-1]))
        assert sum(sizes) == n and len(set(sizes[:-1])) <= 1
        assert all(len(y) == len(h) for _, h, y in blocks)
        return blocks

    def assert_matches_per_sample(self, cfg, snr_db, n, seed=17):
        blocks = self.blocks(cfg, snr_db, seed, n)
        channels, pilots = per_sample(cfg, snr_db, seed, n)
        assert np.concatenate([h for _, h, _ in blocks]).tobytes() == channels.tobytes()
        assert np.concatenate([y for _, _, y in blocks]).tobytes() == pilots.tobytes()
        return blocks

    @pytest.mark.parametrize("profile", [desk_profile, paper_profile], ids=["desk", "paper"])
    def test_rows_per_block(self, profile):
        # 20 rays over 64 ports: the steering budget's 16 desk rows per block.
        # Over 256 ports the budget gives 4 rows, and the floor 16.
        blocks = self.blocks(profile(), 0.0, 1, 40)
        assert [len(h) for _, h, _ in blocks] == [16, 16, 8]

    @pytest.mark.parametrize("n", [3, 37])
    def test_sequential_schedule(self, n):
        # 3 rows fill less than one block; 37 is not a multiple of 16.
        self.assert_matches_per_sample(desk_profile(), -10.0, n)

    @pytest.mark.parametrize(
        "cfg, snr_db",
        [
            (replace(desk_profile(), schedule_kind="random", num_slots=24), 10.0),  # 96 samples, 64 ports
            (replace(paper_profile(), schedule_kind="random"), [-10.0, 0.0, 10.0]),  # 16-row blocks
        ],
        ids=["desk", "paper-mixed"],
    )
    def test_random_schedule_revisiting_ports(self, cfg, snr_db):
        self.assert_matches_per_sample(cfg, snr_db, 37)

    def test_mixed_snr_with_a_noiseless_entry(self):
        cfg = replace(desk_profile(), schedule_kind="random")
        snr_db = [0.0, 4000.0]  # 10^-400 underflows: sigma2 = 0
        assert noise_variance_for_snr(4000.0) == 0.0
        blocks = self.assert_matches_per_sample(cfg, snr_db, 37)
        flat = cfg.build_schedule().flat_indices()
        noiseless = [np.array_equal(y[j], h[j, flat]) for _, h, y in blocks for j in range(len(h))]
        assert 0 < sum(noiseless) < len(noiseless)

    def test_one_row(self):
        self.assert_matches_per_sample(micro_config(), 5.0, 1)

    def test_zero_angle_spread(self):
        # Every offset is -0.0 + 0.0 * u, as rng.uniform(-0.0, 0.0) gives.
        cfg = replace(desk_profile(), max_angle_spread_deg=0.0)
        self.assert_matches_per_sample(cfg, 0.0, 20)

    def test_index_beyond_uint32_rejected(self):
        cfg = micro_config()
        samples = dataset_pipeline.draw_samples(cfg, cfg.build_schedule(), 0.0, 1, 2**32 + 1)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            next(samples)


def synth_workers(monkeypatch, workers):
    """Make draw_samples use ``workers`` threads on any machine: ``workers``
    CPUs in the affinity mask and the cap raised to match."""
    cpus = set(range(workers))
    monkeypatch.setattr(dataset_pipeline.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(dataset_pipeline, "_SYNTH_WORKERS", workers)
    assert dataset_pipeline._synth_workers() == workers


def record_threads(monkeypatch) -> list:
    """The list the threads that synthesize blocks append themselves to, one
    entry per block."""
    threads = []
    channel_from_rays = dataset_pipeline.channel_from_rays

    def recording(*args):
        threads.append(threading.current_thread())
        return channel_from_rays(*args)

    monkeypatch.setattr(dataset_pipeline, "channel_from_rays", recording)
    return threads


def assert_synthesized_on(threads, caller, pooled):
    """Every block of ``threads`` ran on ``caller`` or on a pool thread, and
    one or more on a pool thread exactly when ``pooled``."""
    helpers = {thread for thread in threads if thread is not caller}
    assert all(thread.name.startswith("faslab-synth_") for thread in helpers)
    assert bool(helpers) == pooled


class TestSynthesisPool:
    """draw_samples' blocks on a thread pool: the bytes, the order, and
    what the pool leaves behind."""

    def test_bytes_do_not_depend_on_the_worker_count(self, monkeypatch):
        cfg = replace(desk_profile(), schedule_kind="random", num_slots=24)  # 96 samples, 64 ports
        snr_db = [0.0, 4000.0]  # mixed, with a noiseless point
        n = 101  # 16 rows per block: 6 full blocks and one of 5 rows
        threads = record_threads(monkeypatch)
        runs = {}
        interval = sys.getswitchinterval()
        for workers in (1, 2, 3):
            synth_workers(monkeypatch, workers)
            threads.clear()
            sys.setswitchinterval(1e-5)  # threads interleave as often as they can
            try:
                runs[workers] = list(
                    dataset_pipeline.draw_samples(cfg, cfg.build_schedule(), snr_db, 5, n)
                )
            finally:
                sys.setswitchinterval(interval)
            assert_synthesized_on(threads, threading.current_thread(), workers > 1)
        for workers in (2, 3):
            assert [lo for lo, _, _ in runs[workers]] == list(range(0, n, 16))
            assert len(runs[1]) == len(runs[workers])
            for (lo1, h1, y1), (lo2, h2, y2) in zip(runs[1], runs[workers]):
                assert lo1 == lo2
                assert np.array_equal(h1, h2) and np.array_equal(y1, y2)

    def test_streams_open_on_the_calling_thread(self, monkeypatch):
        synth_workers(monkeypatch, 3)
        blocks = record_threads(monkeypatch)
        streams = []
        stream = dataset_pipeline._stream

        def recording(state):
            streams.append(threading.current_thread())
            return stream(state)

        monkeypatch.setattr(dataset_pipeline, "_stream", recording)
        cfg = desk_profile()  # 16 rows per block: 25 blocks, in 4 runs
        n = 400
        assert len(list(dataset_pipeline.draw_samples(cfg, cfg.build_schedule(), 0.0, 1, n))) == 25
        assert streams == [threading.current_thread()] * n
        assert len(blocks) == 25
        assert_synthesized_on(blocks, threading.current_thread(), pooled=True)

    def test_fewer_than_four_blocks_run_in_the_calling_thread(self, monkeypatch):
        synth_workers(monkeypatch, 3)
        threads = record_threads(monkeypatch)
        cfg = desk_profile()  # 16 rows per block
        for n, pooled in ((1, False), (48, False), (49, True)):
            threads.clear()
            list(dataset_pipeline.draw_samples(cfg, cfg.build_schedule(), 0.0, 1, n))
            assert_synthesized_on(threads, threading.current_thread(), pooled)

    def test_off_the_main_thread_blocks_run_in_the_calling_thread(self, monkeypatch):
        synth_workers(monkeypatch, 3)
        threads = record_threads(monkeypatch)
        cfg = desk_profile()  # 16 rows per block: 7 blocks
        schedule = cfg.build_schedule()
        on_main = list(dataset_pipeline.draw_samples(cfg, schedule, 0.0, 1, 100))
        assert_synthesized_on(threads, threading.current_thread(), pooled=True)
        threads.clear()
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda thread: started.append(thread) or start(thread)
        )
        drawn = {}

        def draw():
            drawn["blocks"] = list(dataset_pipeline.draw_samples(cfg, schedule, 0.0, 1, 100))

        caller = threading.Thread(target=draw)
        caller.start()
        caller.join()
        assert started == [caller]
        assert set(threads) == {caller} and len(threads) == 7
        assert len(drawn["blocks"]) == len(on_main) == 7
        for (lo1, h1, y1), (lo2, h2, y2) in zip(on_main, drawn["blocks"]):
            assert lo1 == lo2
            assert h1.tobytes() == h2.tobytes() and y1.tobytes() == y2.tobytes()

    def test_closing_after_the_first_block_joins_the_pool(self, monkeypatch):
        synth_workers(monkeypatch, 3)
        cfg = desk_profile()
        before = threading.active_count()
        samples = dataset_pipeline.draw_samples(cfg, cfg.build_schedule(), 0.0, 1, 400)
        lo, h, _ = next(samples)
        assert lo == 0 and len(h) == 16
        assert threading.active_count() > before
        samples.close()
        assert threading.active_count() == before

    def test_an_exception_in_a_block_reaches_the_consumer(self, monkeypatch):
        synth_workers(monkeypatch, 3)

        class Boom(RuntimeError):
            pass

        calls = []
        lock = threading.Lock()
        channel_from_rays = dataset_pipeline.channel_from_rays

        def third_call_raises(*args):
            with lock:
                calls.append(None)
                if len(calls) == 3:
                    raise Boom("third block")
            return channel_from_rays(*args)

        monkeypatch.setattr(dataset_pipeline, "channel_from_rays", third_call_raises)
        cfg = desk_profile()
        before = threading.active_count()
        with pytest.raises(Boom, match="third block"):
            for _ in dataset_pipeline.draw_samples(cfg, cfg.build_schedule(), 0.0, 1, 400):
                pass
        assert threading.active_count() == before

    # Row 20 is drawn before any block is queued, row 150 while the first
    # run's blocks are in flight.
    @pytest.mark.parametrize("row", [20, 150])
    def test_an_exception_in_a_draw_reaches_the_consumer(self, monkeypatch, row):
        synth_workers(monkeypatch, 3)

        class Boom(RuntimeError):
            pass

        calls = []
        stream = dataset_pipeline._stream

        def raising(state):
            calls.append(None)
            if len(calls) == row + 1:
                raise Boom(f"row {row}")
            return stream(state)

        monkeypatch.setattr(dataset_pipeline, "_stream", raising)
        cfg = desk_profile()
        before = threading.active_count()
        with pytest.raises(Boom, match=f"row {row}"):
            for _ in dataset_pipeline.draw_samples(cfg, cfg.build_schedule(), 0.0, 1, 400):
                pass
        assert threading.active_count() == before

    def test_blocks_in_flight_bound_the_heap_not_n(self, monkeypatch):
        synth_workers(monkeypatch, 3)
        cfg = desk_profile()
        schedule = cfg.build_schedule()

        def peak(blocks):
            tracemalloc.start()
            try:
                samples = dataset_pipeline.draw_samples(cfg, schedule, 0.0, 3, 16 * blocks)
                next(samples)
                # A slow consumer: without the in-flight window the threads
                # would run ahead and fill the heap with finished blocks.
                time.sleep(0.3)
                for _ in samples:
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(16), peak(640)
        # Holding all 640 blocks' (h, y) takes 20 MB; the stream seeds grow
        # by 32 bytes a row (0.3 MB).  Both runs hold the same two drawn-ahead
        # runs of 8 blocks at most, each block's draws, h and y taking 57 KB.
        assert large - small < 4 * 2**20

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
EDGE_KEYS = [
    0,
    2**32 - 1,
    dataset_pipeline._MIXED_STREAM_KEY,
    dataset_pipeline._POS_INF_KEY,
    dataset_pipeline._NEG_INF_KEY,
]
EDGE_INDICES = [0, 1, 2**32 - 1]


class TestSampleStream:
    """sample_stream and draw_samples' per-row seeding are default_rng's
    streams, without building a SeedSequence per row."""

    @staticmethod
    def assert_default_rng_stream(seed, key, index):
        want = np.random.default_rng((seed, key, index))
        got = dataset_pipeline.sample_stream(seed, key, index)
        assert got.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("key", EDGE_KEYS)
    @pytest.mark.parametrize("index", EDGE_INDICES)
    def test_edge_values(self, seed, key, index):
        self.assert_default_rng_stream(seed, key, index)

    @given(
        st.integers(0, 2**96),
        st.integers(0, 2**33),
        st.integers(0, 2**32 - 1),
    )
    def test_drawn_triples(self, seed, key, index):
        self.assert_default_rng_stream(seed, key, index)

    @given(
        st.integers(0, 2**64),
        st.integers(0, 2**33),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20),
    )
    def test_vectorized_rows(self, seed, key, indices):
        states = dataset_pipeline._stream_states(seed, key, np.array(indices, dtype=np.uint32))
        assert states.shape == (len(indices), 4) and states.dtype == np.uint64
        for index, state in zip(indices, states):
            want = np.random.SeedSequence((seed, key, index)).generate_state(4, np.uint64)
            assert state.tolist() == want.tolist()

    @pytest.mark.parametrize(
        "seed, key, index", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 2**32)]
    )
    def test_out_of_range_rejected(self, seed, key, index):
        with pytest.raises(ValueError):
            dataset_pipeline.sample_stream(seed, key, index)


class TestGenerateDataset:
    def test_noiseless_full_coverage_is_permutation_of_target(self):
        cfg = micro_config()
        ds = generate_dataset(cfg, 1, np.inf, 7)  # snr = +inf => sigma^2 = 0
        feat = unpack_complex(ds.features[0].astype(float))
        tgt = unpack_complex(ds.targets[0].astype(float))
        order = cfg.build_schedule().flat_indices()
        assert np.array_equal(feat, tgt[order])

    def test_reference_scale_widths(self):
        # Full-scale configuration: 5e4 rows, widths 2PM = 2N = 512.
        cfg = ExperimentConfig()
        ds = generate_dataset(cfg, cfg.n_train_samples, 0.0, cfg.seeds.channel)
        assert ds.features.shape == (50_000, 512)
        assert ds.targets.shape == (50_000, 512)
        assert ds.features.dtype == np.float32

    def test_deterministic_bytes(self):
        cfg = micro_config()
        a = generate_dataset(cfg, 20, 5.0, 99)
        b = generate_dataset(cfg, 20, 5.0, 99)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)
        assert a.config_fingerprint == b.config_fingerprint

    def test_rows_do_not_depend_on_total_count(self):
        # Counter-derived streams: sample i is the same whether 10 or 30 rows
        # are generated.
        cfg = micro_config()
        small = generate_dataset(cfg, 10, 0.0, 3)
        large = generate_dataset(cfg, 30, 0.0, 3)
        assert np.array_equal(small.features, large.features[:10])
        assert np.array_equal(small.targets, large.targets[:10])

    def test_mixed_snr_mode(self):
        cfg = micro_config()
        ds = generate_dataset(cfg, 40, [0.0, 20.0], 11)
        again = generate_dataset(cfg, 40, [0.0, 20.0], 11)
        assert np.array_equal(ds.features, again.features)
        assert ds.features.shape == (40, 2 * 16)
        assert ds.config_fingerprint == dataset_fingerprint(cfg, [0.0, 20.0])

    def test_fingerprint_distinguishes_snr(self):
        cfg = micro_config()
        assert dataset_fingerprint(cfg, 0.0) != dataset_fingerprint(cfg, 10.0)


class TestSplit:
    def make_dataset(self, n):
        rng = np.random.default_rng(0)
        return Dataset(
            rng.standard_normal((n, 4)).astype(np.float32),
            rng.standard_normal((n, 6)).astype(np.float32),
            bytes(32),
            3,
            1,
            2,
        )

    def test_validation_ratio(self):
        train, val = split(self.make_dataset(100), 0.05, np.random.default_rng(1))
        assert val.n_samples == 5
        assert train.n_samples == 95

    def test_disjoint_union(self):
        ds = self.make_dataset(60)
        train, val = split(ds, 0.25, np.random.default_rng(2))
        combined = np.vstack([train.features, val.features])
        original = {row.tobytes() for row in ds.features}
        recombined = {row.tobytes() for row in combined}
        assert original == recombined
        assert len(recombined) == 60

    def test_deterministic(self):
        ds = self.make_dataset(40)
        t1, v1 = split(ds, 0.2, np.random.default_rng(3))
        t2, v2 = split(ds, 0.2, np.random.default_rng(3))
        assert np.array_equal(t1.features, t2.features)
        assert np.array_equal(v1.features, v2.features)

    def test_parts_share_no_memory_with_source(self):
        ds = self.make_dataset(20)
        for part in split(ds, 0.25, np.random.default_rng(4)):
            for arr in (part.features, part.targets):
                assert not np.shares_memory(arr, ds.features)
                assert not np.shares_memory(arr, ds.targets)

    def test_degenerate_split_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            split(self.make_dataset(10), 0.01, np.random.default_rng(0))
        with pytest.raises(ValueError, match="rho"):
            split(self.make_dataset(10), 1.5, np.random.default_rng(0))


class TestLoadSplit:
    """load_split streams a FASD payload into the two parts of split."""

    def saved(self, tmp_path, n=97, seed=21):
        path = tmp_path / "ds.fasd"
        save_dataset(generate_dataset(micro_config(), n, 0.0, seed), path)
        return path

    @pytest.mark.parametrize("chunk", [1, 1000, 1 << 20])
    @pytest.mark.parametrize("rho", [0.05, 0.5, 0.9])
    def test_equals_split_of_the_loaded_file_byte_for_byte(
        self, tmp_path, monkeypatch, chunk, rho
    ):
        # Rows of 32 features and 32 targets (128 bytes each): 1 byte reads
        # one row per chunk, 1000 bytes 7 rows (the last chunk of the 97
        # holds 6), the default every row at once.
        monkeypatch.setattr(dataset_pipeline, "_LOAD_CHUNK", chunk)
        path = self.saved(tmp_path)
        fingerprints = []

        def rng_for(fingerprint):
            fingerprints.append(fingerprint)
            return np.random.default_rng(31)

        got = load_split(path, rho, rng_for)
        want = split(load_dataset(path), rho, np.random.default_rng(31))
        assert fingerprints == [want[0].config_fingerprint]
        for a, b in zip(got, want):
            assert a.features.dtype == a.targets.dtype == np.float32
            assert a.features.tobytes() == b.features.tobytes()
            assert a.targets.tobytes() == b.targets.tobytes()
            assert (a.config_fingerprint, a.num_ports, a.num_antennas, a.num_slots) == (
                b.config_fingerprint, b.num_ports, b.num_antennas, b.num_slots
            )

    @pytest.mark.parametrize("where", ["features", "targets"])
    def test_a_flipped_byte_raises_checksum_error_naming_the_file(self, tmp_path, where):
        path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[200 if where == "features" else -5] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError, match=f"{path}: payload checksum mismatch"):
            load_split(path, 0.2, lambda fingerprint: np.random.default_rng(0))

    @pytest.mark.parametrize("cut", [-10, 10])
    def test_a_truncated_or_extended_payload_raises_checksum_error(self, tmp_path, cut):
        path = self.saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:cut] if cut < 0 else raw + bytes(cut))
        with pytest.raises(ChecksumError, match="truncated"):
            load_split(path, 0.2, lambda fingerprint: np.random.default_rng(0))

    def test_header_errors_are_those_of_load_dataset(self, tmp_path):
        path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="magic"):
            load_split(path, 0.2, lambda fingerprint: np.random.default_rng(0))
        path.write_bytes(bytes(raw[:50]))
        with pytest.raises(FileFormatError, match="too short"):
            load_split(path, 0.2, lambda fingerprint: np.random.default_rng(0))

    def test_split_errors_are_those_of_split(self, tmp_path):
        path = self.saved(tmp_path, n=10)
        with pytest.raises(ValueError, match="degenerate"):
            load_split(path, 0.01, lambda fingerprint: np.random.default_rng(0))
        with pytest.raises(ValueError, match="rho"):
            load_split(path, 1.5, lambda fingerprint: np.random.default_rng(0))


class TestLoadDataset:
    """load_dataset, which reads as load_split reads, against the Dataset
    that was saved."""

    @pytest.mark.parametrize("chunk", [1, 1000, 1 << 20])
    def test_returns_the_saved_dataset_byte_for_byte(self, tmp_path, monkeypatch, chunk):
        # 128-byte rows, as in TestLoadSplit: 1 row, 7 rows or every row per read.
        monkeypatch.setattr(dataset_pipeline, "_LOAD_CHUNK", chunk)
        ds = generate_dataset(micro_config(), 97, 0.0, 23)
        path = tmp_path / "ds.fasd"
        save_dataset(ds, path)
        got = load_dataset(path)
        assert got.features.dtype == got.targets.dtype == np.float32
        assert got.features.shape == ds.features.shape
        assert got.targets.shape == ds.targets.shape
        assert got.features.tobytes() == ds.features.tobytes()
        assert got.targets.tobytes() == ds.targets.tobytes()
        assert (got.config_fingerprint, got.num_ports, got.num_antennas, got.num_slots) == (
            ds.config_fingerprint, ds.num_ports, ds.num_antennas, ds.num_slots
        )

    def test_zero_width_features_load_with_both_loaders(self, tmp_path):
        # num_slots 0 makes the feature width 0: those reads take no bytes.
        targets = np.arange(800, dtype=np.float32).reshape(100, 8)
        ds = Dataset(np.zeros((100, 0)), targets, bytes(range(32)), 4, 2, 0)
        path = tmp_path / "z.fasd"
        save_dataset(ds, path)
        got = load_dataset(path)
        assert got.features.shape == (100, 0)
        assert got.targets.tobytes() == targets.tobytes()
        trn, val = load_split(path, 0.2, lambda fingerprint: np.random.default_rng(5))
        want = split(ds, 0.2, np.random.default_rng(5))
        for a, b in zip((trn, val), want):
            assert a.features.shape == b.features.shape == (len(b.targets), 0)
            assert a.targets.tobytes() == b.targets.tobytes()


class TestNormalizer:
    def test_constant_column_maps_to_zero(self):
        m = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        nrm = fit_normalizer(m)
        assert nrm.mean[0] == 3.0
        assert nrm.std[0] == 0.0
        normalized = apply_normalizer(nrm, m)
        assert np.all(normalized[:, 0] == 0.0)

    def test_two_point_column(self):
        nrm = fit_normalizer(np.array([[-1.0], [1.0]]))
        assert nrm.mean[0] == 0.0
        assert nrm.std[0] == 1.0
        assert apply_normalizer(nrm, np.array([[-1.0], [1.0]])).ravel().tolist() == [-1.0, 1.0]

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((50, 8)) * 3 + 1
        nrm = fit_normalizer(m)
        back = invert_normalizer(nrm, apply_normalizer(nrm, m))
        assert np.max(np.abs(back - m)) < 1e-6 * np.max(np.abs(m))

    def test_normalized_train_is_standard(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((200, 5)) * 7 - 2
        z = apply_normalizer(fit_normalizer(m), m)
        assert np.max(np.abs(z.mean(axis=0))) < 1e-6
        assert np.max(np.abs(z.std(axis=0) - 1)) < 1e-6

    def test_other_rows_use_train_statistics(self):
        # A constant shift of held-out rows must survive normalization.
        rng = np.random.default_rng(7)
        train = rng.standard_normal((100, 3))
        nrm = fit_normalizer(train)
        shifted = train + 10.0
        z = apply_normalizer(nrm, shifted)
        z_train = apply_normalizer(nrm, train)
        assert np.allclose(z - z_train, 10.0 / nrm.scale(), atol=1e-9)

    def test_out_buffers_are_bit_equal_to_the_float64_formulas(self):
        # A float32 matrix normalized into a float64 buffer, and a float64
        # matrix transformed in place, give the bits of the whole-array
        # float64 forms.
        rng = np.random.default_rng(8)
        rows = (rng.standard_normal((40, 6)) * 5 + 2).astype(np.float32)
        nrm = fit_normalizer(rows)
        nrm.std[2] = 0.0  # the epsilon guard
        wide = rows.astype(float)
        expected = (wide - nrm.mean) / np.maximum(nrm.std, nrm.epsilon)
        out = np.empty((40, 6))
        assert apply_normalizer(nrm, rows, out=out) is out
        assert out.tobytes() == expected.tobytes()
        assert apply_normalizer(nrm, rows).tobytes() == expected.tobytes()
        expected_back = expected * np.maximum(nrm.std, nrm.epsilon) + nrm.mean
        assert invert_normalizer(nrm, expected).tobytes() == expected_back.tobytes()
        assert invert_normalizer(nrm, out, out=out) is out
        assert out.tobytes() == expected_back.tobytes()

    def test_float32_out_buffers_compute_in_float32(self):
        # The statistics are rounded to float32 and the arithmetic stays in
        # float32, so no float64 temporary of the matrix's size is made.
        rng = np.random.default_rng(10)
        rows = (rng.standard_normal((500, 64)) * 5 + 2).astype(np.float32)
        nrm = fit_normalizer(rows)
        nrm.std[2] = 0.0  # the epsilon guard
        mean32 = nrm.mean.astype(np.float32)
        scale32 = np.maximum(nrm.std, nrm.epsilon).astype(np.float32)
        out = np.empty_like(rows)
        tracemalloc.start()
        try:
            assert apply_normalizer(nrm, rows, out=out) is out
            assert invert_normalizer(nrm, out, out=out) is out
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.size * 8 // 4
        expected = (rows - mean32) / scale32
        assert expected.dtype == np.float32
        assert out.tobytes() == (expected * scale32 + mean32).tobytes()
        assert apply_normalizer(nrm, rows, out=out).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "shape", [(2, 3), (3, 1), (1001, 129), (777, 64), (999, 66), (300, 4161)]
    )
    def test_fit_is_bit_equal_to_the_whole_float64_matrix(self, shape):
        # Widths with a one-column remainder past a 64-column block
        # (129, 4161) as well as exact and other odd widths; float32 rows,
        # float64 rows and column-major float64 rows.
        rng = np.random.default_rng(shape[1])
        scale = rng.random(shape[1]) * 5
        rows = rng.standard_normal(shape) * scale + rng.standard_normal(shape[1])
        for m in (rows.astype(np.float32), rows, np.asfortranarray(rows)):
            wide = np.asarray(m, dtype=float)
            nrm = fit_normalizer(m)
            assert nrm.mean.tobytes() == wide.mean(axis=0).tobytes()
            assert nrm.std.tobytes() == wide.std(axis=0, ddof=0).tobytes()

    def test_fit_never_widens_the_whole_matrix(self):
        rows = np.random.default_rng(9).standard_normal((20_000, 256)).astype(np.float32)
        one_float64_copy = rows.size * 8
        tracemalloc.start()
        try:
            fit_normalizer(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < one_float64_copy

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="2 rows"):
            fit_normalizer(np.ones((1, 4)))

    def test_width_mismatch_rejected(self):
        nrm = fit_normalizer(np.ones((3, 4)) * np.arange(4))
        with pytest.raises(ValueError, match="width"):
            apply_normalizer(nrm, np.ones((2, 5)))
        with pytest.raises(ValueError, match="width"):
            invert_normalizer(nrm, np.ones((2, 3)))

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="std"):
            Normalizer(np.zeros(2), np.array([-0.1, 1.0]))


class TestStorage:
    def make_dataset(self):
        cfg = micro_config()
        return generate_dataset(cfg, 25, 0.0, 13)

    def test_round_trip_bit_exact(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.fasd"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.targets, ds.targets)
        assert loaded.config_fingerprint == ds.config_fingerprint
        assert (loaded.num_ports, loaded.num_antennas, loaded.num_slots) == (16, 2, 8)

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = self.make_dataset()
        p1, p2 = tmp_path / "a.fasd", tmp_path / "b.fasd"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_fails_checksum(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.fasd"
        save_dataset(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(ChecksumError, match="truncated"):
            load_dataset(path)

    def test_corrupt_payload_fails_checksum(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.fasd"
        save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_dataset(path)

    def test_wrong_magic_rejected(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "ds.fasd"
        save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="magic"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "moved, field", [((2, -2), "feature_width"), ((0, 2), "target_width")]
    )
    def test_header_widths_must_match_the_dimensions(self, tmp_path, moved, field):
        # Two columns moved from the targets to the features keep the payload
        # size, so only the header check can catch them.
        path = tmp_path / "ds.fasd"
        save_dataset(self.make_dataset(), path)
        raw = bytearray(path.read_bytes())
        header = struct.Struct("<4sHIIIQII")  # FASD: ..., feature_width, target_width
        fields = list(header.unpack_from(raw))
        fields[-2] += moved[0]
        fields[-1] += moved[1]
        header.pack_into(raw, 0, *fields)
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match=f"ds.fasd: header field {field}"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "moved, field", [((2, -2), "feature_width"), ((0, 2), "target_width")]
    )
    def test_save_refuses_widths_the_load_would_reject(self, tmp_path, moved, field):
        ds = self.make_dataset()
        n = ds.n_samples
        bad = Dataset(
            np.zeros((n, ds.features.shape[1] + moved[0])),
            np.zeros((n, ds.targets.shape[1] + moved[1])),
            ds.config_fingerprint,
            ds.num_ports,
            ds.num_antennas,
            ds.num_slots,
        )
        path = tmp_path / "ds.fasd"
        with pytest.raises(FileFormatError, match=f"ds.fasd: header field {field}"):
            save_dataset(bad, path)
        assert not path.exists()

    def test_save_load_save_round_trip_is_byte_identical(self, tmp_path):
        ds = self.make_dataset()
        first, second = tmp_path / "a.fasd", tmp_path / "b.fasd"
        save_dataset(ds, first)
        save_dataset(load_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_arrays_are_writable_aligned_and_unshared(self, tmp_path):
        path = tmp_path / "ds.fasd"
        save_dataset(self.make_dataset(), path)
        a, b = load_dataset(path), load_dataset(path)
        for arr in (a.features, a.targets):
            assert arr.flags.writeable and arr.flags.aligned
        for x in (a.features, a.targets):
            for y in (b.features, b.targets):
                assert not np.shares_memory(x, y)
        a.features[0, 0] += 1.0
        assert a.features[0, 0] != b.features[0, 0]


class TestWriteArtifact:
    @staticmethod
    def cut_short():
        yield b"partial"
        raise RuntimeError("cut short")

    def test_writes_chunks_in_order_and_creates_parent(self, tmp_path):
        path = tmp_path / "new" / "dir" / "out.bin"
        chunks = [b"ab", memoryview(b"cd"), np.arange(2, dtype=np.uint8)]
        dataset_pipeline.write_artifact(path, chunks)
        assert path.read_bytes() == b"abcd\x00\x01"
        assert list(path.parent.iterdir()) == [path]

    def test_interrupted_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "model.fasm"
        with pytest.raises(RuntimeError, match="cut short"):
            dataset_pipeline.write_artifact(path, self.cut_short())
        assert not path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_interrupted_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "model.fasm"
        path.write_bytes(b"earlier")
        with pytest.raises(RuntimeError, match="cut short"):
            dataset_pipeline.write_artifact(path, self.cut_short())
        assert path.read_bytes() == b"earlier"
        assert list(tmp_path.iterdir()) == [path]
