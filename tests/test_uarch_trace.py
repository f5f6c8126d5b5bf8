"""Tests for synthetic trace generation."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceError
from repro.uarch import MemLevel, OpClass, WorkloadProfile, generate_trace
from repro.uarch.trace import MAX_DEP_DISTANCE


def make_profile(**kwargs):
    defaults = dict(name="test")
    defaults.update(kwargs)
    return WorkloadProfile(**defaults)


class TestProfileValidation:
    def test_default_profile_is_valid(self):
        make_profile()

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            make_profile(frac_load=1.5)

    def test_rejects_no_room_for_compute(self):
        with pytest.raises(ConfigurationError):
            make_profile(frac_load=0.5, frac_store=0.3, frac_branch=0.2)

    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigurationError):
            make_profile(l1_miss_rate=-0.1)

    def test_rejects_tiny_dep_distance(self):
        with pytest.raises(ConfigurationError):
            make_profile(mean_dep_distance=0.5)

    def test_rejects_unknown_osc_kind(self):
        with pytest.raises(ConfigurationError):
            make_profile(osc_kind="sawtooth")

    def test_rejects_period_inside_low_segment(self):
        with pytest.raises(ConfigurationError):
            make_profile(osc_kind="serial", osc_period_instrs=20, osc_low_instrs=30)

    def test_rejects_episodes_without_gap(self):
        with pytest.raises(ConfigurationError):
            make_profile(
                osc_kind="serial",
                osc_period_instrs=100,
                osc_episode_periods=3,
                osc_gap_instrs=0,
            )

    def test_with_seed_returns_new_profile(self):
        profile = make_profile(seed=1)
        other = profile.with_seed(2)
        assert other.seed == 2
        assert profile.seed == 1


class TestGeneration:
    def test_deterministic_for_same_seed(self):
        profile = make_profile(seed=7)
        a = generate_trace(profile, 5000)
        b = generate_trace(profile, 5000)
        assert np.array_equal(a.op_class, b.op_class)
        assert np.array_equal(a.dep1, b.dep1)

    def test_different_seed_differs(self):
        profile = make_profile(seed=7)
        a = generate_trace(profile, 5000)
        b = generate_trace(profile, 5000, seed=8)
        assert not np.array_equal(a.op_class, b.op_class)

    def test_rejects_empty_trace(self):
        with pytest.raises(TraceError):
            generate_trace(make_profile(), 0)

    def test_mix_close_to_profile(self):
        profile = make_profile(frac_load=0.3, frac_store=0.1, frac_branch=0.1)
        trace = generate_trace(profile, 50_000)
        counts = trace.mix_counts()
        assert counts[OpClass.LOAD] / len(trace) == pytest.approx(0.3, abs=0.02)
        assert counts[OpClass.STORE] / len(trace) == pytest.approx(0.1, abs=0.02)
        assert counts[OpClass.BRANCH] / len(trace) == pytest.approx(0.1, abs=0.02)
        assert trace.memory_fraction() == pytest.approx(0.4, abs=0.03)

    def test_fp_fraction(self):
        profile = make_profile(frac_fp=1.0)
        trace = generate_trace(profile, 20_000)
        counts = trace.mix_counts()
        assert counts.get(OpClass.INT_ALU, 0) == 0
        assert counts.get(OpClass.INT_MUL, 0) == 0
        assert counts.get(OpClass.FP_ALU, 0) > 0

    def test_dependencies_point_backwards(self):
        trace = generate_trace(make_profile(), 10_000)
        indices = np.arange(len(trace))
        assert np.all(trace.dep1 <= indices)
        assert np.all(trace.dep2 <= indices)
        assert np.all(trace.dep1 <= MAX_DEP_DISTANCE)
        assert np.all(trace.dep1 >= 0)

    def test_mem_levels_only_on_memory_ops(self):
        trace = generate_trace(make_profile(), 10_000)
        is_mem = (trace.op_class == int(OpClass.LOAD)) | (
            trace.op_class == int(OpClass.STORE)
        )
        assert np.all(trace.mem_level[~is_mem] == int(MemLevel.NONE))
        assert np.all(trace.mem_level[is_mem] >= int(MemLevel.L1))

    def test_miss_rates_respected(self):
        profile = make_profile(l1_miss_rate=0.2, l2_miss_rate=0.5)
        trace = generate_trace(profile, 100_000)
        mem = trace.mem_level[trace.mem_level >= 0]
        miss_fraction = np.mean(mem >= int(MemLevel.L2))
        assert miss_fraction == pytest.approx(0.2, abs=0.03)
        to_memory = np.mean(mem == int(MemLevel.MEMORY))
        assert to_memory == pytest.approx(0.1, abs=0.02)

    def test_mispredicts_only_on_branches(self):
        trace = generate_trace(make_profile(branch_mispredict_rate=0.5), 20_000)
        not_branch = trace.op_class != int(OpClass.BRANCH)
        assert not np.any(trace.mispredict[not_branch])
        branches = trace.op_class == int(OpClass.BRANCH)
        rate = np.mean(trace.mispredict[branches])
        assert rate == pytest.approx(0.5, abs=0.05)

    def test_column_length_mismatch_raises(self):
        trace = generate_trace(make_profile(), 100)
        from repro.uarch import SyntheticTrace

        with pytest.raises(TraceError):
            SyntheticTrace(
                profile=trace.profile,
                op_class=trace.op_class,
                dep1=trace.dep1[:50],
                dep2=trace.dep2,
                mem_level=trace.mem_level,
                mispredict=trace.mispredict,
            )


class TestOscillationOverlay:
    def test_serial_overlay_creates_chains(self):
        profile = make_profile(
            osc_kind="serial", osc_period_instrs=200, osc_low_instrs=40
        )
        trace = generate_trace(profile, 2000)
        segment = slice(200, 240)
        assert np.all(trace.op_class[segment] == int(OpClass.INT_ALU))
        assert np.all(trace.dep1[segment] == 1)
        assert np.all(trace.dep2[segment] == 0)

    def test_mem_overlay_inserts_miss(self):
        profile = make_profile(
            osc_kind="mem", osc_period_instrs=200, osc_low_instrs=20
        )
        trace = generate_trace(profile, 2000)
        assert trace.op_class[200] == int(OpClass.LOAD)
        assert trace.mem_level[200] == int(MemLevel.MEMORY)
        # Dependants point back at the missing load.
        for offset in range(1, 21):
            assert trace.dep1[200 + offset] == offset

    def test_l2_overlay_uses_l2_level(self):
        profile = make_profile(
            osc_kind="l2", osc_period_instrs=200, osc_low_instrs=20
        )
        trace = generate_trace(profile, 2000)
        assert trace.mem_level[200] == int(MemLevel.L2)

    def test_boost_rewrites_high_segment(self):
        profile = make_profile(
            osc_kind="serial",
            osc_period_instrs=200,
            osc_low_instrs=40,
            osc_boost_ilp=True,
        )
        trace = generate_trace(profile, 2000)
        high = slice(240, 400)
        assert np.all(trace.dep1[high] >= 80)
        assert np.all(trace.dep2[high] == 0)
        assert np.all(trace.mem_level[high] <= int(MemLevel.L1))

    def test_episodes_leave_gaps(self):
        profile = make_profile(
            osc_kind="serial",
            osc_period_instrs=200,
            osc_low_instrs=40,
            osc_episode_periods=2,
            osc_gap_instrs=5000,
        )
        trace = generate_trace(profile, 20_000)
        # Inside the gap there must be no serial chains (no long runs of
        # dep1 == 1 INT_ALU instructions).
        gap = slice(800, 5000)
        chain = (trace.dep1[gap] == 1) & (
            trace.op_class[gap] == int(OpClass.INT_ALU)
        )
        # A few coincidental dep1==1 draws are fine; a 40-long run is not.
        longest = 0
        current = 0
        for flag in chain:
            current = current + 1 if flag else 0
            longest = max(longest, current)
        assert longest < 20

    def test_jitter_moves_boundaries(self):
        fixed = make_profile(
            osc_kind="serial", osc_period_instrs=200, osc_low_instrs=40
        )
        jittered = make_profile(
            osc_kind="serial",
            osc_period_instrs=200,
            osc_low_instrs=40,
            osc_jitter_instrs=30,
        )
        a = generate_trace(fixed, 5000)
        b = generate_trace(jittered, 5000)
        assert not np.array_equal(a.dep1, b.dep1)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        from repro.uarch import load_trace, save_trace

        profile = make_profile(
            osc_kind="serial", osc_period_instrs=200, osc_low_instrs=30,
            icache_miss_rate=0.01, seed=9,
        )
        trace = generate_trace(profile, 5_000)
        path = str(tmp_path / "trace.npz")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert np.array_equal(loaded.op_class, trace.op_class)
        assert np.array_equal(loaded.dep1, trace.dep1)
        assert np.array_equal(loaded.mem_level, trace.mem_level)
        assert np.array_equal(loaded.icache_miss, trace.icache_miss)
        assert loaded.profile == trace.profile

    def test_loaded_trace_runs_identically(self, tmp_path):
        from repro.config import ProcessorConfig
        from repro.uarch import Pipeline, load_trace, save_trace

        trace = generate_trace(make_profile(seed=4), 20_000)
        path = str(tmp_path / "trace.npz")
        save_trace(trace, path)
        loaded = load_trace(path)
        a = Pipeline(trace, ProcessorConfig())
        b = Pipeline(loaded, ProcessorConfig())
        for _ in range(1_000):
            sa = a.step()
            sb = b.step()
            assert sa.current_amps == sb.current_amps
        assert a.total_committed == b.total_committed

    def test_rejects_garbage_file(self, tmp_path):
        from repro.uarch import load_trace

        path = tmp_path / "junk.npz"
        np.savez_compressed(str(path), nothing=np.zeros(3))
        with pytest.raises(TraceError):
            load_trace(str(path))


#: Profiles outside SPEC2K that reach the writer branches it leaves out:
#: an L2-missing low segment, and a boosted serial segment without a
#: dependency wavefront.
_EXTRA_PROFILES = {
    "extra-l2-boost": make_profile(
        osc_kind="l2", osc_period_instrs=300, osc_low_instrs=20,
        osc_boost_ilp=True, osc_jitter_instrs=25, seed=3,
    ),
    "extra-serial-boost": make_profile(
        osc_kind="serial", osc_period_instrs=180, osc_low_instrs=30,
        osc_boost_ilp=True, osc_episode_periods=4, osc_gap_instrs=700,
        seed=5,
    ),
}

#: sha256 of all six columns (dtype, then raw bytes) of 50k-instruction
#: traces at seeds None and 1000, per profile
EXPECTED_TRACE_DIGESTS = {
    "ammp":
        "0b754ad92494b26e39b49bca798faafbb51bc38efceb3e7b35592de617236184",
    "applu":
        "fff1bf954ed4bbdcb903775880840e65f138dd93b58843a0dda2fad7f04e71bb",
    "apsi":
        "0af136705238b9cf1aade71f5dd69884ddd8b641be9c2d2d4e5e538b5851ad97",
    "art":
        "5b34d1fe96782f215c7273acfb3956c2d31aeb5a819ca909b8215791ee424fa1",
    "bzip":
        "e67762fb8d3cc6265a3c8047898c4b0ab727a9b7e3c2886f8e5780701bd4c3dc",
    "crafty":
        "170f0812ff112d3a8ca0de3ff469f7e42803a83247012f5c91250cb50c94b2c9",
    "eon":
        "23bb83f481c9122aac3f1cfed446babf615b1effae9d04c24a2eee9b4b40ee03",
    "equake":
        "bfdbfe80a9355bd89c9631c50e95888c0c5c81c015dd71b13f38d65818668576",
    "extra-l2-boost":
        "3c2452f88312f625fc91f1bd55e61189d4584e39b3e9823e412fc51c34799a75",
    "extra-serial-boost":
        "ccf39f39c3f0eec9efb1b4f2ee040ce265e97b9a58af912ec0f09cf68e20998a",
    "facerec":
        "6060ae9b9926e03d2a856d150ca627a27a30726c2a5de2d5aed46e42fe12cdb1",
    "fma3d":
        "dedb8ae5c2477187f34fd02189c80f6e2c8c1c908ada1af80f3e1f3e9797491e",
    "galgel":
        "35da7e5449930c58328b5806049bd54b043b91767d0519f39638dae491a4fa1d",
    "gap":
        "19db53f6b5b3e27832ac2f3228ad26e0d794ebc217077ee3f7ae9cdb3fe145c9",
    "gcc":
        "ea7434c8e1dfeaf177390d4ec07a6cc578cb629462345020b6943c9a6af188ed",
    "gzip":
        "b42dd3988a50230ca523f5c520674075f70a961ac658ab26567479510698ed5b",
    "lucas":
        "97d619b64f72fad73260275b443fc2a7c5906aaeabcf4cd554b78bdca8526e00",
    "mcf":
        "d02aea3bd3952de58dfa6ecb7f5c35943b6472c1cf3951db2a17329c4b4b9c76",
    "mesa":
        "c3852e7cdc5624434b243470b6e302fde6f992263da919e936a5d5e02a551b86",
    "mgrid":
        "ce27be72c1e82730c6f033500207dc5cb608c5a9d31f7e9acfd929e2d6c81e01",
    "parser":
        "6fe1f32f012d89c86d11b342d2640e0d282a7cbdece5113687ee910d01d5fad2",
    "perlbmk":
        "27ff87389ad1f376d4e92a4824427f03fa7d8a145de675bfbab61fbcce86fa0c",
    "sixtrack":
        "ab36a76c302918bb8449ccc96f452a727042dbc78c63cb9295e1883331ff3b71",
    "swim":
        "76e7d17482907ada5b4bce51ff5d42cb0d9a0a05a7133dece7625383c6f3862c",
    "twolf":
        "5e5f6be510208f609194d0dffefc10335156ff253b9dd81374aa78e10e82caea",
    "vortex":
        "e8df3bd8fbee0c5d5919edfa9cafebd2081008b28b3a9b742f27175529cf80bb",
    "vpr":
        "937a085d812b701ffe23b2404f7d68c12375f7f3052c028d3a7d724d92bddc7e",
    "wupwise":
        "1aee2c8a5bca5c103bb5583185a556511705cbb05403ce13c8bb496611cb501e",
}


def trace_digest(profile) -> str:
    digest = hashlib.sha256()
    for seed in (None, 1000):
        trace = generate_trace(profile, 50_000, seed=seed)
        for name in ("op_class", "dep1", "dep2", "mem_level", "mispredict",
                     "icache_miss"):
            column = getattr(trace, name)
            digest.update(f"{seed} {name} {column.dtype.str}\n".encode())
            digest.update(column.tobytes())
    return digest.hexdigest()


def _digest_profiles():
    from repro.uarch import SPEC2K

    return {**SPEC2K, **_EXTRA_PROFILES}


class TestTraceDigests:
    def test_every_profile_has_a_digest(self):
        assert sorted(EXPECTED_TRACE_DIGESTS) == sorted(_digest_profiles())

    @pytest.mark.parametrize("name", sorted(EXPECTED_TRACE_DIGESTS))
    def test_trace_columns_are_pinned(self, name):
        profile = _digest_profiles()[name]
        assert trace_digest(profile) == EXPECTED_TRACE_DIGESTS[name]
