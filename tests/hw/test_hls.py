"""HLS wavelet engine: datapath fidelity and cycle accounting."""

import numpy as np
import pytest

from repro.errors import EngineError
from repro.hw.hls import (
    HlsWaveletEngine,
    MODE_IDLE,
    shift_register_dual_channel,
    shift_register_dual_fir,
)
from repro.hw.platform import ZynqPlatform


@pytest.fixture
def engine():
    return HlsWaveletEngine()


class TestShiftRegisterReference:
    def test_matches_numpy_correlation(self, rng):
        """The literal Fig. 4 loop equals a decimated FIR correlation
        (oldest sample meets register 0)."""
        taps = 12
        out_len = 10
        hp = rng.standard_normal(taps).astype(np.float32)
        lp = rng.standard_normal(taps).astype(np.float32)
        x = rng.standard_normal(2 * out_len + taps).astype(np.float32)
        hp_out, lp_out = shift_register_dual_fir(x, hp, lp)
        for m in range(out_len):
            window = x[2 * m: 2 * m + taps]
            assert np.isclose(hp_out[m], np.dot(window, hp), atol=1e-4)
            assert np.isclose(lp_out[m], np.dot(window, lp), atol=1e-4)

    def test_rejects_mismatched_registers(self):
        with pytest.raises(EngineError):
            shift_register_dual_fir(np.zeros(32), np.zeros(12), np.zeros(10))

    def test_rejects_odd_taps(self):
        with pytest.raises(EngineError):
            shift_register_dual_fir(np.zeros(32), np.zeros(11), np.zeros(11))

    def test_rejects_short_input(self):
        with pytest.raises(EngineError):
            shift_register_dual_fir(np.zeros(10), np.zeros(12), np.zeros(12))


class TestCoefficientLoading:
    def test_load_and_query(self, engine):
        seconds = engine.load_coefficients(np.ones(12), np.ones(12))
        assert engine.loaded_taps == 12
        assert seconds > 0
        assert engine.stats.coefficient_loads == 1

    def test_oversized_filter_rejected(self, engine):
        with pytest.raises(EngineError):
            engine.load_coefficients(np.ones(64), np.ones(64))

    def test_mismatched_pair_rejected(self, engine):
        with pytest.raises(EngineError):
            engine.load_coefficients(np.ones(12), np.ones(10))

    def test_mode_returns_to_idle(self, engine):
        engine.load_coefficients(np.ones(8), np.ones(8))
        assert engine.mode == MODE_IDLE


class TestForwardLine:
    def test_requires_coefficients(self, engine):
        with pytest.raises(EngineError):
            engine.forward_line(np.zeros(64), 16, step=2)

    def test_decimated_matches_reference_loop(self, engine, rng):
        """forward_line (convolution semantics) equals the Fig. 4 loop
        with reversed coefficient registers — what the driver loads."""
        taps = 12
        out_len = 8
        lp = rng.standard_normal(taps).astype(np.float32)
        hp = rng.standard_normal(taps).astype(np.float32)
        engine.load_coefficients(lp, hp)
        x = rng.standard_normal((out_len - 1) * 2 + taps).astype(np.float32)
        lp_out, hp_out, _ = engine.forward_line(x, out_len, step=2)
        ref_hp, ref_lp = shift_register_dual_fir(
            np.concatenate([x, np.zeros(2, np.float32)]),
            hp[::-1].copy(), lp[::-1].copy())
        assert np.array_equal(lp_out, ref_lp[:out_len])
        assert np.array_equal(hp_out, ref_hp[:out_len])

    def test_undecimated_step(self, engine, rng):
        taps = 8
        lp = rng.standard_normal(taps).astype(np.float32)
        hp = rng.standard_normal(taps).astype(np.float32)
        engine.load_coefficients(lp, hp)
        n = 16
        x = rng.standard_normal(n + taps - 1).astype(np.float32)
        lp_out, hp_out, _ = engine.forward_line(x, n, step=1)
        for i in range(n):
            window = x[i: i + taps]
            assert np.isclose(lp_out[i], np.dot(window, lp[::-1]), atol=1e-4)

    def test_short_line_rejected(self, engine):
        engine.load_coefficients(np.ones(12), np.ones(12))
        with pytest.raises(EngineError):
            engine.forward_line(np.zeros(10), 16, step=2)

    def test_bad_step_rejected(self, engine):
        engine.load_coefficients(np.ones(12), np.ones(12))
        with pytest.raises(EngineError):
            engine.forward_line(np.zeros(64), 16, step=3)

    def test_outputs_are_float32(self, engine, rng):
        engine.load_coefficients(np.ones(8), np.ones(8))
        x = rng.standard_normal(64).astype(np.float32)
        lp_out, hp_out, _ = engine.forward_line(x, 16, step=2)
        assert lp_out.dtype == np.float32
        assert hp_out.dtype == np.float32


class TestInverseLine:
    def test_dual_channel_correlation(self, engine, rng):
        taps = 8
        g0 = rng.standard_normal(taps).astype(np.float32)
        g1 = rng.standard_normal(taps).astype(np.float32)
        engine.load_coefficients(g0, g1)
        n = 12
        lo = rng.standard_normal(n + taps - 1).astype(np.float32)
        hi = rng.standard_normal(n + taps - 1).astype(np.float32)
        out, _ = engine.inverse_line(lo, hi, n)
        for i in range(n):
            expected = (np.dot(lo[i: i + taps], g0)
                        + np.dot(hi[i: i + taps], g1))
            assert np.isclose(out[i], expected, atol=1e-4)

    def test_matches_reference_loop(self, engine, rng):
        """inverse_line equals the scalar inverse-mode loop bit for bit:
        two tap-ordered accumulators, summed at the end."""
        taps = 14
        out_len = 22
        g0 = rng.standard_normal(taps).astype(np.float32)
        g1 = rng.standard_normal(taps).astype(np.float32)
        engine.load_coefficients(g0, g1)
        lo = (rng.random(out_len + taps - 1) * 255).astype(np.float32)
        hi = (rng.random(out_len + taps - 1) * 255).astype(np.float32)
        out, _ = engine.inverse_line(lo, hi, out_len)
        assert np.array_equal(out, shift_register_dual_channel(lo, hi, g0, g1))

    def test_channel_length_mismatch(self, engine):
        engine.load_coefficients(np.ones(8), np.ones(8))
        with pytest.raises(EngineError):
            engine.inverse_line(np.zeros(20), np.zeros(19), 12)

    def test_requires_coefficients(self, engine):
        with pytest.raises(EngineError):
            engine.inverse_line(np.zeros(20), np.zeros(20), 12)

    def test_short_line_rejected(self, engine):
        engine.load_coefficients(np.ones(8), np.ones(8))
        with pytest.raises(EngineError):
            engine.inverse_line(np.zeros(18), np.zeros(18), 12)


class TestDualChannelReference:
    def test_matches_numpy_correlation(self, rng):
        taps = 8
        lp = rng.standard_normal(taps).astype(np.float32)
        hp = rng.standard_normal(taps).astype(np.float32)
        lo = rng.standard_normal(20).astype(np.float32)
        hi = rng.standard_normal(20).astype(np.float32)
        out = shift_register_dual_channel(lo, hi, lp, hp)
        assert out.shape == (20 - taps + 1,)
        for m in range(len(out)):
            expected = (np.dot(lo[m: m + taps], lp)
                        + np.dot(hi[m: m + taps], hp))
            assert np.isclose(out[m], expected, atol=1e-4)

    def test_rejects_mismatched_registers(self):
        with pytest.raises(EngineError):
            shift_register_dual_channel(np.zeros(20), np.zeros(20),
                                        np.zeros(8), np.zeros(6))

    def test_rejects_mismatched_channels(self):
        with pytest.raises(EngineError):
            shift_register_dual_channel(np.zeros(20), np.zeros(19),
                                        np.zeros(8), np.zeros(8))

    def test_rejects_short_input(self):
        with pytest.raises(EngineError):
            shift_register_dual_channel(np.zeros(6), np.zeros(6),
                                        np.zeros(8), np.zeros(8))


class TestSheetJobs:
    """A sheet job is its rows' line jobs: same bits, same counters."""

    def test_forward_rows_match_line_jobs(self, rng):
        sheet_engine, line_engine = HlsWaveletEngine(), HlsWaveletEngine()
        lp = rng.standard_normal(14).astype(np.float32)
        hp = rng.standard_normal(14).astype(np.float32)
        sheet = rng.standard_normal((5, 2 * 9 + 12)).astype(np.float32)
        for step, out_len in ((2, 9), (1, 17)):
            sheet_engine.load_coefficients(lp, hp)
            line_engine.load_coefficients(lp, hp)
            lp_out, hp_out, seconds = sheet_engine.forward_lines(
                sheet, out_len, step)
            assert lp_out.shape == hp_out.shape == (5, out_len)
            total = 0.0
            for row, line in enumerate(sheet):
                lp_line, hp_line, t = line_engine.forward_line(
                    line, out_len, step)
                assert np.array_equal(lp_out[row], lp_line)
                assert np.array_equal(hp_out[row], hp_line)
                total += t
            assert np.isclose(seconds, total)
        assert sheet_engine.stats == line_engine.stats
        assert sheet_engine.stats.invocations == 10

    def test_inverse_rows_match_line_jobs(self, rng):
        sheet_engine, line_engine = HlsWaveletEngine(), HlsWaveletEngine()
        for eng in (sheet_engine, line_engine):
            eng.load_coefficients(np.arange(1, 9) / 8.0, -np.arange(8) / 8.0)
        lo = rng.standard_normal((4, 20)).astype(np.float32)
        hi = rng.standard_normal((4, 20)).astype(np.float32)
        out, _ = sheet_engine.inverse_lines(lo, hi, 13)
        for row in range(4):
            line, _ = line_engine.inverse_line(lo[row], hi[row], 13)
            assert np.array_equal(out[row], line)
        assert sheet_engine.stats == line_engine.stats
        assert sheet_engine.mode == MODE_IDLE

    def test_empty_sheet_accounts_nothing(self, engine):
        engine.load_coefficients(np.ones(8), np.ones(8))
        lp_out, _, seconds = engine.forward_lines(
            np.zeros((0, 40), np.float32), 16, 2)
        assert lp_out.shape == (0, 16)
        assert seconds == 0.0
        assert engine.stats.invocations == 0

    def test_sheet_must_be_two_dimensional(self, engine):
        engine.load_coefficients(np.ones(8), np.ones(8))
        with pytest.raises(EngineError):
            engine.forward_lines(np.zeros((2, 3, 40)), 16, 2)
        with pytest.raises(EngineError):
            engine.forward_line(np.zeros((2, 40)), 16, 2)
        with pytest.raises(EngineError):
            engine.inverse_lines(np.zeros(40), np.zeros(40), 16)

    def test_mismatched_channel_sheets_rejected(self, engine):
        """A (1, n) channel must not broadcast against an (m, n) one."""
        engine.load_coefficients(np.ones(8), np.ones(8))
        with pytest.raises(EngineError):
            engine.inverse_lines(np.zeros((3, 20)), np.zeros((1, 20)), 12)
        with pytest.raises(EngineError):
            engine.inverse_lines(np.zeros((3, 20)), np.zeros((4, 20)), 12)


class TestCycleModel:
    def test_cycles_grow_with_line_length(self, engine, rng):
        engine.load_coefficients(np.ones(12), np.ones(12))
        short = rng.standard_normal(2 * 8 + 12).astype(np.float32)
        long = rng.standard_normal(2 * 64 + 12).astype(np.float32)
        _, _, t_short = engine.forward_line(short, 8, step=2)
        _, _, t_long = engine.forward_line(long, 64, step=2)
        assert t_long > t_short

    def test_memcpys_not_pipelined(self, engine):
        """Latency = transfer-in + loop + transfer-out, strictly additive
        (the paper notes VIVADO_HLS does not pipeline the memcpys)."""
        base = engine.line_seconds_estimate(0, 0, 0)
        est = engine.line_seconds_estimate(words_in=100, words_out=100,
                                           loop_iterations=50)
        loop_part = engine.line_seconds_estimate(0, 0, 50) - base
        in_part = engine.line_seconds_estimate(100, 0, 0) - base
        out_part = engine.line_seconds_estimate(0, 100, 0) - base
        assert np.isclose(est - base, loop_part + in_part + out_part)

    def test_stats_accumulate(self, engine, rng):
        engine.load_coefficients(np.ones(8), np.ones(8))
        x = rng.standard_normal(64).astype(np.float32)
        engine.forward_line(x, 16, step=2)
        engine.forward_line(x, 16, step=2)
        assert engine.stats.invocations == 2
        assert engine.stats.cycles > 0

    def test_pl_clock_scales_latency(self, rng):
        fast = HlsWaveletEngine(ZynqPlatform(pl_clock_hz=200e6))
        slow = HlsWaveletEngine(ZynqPlatform(pl_clock_hz=100e6))
        assert np.isclose(slow.line_seconds_estimate(64, 64, 32),
                          2.0 * fast.line_seconds_estimate(64, 64, 32))
