"""Reference HLS path: the line-at-a-time engine jobs and the per-line
:class:`HlsBackend` primitives, kept verbatim as the oracle for the
sheet-level implementation in :mod:`repro.hw.hls` and
:mod:`repro.hw.fpga`.

:class:`OracleHlsWaveletEngine` runs one line per call (``forward_line``
through a ``window @ reversed_taps`` product, ``inverse_line`` through
one BLAS matrix-vector product per channel) and accounts one
invocation per call.  :class:`OracleHlsBackend` slices every 2-D
primitive into lines and pushes them through the engine one Python
call at a time.  The differential suite and the HLS bench assert that
the production path reproduces the forward bits, the inverse values
(within float32 rounding; the oracle's inverse bits depend on the
host's BLAS) and the :class:`EngineStats` counters of this oracle.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.dtcwt.backend import KernelBackend
from repro.errors import EngineError
from repro.hw.driver import WaveletDriver
from repro.hw.fpga import pad_filter_pair
from repro.hw.hls import MODE_FORWARD, MODE_IDLE, MODE_INVERSE, HlsWaveletEngine
from repro.hw.platform import DEFAULT_PLATFORM, ZynqPlatform


class OracleHlsWaveletEngine(HlsWaveletEngine):
    """The engine with the per-line jobs and per-call accounting."""

    def forward_line(self, extended: np.ndarray, out_len: int,
                     step: int) -> Tuple[np.ndarray, np.ndarray, float]:
        """Mode 2: dual-filter one line.

        ``extended`` holds the halo-extended input samples; ``step`` is
        the input stride per output (2 = decimated, 1 = undecimated).
        Returns ``(lp_out, hp_out, pl_seconds)``.
        """
        if self._loaded_taps == 0:
            raise EngineError("no coefficients loaded (run mode 1 first)")
        if step not in (1, 2):
            raise EngineError(f"step must be 1 or 2, got {step}")
        taps = self._loaded_taps
        x = np.asarray(extended, dtype=np.float32)
        expected = (out_len - 1) * step + taps
        if len(x) < expected:
            raise EngineError(
                f"line of {len(x)} samples too short: need {expected} "
                f"for {out_len} outputs at step {step} with {taps} taps"
            )
        self.mode = MODE_FORWARD
        lp = self._coeff_lp[:taps].astype(np.float64)
        hp = self._coeff_hp[:taps].astype(np.float64)
        # vectorized equivalent of the Fig. 4 shift-register loop
        idx = np.arange(out_len)[:, None] * step + np.arange(taps)[None, :]
        window = x[idx].astype(np.float32)
        lp_out = (window @ lp.astype(np.float32)[::-1]).astype(np.float32)
        hp_out = (window @ hp.astype(np.float32)[::-1]).astype(np.float32)
        seconds = self._line_seconds(len(x), out_len * 2,
                                     out_len + (taps + 1) // 2)
        self.mode = MODE_IDLE
        return lp_out, hp_out, seconds

    def inverse_line(self, lo_ext: np.ndarray, hi_ext: np.ndarray,
                     out_len: int) -> Tuple[np.ndarray, float]:
        """Mode 3: dual-channel synthesis of one line.

        ``lo_ext``/``hi_ext`` are zero-stuffed, halo-extended channel
        lines; the datapath correlates both against the coefficient
        registers and sums the accumulators.  Returns ``(line, seconds)``.
        """
        if self._loaded_taps == 0:
            raise EngineError("no coefficients loaded (run mode 1 first)")
        taps = self._loaded_taps
        lo = np.asarray(lo_ext, dtype=np.float32)
        hi = np.asarray(hi_ext, dtype=np.float32)
        if len(lo) != len(hi):
            raise EngineError("inverse-mode channel lines must match in length")
        if len(lo) < out_len + taps - 1:
            raise EngineError(
                f"channel lines of {len(lo)} samples too short for "
                f"{out_len} outputs with {taps} taps"
            )
        self.mode = MODE_INVERSE
        idx = np.arange(out_len)[:, None] + np.arange(taps)[None, :]
        out = (lo[idx] @ self._coeff_lp[:taps]
               + hi[idx] @ self._coeff_hp[:taps]).astype(np.float32)
        seconds = self._line_seconds(2 * len(lo), out_len, out_len + taps)
        self.mode = MODE_IDLE
        return out, seconds

    def _line_seconds(self, words_in: int, words_out: int,
                      loop_iterations: int) -> float:
        """Latency of one invocation: memcpy-in, loop, memcpy-out (serial)."""
        cycles = (self.acp.transfer_cycles(words_in)
                  + loop_iterations + self.pipeline_depth
                  + self.acp.transfer_cycles(words_out))
        self.stats.invocations += 1
        self.stats.cycles += cycles
        self.stats.words_in += words_in
        self.stats.words_out += words_out
        return cycles * self.platform.pl_cycle_s


class OracleHlsBackend(KernelBackend):
    """Kernel backend executing every line on the engine, one call each."""

    name = "fpga-oracle"

    def __init__(self, engine: Optional[HlsWaveletEngine] = None,
                 driver: Optional[WaveletDriver] = None,
                 platform: ZynqPlatform = DEFAULT_PLATFORM):
        super().__init__(dtype=np.float32)
        self.engine = (engine if engine is not None
                       else OracleHlsWaveletEngine(platform))
        self.driver = driver if driver is not None else WaveletDriver(platform)
        self._loaded_key: Optional[bytes] = None

    # -- coefficient management -----------------------------------------
    def _load(self, lp: np.ndarray, hp: np.ndarray) -> None:
        key = lp.tobytes() + b"|" + hp.tobytes()
        if key != self._loaded_key:
            self.engine.load_coefficients(lp, hp)
            self._loaded_key = key

    # -- line plumbing ----------------------------------------------------
    @staticmethod
    def _lines(x: np.ndarray, axis: int) -> np.ndarray:
        """Collapse ``x`` to 2-D with the filtered dimension last."""
        x = np.asarray(x, dtype=np.float32)
        axis = axis % x.ndim if x.ndim else 0
        if x.ndim >= 2 and axis == x.ndim - 2:
            x = np.swapaxes(x, -1, -2)
        elif axis != x.ndim - 1:
            raise EngineError(
                f"the line engine filters one of the two trailing axes; "
                f"got axis {axis} for ndim {x.ndim}"
            )
        return x.reshape(-1, x.shape[-1]) if x.ndim != 2 else x

    @staticmethod
    def _unlines(lines: np.ndarray, shaped: np.ndarray, axis: int
                 ) -> np.ndarray:
        """Expand a processed line sheet back to ``shaped``'s layout."""
        axis = axis % shaped.ndim if shaped.ndim else 0
        swapped = shaped.ndim >= 2 and axis == shaped.ndim - 2
        lead = shaped.shape[:-1]
        if swapped:
            lead = shaped.shape[:-2] + (shaped.shape[-1],)
        out = lines.reshape(lead + (lines.shape[-1],))
        return np.swapaxes(out, -1, -2) if swapped else out

    def _check_width(self, n: int) -> None:
        if n > self.driver.area_words:
            raise EngineError(
                f"line of {n} words exceeds the {self.driver.area_words}-word "
                "buffer area (the hardware supports widths up to 2048 pixels)"
            )

    # -- primitives --------------------------------------------------------
    def analysis_u(self, x, h0, c0, h1, c1, axis):
        x = np.asarray(x, dtype=np.float32)
        lines = self._lines(x, axis)
        n = lines.shape[1]
        self._check_width(n)
        f0, f1, center = pad_filter_pair(np.asarray(h0, np.float32), c0,
                                         np.asarray(h1, np.float32), c1)
        taps = len(f0)
        self._load(f0, f1)
        ext_idx = (np.arange(n + taps - 1) - (taps - 1) + center) % n
        lo = np.empty_like(lines)
        hi = np.empty_like(lines)
        for i, line in enumerate(lines):
            lo[i], hi[i], _ = self.engine.forward_line(line[ext_idx], n, step=1)
        return self._unlines(lo, x, axis), self._unlines(hi, x, axis)

    def analysis_d(self, x, h0, h1, axis):
        x = np.asarray(x, dtype=np.float32)
        lines = self._lines(x, axis)
        n = lines.shape[1]
        self._check_width(n)
        f0 = np.asarray(h0, dtype=np.float32)
        f1 = np.asarray(h1, dtype=np.float32)
        taps = len(f0)
        self._load(f0, f1)
        out_len = n // 2
        ext_idx = (np.arange((out_len - 1) * 2 + taps) - (taps - 1)) % n
        lo = np.empty((lines.shape[0], out_len), dtype=np.float32)
        hi = np.empty_like(lo)
        for i, line in enumerate(lines):
            lo[i], hi[i], _ = self.engine.forward_line(line[ext_idx], out_len,
                                                       step=2)
        return self._unlines(lo, x, axis), self._unlines(hi, x, axis)

    def synthesis_d(self, lo, hi, h0, h1, axis):
        lo = np.asarray(lo, dtype=np.float32)
        lo_l = self._lines(lo, axis)
        hi_l = self._lines(hi, axis)
        half = lo_l.shape[1]
        n = half * 2
        self._check_width(n)
        f0 = np.asarray(h0, dtype=np.float32)
        f1 = np.asarray(h1, dtype=np.float32)
        taps = len(f0)
        self._load(f0, f1)
        ext_idx = np.arange(n + taps - 1) % n
        out = np.empty((lo_l.shape[0], n), dtype=np.float32)
        for i in range(lo_l.shape[0]):
            up_lo = np.zeros(n, dtype=np.float32)
            up_hi = np.zeros(n, dtype=np.float32)
            up_lo[0::2] = lo_l[i]
            up_hi[0::2] = hi_l[i]
            out[i], _ = self.engine.inverse_line(up_lo[ext_idx],
                                                 up_hi[ext_idx], n)
        return self._unlines(out, lo, axis)

    def synthesis_u(self, u0, u1, g0, c0, g1, c1, axis):
        u0 = np.asarray(u0, dtype=np.float32)
        u0_l = self._lines(u0, axis)
        u1_l = self._lines(u1, axis)
        n = u0_l.shape[1]
        self._check_width(n)
        f0, f1, center = pad_filter_pair(np.asarray(g0, np.float32), c0,
                                         np.asarray(g1, np.float32), c1)
        taps = len(f0)
        # inverse mode correlates; reverse the padded filters to realize
        # the centered convolution of the level-1 synthesis identity
        self._load(f0[::-1].copy(), f1[::-1].copy())
        ext_idx = (np.arange(n + taps - 1) - (taps - 1) + center) % n
        out = np.empty_like(u0_l)
        for i in range(u0_l.shape[0]):
            out[i], _ = self.engine.inverse_line(u0_l[i][ext_idx],
                                                 u1_l[i][ext_idx], n)
        return self._unlines(out, u0, axis)
