"""Functional + cycle model of the Vivado-HLS wavelet engine (paper Fig. 4).

The real engine is synthesized from C++ by VIVADO_HLS: a ``memcpy``
pulls one line (plus halo) from DDR into BRAM over the ACP, a
shift-register feeds two 12-tap MAC chains (high-pass and low-pass
accumulators) pipelined at II=1, and a second ``memcpy`` pushes the
results back.  An AXI4-Lite slave carries three commands: (1) load
filter coefficients, (2) forward transform, (3) inverse transform.

This module reproduces that structure:

* :class:`HlsWaveletEngine` holds the coefficient registers, executes
  jobs in **float32** (the hardware datapath precision) and accounts
  PL cycles per invocation with the paper's latency structure — the
  two memcpys are *not* pipelined with the processing loop ("the
  current VIVADO_HLS tools do not pipeline the memcpy's").
* Jobs are *sheets*: :meth:`~HlsWaveletEngine.forward_lines` and
  :meth:`~HlsWaveletEngine.inverse_lines` take ``(n_lines, line_len)``
  arrays of independent halo-extended lines and account exactly one
  invocation per line, so the counters read as if every line had been
  issued on its own (``forward_line``/``inverse_line`` are the one-row
  case).  Outputs come from a tap-ordered float32 multiply-accumulate
  over the whole sheet: one register (tap) at a time, register 0
  first, two accumulators summed at the end in inverse mode.  That is
  the accumulation order of the Fig. 4 shift-register loop, so the
  bits do not depend on the host's BLAS.
* :func:`shift_register_dual_fir` and
  :func:`shift_register_dual_channel` are literal, scalar
  transcriptions of the forward and inverse loops, used by the tests
  to pin the sheet implementation to the documented datapath bit for
  bit.

The engine only ever sees lines: the processing system (see
:mod:`repro.hw.driver` and :mod:`repro.hw.fpga`) prepares circular
halos and interleaving exactly the way the Linux driver's user-space
code would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import EngineError
from .axi import AcpModel
from .platform import DEFAULT_PLATFORM, ZynqPlatform

MODE_IDLE = 0
MODE_LOAD_COEFFS = 1
MODE_FORWARD = 2
MODE_INVERSE = 3


def shift_register_dual_fir(extended: np.ndarray, hp: np.ndarray,
                            lp: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar transcription of the Fig. 4 datapath (reference only).

    Consumes two interleaved input samples per iteration, multiplies the
    shift register against both coefficient registers and emits one
    (hp, lp) output pair once the register is primed.  ``extended`` must
    contain ``2 * out_len + taps`` float32 samples (the halo included),
    mirroring the ``outwidth * 2 + 12`` words of the paper's buffer.

    Note the datapath computes a *correlation* against the coefficient
    registers (``out[m] = sum_j c[j] x[2m + j]``): the oldest sample
    meets register 0.  The driver therefore loads filter taps in
    reversed order when a convolution is wanted —
    :meth:`HlsWaveletEngine.forward_line` does this internally.
    """
    taps = len(hp)
    if len(lp) != taps:
        raise EngineError("hp/lp coefficient registers must match in length")
    if taps % 2:
        raise EngineError("the dual-sample datapath needs an even tap count")
    x = np.asarray(extended, dtype=np.float32)
    out_len = (len(x) - taps) // 2
    if out_len <= 0:
        raise EngineError(f"input of {len(x)} samples too short for {taps} taps")

    shift = np.zeros(taps, dtype=np.float32)
    hp_out = np.zeros(out_len, dtype=np.float32)
    lp_out = np.zeros(out_len, dtype=np.float32)
    prime = taps // 2
    for i in range(out_len + prime):
        hp_acc = np.float32(0.0)
        lp_acc = np.float32(0.0)
        for j in range(taps):
            hp_acc += np.float32(hp[j]) * shift[j]
            lp_acc += np.float32(lp[j]) * shift[j]
        shift[:-2] = shift[2:]
        shift[-2] = x[2 * i]
        shift[-1] = x[2 * i + 1]
        if i >= prime:
            hp_out[i - prime] = hp_acc
            lp_out[i - prime] = lp_acc
    return hp_out, lp_out


def shift_register_dual_channel(lo_ext: np.ndarray, hi_ext: np.ndarray,
                                lp: np.ndarray, hp: np.ndarray) -> np.ndarray:
    """Scalar transcription of the inverse-mode datapath (reference only).

    Inverse mode shifts one sample of each channel per iteration into
    its own register; the low channel meets the ``lp`` coefficient
    register and the high channel the ``hp`` one, each through its own
    accumulator, and the two accumulators are summed into one output
    (``out[m] = sum_j lp[j] lo[m + j] + sum_j hp[j] hi[m + j]``).
    ``lo_ext``/``hi_ext`` hold ``out_len + taps - 1`` float32 samples
    each (the halo included).
    """
    taps = len(lp)
    if len(hp) != taps:
        raise EngineError("hp/lp coefficient registers must match in length")
    lo = np.asarray(lo_ext, dtype=np.float32)
    hi = np.asarray(hi_ext, dtype=np.float32)
    if len(lo) != len(hi):
        raise EngineError("inverse-mode channel lines must match in length")
    out_len = len(lo) - taps + 1
    if out_len <= 0:
        raise EngineError(f"input of {len(lo)} samples too short for {taps} taps")

    lo_reg = np.zeros(taps, dtype=np.float32)
    hi_reg = np.zeros(taps, dtype=np.float32)
    out = np.zeros(out_len, dtype=np.float32)
    for i in range(len(lo)):
        lo_reg[:-1] = lo_reg[1:]
        hi_reg[:-1] = hi_reg[1:]
        lo_reg[-1] = lo[i]
        hi_reg[-1] = hi[i]
        if i < taps - 1:
            continue
        lo_acc = np.float32(0.0)
        hi_acc = np.float32(0.0)
        for j in range(taps):
            lo_acc += np.float32(lp[j]) * lo_reg[j]
            hi_acc += np.float32(hp[j]) * hi_reg[j]
        out[i - taps + 1] = lo_acc + hi_acc
    return out


def _tap_ordered_mac(sheets: np.ndarray, coeffs: np.ndarray, out_len: int,
                     step: int) -> np.ndarray:
    """Both accumulators of a job, for every line of the sheet at once.

    ``sheets`` is ``(1 or 2, n_lines, line_len)`` (one input sheet
    shared by both filters, or one sheet per channel) and ``coeffs`` is
    ``(taps, 2)``, one column per coefficient register.  Returns the
    ``(2, n_lines, out_len)`` accumulators
    ``acc[k, :, m] = sum_j coeffs[j, k] * sheets[k, :, m * step + j]``.
    The sum runs in float32 one register (tap) at a time, ``j = 0``
    first — the accumulation order of the Fig. 4 loop — so the bits
    match the scalar datapath and do not depend on the host's BLAS.
    """
    acc = np.zeros((2,) + sheets.shape[1:2] + (out_len,), dtype=np.float32)
    term = np.empty_like(acc)
    for j, c in enumerate(coeffs[:, :, None, None]):
        np.multiply(sheets[:, :, j:j + step * out_len:step], c, out=term)
        acc += term
    return acc


def _one_row(line: np.ndarray) -> np.ndarray:
    """A one-line job as a one-row sheet."""
    return np.asarray(line, dtype=np.float32)[np.newaxis]


@dataclass
class EngineStats:
    """Running counters of everything the engine has executed."""

    invocations: int = 0
    cycles: float = 0.0
    words_in: int = 0
    words_out: int = 0
    coefficient_loads: int = 0

    def reset(self) -> None:
        self.invocations = 0
        self.cycles = 0.0
        self.words_in = 0
        self.words_out = 0
        self.coefficient_loads = 0


class HlsWaveletEngine:
    """Line-level functional model of the PL wavelet engine, run a
    sheet of lines per job.

    Parameters
    ----------
    platform:
        Clock/bus description used for the cycle accounting.
    max_taps:
        Size of the coefficient registers.  The paper's engine uses 12;
        the default of 20 also accommodates the 9/19-tap level-1 bank.
    pipeline_depth:
        Register stages between BRAM read and accumulator write-back.
    """

    def __init__(self, platform: ZynqPlatform = DEFAULT_PLATFORM,
                 max_taps: int = 20, pipeline_depth: int = 20):
        if max_taps < 2:
            raise EngineError(f"max_taps must be >= 2, got {max_taps}")
        self.platform = platform
        self.max_taps = max_taps
        self.pipeline_depth = pipeline_depth
        self.acp = AcpModel(platform)
        self.mode = MODE_IDLE
        # one register file, row 0 low-pass and row 1 high-pass, so a
        # job reads both registers of a tap as one (2,) column
        self._coeffs = np.zeros((2, max_taps), dtype=np.float32)
        self._coeff_lp = self._coeffs[0]
        self._coeff_hp = self._coeffs[1]
        self._loaded_taps = 0
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # command interface (what the AXI4-Lite slave exposes)
    # ------------------------------------------------------------------
    def load_coefficients(self, lp: np.ndarray, hp: np.ndarray) -> float:
        """Mode 1: load both coefficient registers; returns PL seconds."""
        lp = np.asarray(lp, dtype=np.float32)
        hp = np.asarray(hp, dtype=np.float32)
        if len(lp) != len(hp):
            raise EngineError("lp/hp filters must have equal length")
        if len(lp) > self.max_taps:
            raise EngineError(
                f"filter of {len(lp)} taps exceeds the {self.max_taps}-tap registers"
            )
        self.mode = MODE_LOAD_COEFFS
        self._coeff_lp[:] = 0.0
        self._coeff_hp[:] = 0.0
        self._coeff_lp[: len(lp)] = lp
        self._coeff_hp[: len(hp)] = hp
        self._loaded_taps = len(lp)
        self.stats.coefficient_loads += 1
        self.mode = MODE_IDLE
        # one register pair per cycle through the AXI4-Lite-fed loader
        return len(lp) * self.platform.pl_cycle_s

    @property
    def loaded_taps(self) -> int:
        return self._loaded_taps

    # ------------------------------------------------------------------
    # sheet jobs
    # ------------------------------------------------------------------
    def forward_lines(self, sheet: np.ndarray, out_len: int,
                      step: int) -> Tuple[np.ndarray, np.ndarray, float]:
        """Mode 2: dual-filter every row of ``sheet``, one invocation each.

        ``sheet`` is ``(n_lines, line_len)``: one halo-extended input
        line per row; ``step`` is the input stride per output (2 =
        decimated, 1 = undecimated).  Returns ``(lp_out, hp_out,
        pl_seconds)`` with ``(n_lines, out_len)`` outputs and the summed
        latency of the ``n_lines`` invocations.
        """
        self._require_coefficients()
        if step not in (1, 2):
            raise EngineError(f"step must be 1 or 2, got {step}")
        taps = self._loaded_taps
        x = self._sheet(sheet)
        expected = (out_len - 1) * step + taps
        if x.shape[1] < expected:
            raise EngineError(
                f"line of {x.shape[1]} samples too short: need {expected} "
                f"for {out_len} outputs at step {step} with {taps} taps"
            )
        self.mode = MODE_FORWARD
        # the driver loads convolution taps reversed: the oldest sample
        # of each window meets register 0
        lp_out, hp_out = _tap_ordered_mac(x[np.newaxis],
                                          self._registers(taps)[::-1],
                                          out_len, step)
        seconds = self._account(x.shape[0], x.shape[1], out_len * 2,
                                out_len + (taps + 1) // 2)
        self.mode = MODE_IDLE
        return lp_out, hp_out, seconds

    def inverse_lines(self, lo_sheet: np.ndarray, hi_sheet: np.ndarray,
                      out_len: int) -> Tuple[np.ndarray, float]:
        """Mode 3: dual-channel synthesis of every row, one invocation each.

        ``lo_sheet``/``hi_sheet`` are ``(n_lines, line_len)`` sheets of
        zero-stuffed, halo-extended channel lines; the datapath
        correlates both against the coefficient registers and sums the
        two accumulators.  Returns ``(lines, pl_seconds)``.
        """
        self._require_coefficients()
        taps = self._loaded_taps
        lo = self._sheet(lo_sheet)
        hi = self._sheet(hi_sheet)
        if lo.shape != hi.shape:
            raise EngineError(
                f"inverse-mode channel sheets must match: {lo.shape} "
                f"vs {hi.shape}"
            )
        if lo.shape[1] < out_len + taps - 1:
            raise EngineError(
                f"channel lines of {lo.shape[1]} samples too short for "
                f"{out_len} outputs with {taps} taps"
            )
        self.mode = MODE_INVERSE
        lo_acc, hi_acc = _tap_ordered_mac(np.stack([lo, hi]),
                                          self._registers(taps), out_len, 1)
        out = lo_acc + hi_acc
        seconds = self._account(lo.shape[0], 2 * lo.shape[1], out_len,
                                out_len + taps)
        self.mode = MODE_IDLE
        return out, seconds

    def forward_line(self, extended: np.ndarray, out_len: int,
                     step: int) -> Tuple[np.ndarray, np.ndarray, float]:
        """Mode 2 on one line: :meth:`forward_lines` with a single row."""
        lp_out, hp_out, seconds = self.forward_lines(
            _one_row(extended), out_len, step)
        return lp_out[0], hp_out[0], seconds

    def inverse_line(self, lo_ext: np.ndarray, hi_ext: np.ndarray,
                     out_len: int) -> Tuple[np.ndarray, float]:
        """Mode 3 on one line: :meth:`inverse_lines` with a single row."""
        out, seconds = self.inverse_lines(_one_row(lo_ext), _one_row(hi_ext),
                                          out_len)
        return out[0], seconds

    def _registers(self, taps: int) -> np.ndarray:
        """The loaded ``(lp, hp)`` registers as ``(taps, 2)`` columns."""
        return self._coeffs[:, :taps].T

    def _require_coefficients(self) -> None:
        if self._loaded_taps == 0:
            raise EngineError("no coefficients loaded (run mode 1 first)")

    @staticmethod
    def _sheet(sheet: np.ndarray) -> np.ndarray:
        x = np.asarray(sheet, dtype=np.float32)
        if x.ndim != 2:
            raise EngineError(
                f"a job sheet is (n_lines, line_len), got shape {x.shape}")
        return x

    # ------------------------------------------------------------------
    # cycle accounting
    # ------------------------------------------------------------------
    def _cycles(self, words_in: int, words_out: int,
                loop_iterations: int) -> float:
        """PL cycles of one invocation: memcpy-in, loop, memcpy-out (serial)."""
        return (self.acp.transfer_cycles(words_in)
                + loop_iterations + self.pipeline_depth
                + self.acp.transfer_cycles(words_out))

    def _account(self, lines: int, words_in: int, words_out: int,
                 loop_iterations: int) -> float:
        """Count ``lines`` identical invocations; returns their PL seconds.

        The cycle counter is summed one invocation at a time, so a sheet
        job leaves it bit-identical to ``lines`` one-line jobs.
        """
        cycles = self._cycles(words_in, words_out, loop_iterations)
        total = self.stats.cycles
        for _ in range(lines):
            total += cycles
        self.stats.cycles = total
        self.stats.invocations += lines
        self.stats.words_in += lines * words_in
        self.stats.words_out += lines * words_out
        return lines * cycles * self.platform.pl_cycle_s

    def line_seconds_estimate(self, words_in: int, words_out: int,
                              loop_iterations: int) -> float:
        """Pure estimate (no counters) used by the analytic timing model."""
        return (self._cycles(words_in, words_out, loop_iterations)
                * self.platform.pl_cycle_s)
