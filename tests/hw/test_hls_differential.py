"""Differential suite: the sheet-level HLS path against the per-line
oracle in ``hls_oracle.py``.

Every case runs one :class:`HlsBackend` primitive and the oracle's
per-line copy of it on the same input and asserts:

* forward primitives (``analysis_u``/``analysis_d``) are bitwise-equal
  to the oracle;
* inverse primitives (``synthesis_u``/``synthesis_d``) are bitwise-equal
  to the oracle plumbing driving the scalar inverse-mode loop
  (:func:`repro.hw.hls.shift_register_dual_channel`), and within 1e-4
  plus two float32 ulps of the oracle itself, whose inverse bits come
  from one BLAS call per line;
* :class:`EngineStats` match the oracle's exactly, cycles included;
* a stacked ``(N, H, W)`` call is bitwise-equal to ``N`` per-frame calls.

Two digests pinned on the per-line implementation — an HLS forward
pyramid and the fused frames of a default (adaptive → FPGA) session —
guard the end-to-end result.
"""

import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from hls_oracle import OracleHlsBackend, OracleHlsWaveletEngine
from repro.dtcwt import Dtcwt2D, dtcwt_banks
from repro.hw.fpga import HlsBackend, pad_filter_pair
from repro.hw.hls import shift_register_dual_channel
from repro.session import FusionConfig, FusionSession

_SETTINGS = dict(deadline=None, max_examples=40)

#: digests of the per-line implementation's output (see the tests below)
PYRAMID_GOLDEN_SHA256 = \
    "567d5f766c9da1b3cd8698ab164c513fc99a8fe70b242b12a2725f9e39d51037"
SESSION_GOLDEN_SHA256 = \
    "8efa4c00a5cf23858d182b5465f6f7079c98fab6ed017e921a5d675e31e142bc"

BANKS = dtcwt_banks()

#: synthesis outputs of 0-255 inputs reach ~550, where one float32 ulp
#: is 6e-5 and the two summation orders differ by up to ~1.5 ulp: allow
#: two ulps on top of the 1e-4 absolute bound
INVERSE_RTOL = 2 * float(np.finfo(np.float32).eps)


class ScalarInverseEngine(OracleHlsWaveletEngine):
    """The oracle engine with inverse mode run through the scalar
    tap-ordered loop: the documented datapath order, line by line."""

    def inverse_line(self, lo_ext, hi_ext, out_len):
        taps = self._loaded_taps
        out = shift_register_dual_channel(lo_ext, hi_ext,
                                          self._coeff_lp[:taps],
                                          self._coeff_hp[:taps])
        seconds = self._line_seconds(2 * len(lo_ext), out_len,
                                     out_len + taps)
        return out[:out_len], seconds


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


def call(backend, primitive, bank, args, axis):
    """Run one primitive with the given filter bank ('level1'/'qshift')."""
    if primitive == "analysis_u":
        b = BANKS.level1
        return backend.analysis_u(args[0], b.h0, b.c_h0, b.h1, b.c_h1, axis)
    if primitive == "synthesis_u":
        b = BANKS.level1
        return backend.synthesis_u(args[0], args[1], b.g0, b.c_g0,
                                   b.g1, b.c_g1, axis)
    if bank == "level1":
        # the decimated primitives also run the padded (odd-length)
        # level-1 pair
        b = BANKS.level1
        h0, h1, _ = pad_filter_pair(b.h0, b.c_h0, b.h1, b.c_h1)
    else:
        h0, h1 = BANKS.qshift.h0a, BANKS.qshift.h1b
    if primitive == "analysis_d":
        return backend.analysis_d(args[0], h0, h1, axis)
    return backend.synthesis_d(args[0], args[1], h0, h1, axis)


def as_tuple(result):
    return result if isinstance(result, tuple) else (result,)


shapes = st.tuples(st.integers(1, 3), st.integers(1, 11),
                   st.integers(1, 23))


@st.composite
def cases(draw, primitives):
    """(primitive, bank, inputs, axis): odd sizes, one-row inputs and
    ``(N, H, W)`` stacks, filtered along either trailing axis."""
    primitive = draw(st.sampled_from(primitives))
    bank = draw(st.sampled_from(("level1", "qshift")))
    n, h, w = draw(shapes)
    stacked = draw(st.booleans())
    shape = (n, h, w) if stacked else (h, w)
    axis = draw(st.sampled_from((-1, -2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = 2 if primitive.startswith("synthesis") else 1
    inputs = [(rng.random(shape) * 255).astype(np.float32)
              for _ in range(count)]
    return primitive, bank, inputs, axis


class TestForwardDifferential:
    @settings(**_SETTINGS)
    @given(cases(("analysis_u", "analysis_d")))
    def test_bitwise_equal_to_oracle_with_equal_stats(self, case):
        primitive, bank, inputs, axis = case
        backend, oracle = HlsBackend(), OracleHlsBackend()
        got = as_tuple(call(backend, primitive, bank, inputs, axis))
        want = as_tuple(call(oracle, primitive, bank, inputs, axis))
        assert all(bitwise_equal(g, w) for g, w in zip(got, want))
        assert backend.engine.stats == oracle.engine.stats


class TestInverseDifferential:
    @settings(**_SETTINGS)
    @given(cases(("synthesis_u", "synthesis_d")))
    def test_bitwise_equal_to_scalar_datapath(self, case):
        primitive, bank, inputs, axis = case
        backend = HlsBackend()
        scalar = OracleHlsBackend(engine=ScalarInverseEngine())
        oracle = OracleHlsBackend()
        got = call(backend, primitive, bank, inputs, axis)
        assert bitwise_equal(got, call(scalar, primitive, bank, inputs, axis))
        want = call(oracle, primitive, bank, inputs, axis)
        assert np.allclose(got, want, rtol=INVERSE_RTOL, atol=1e-4)
        assert backend.engine.stats == oracle.engine.stats
        assert backend.engine.stats == scalar.engine.stats


class TestStackedEqualsPerFrame:
    @settings(**_SETTINGS)
    @given(cases(("analysis_u", "analysis_d", "synthesis_u",
                  "synthesis_d")), st.integers(2, 3))
    def test_stack_is_elementwise_per_frame(self, case, frames):
        primitive, bank, inputs, axis = case
        rng = np.random.default_rng(frames)
        shape = inputs[0].shape[-2:]
        stacks = [(rng.random((frames,) + shape) * 255).astype(np.float32)
                  for _ in inputs]
        stacked_backend, frame_backend = HlsBackend(), HlsBackend()
        got = as_tuple(call(stacked_backend, primitive, bank, stacks, axis))
        per_frame = [as_tuple(call(frame_backend, primitive, bank,
                                   [s[i] for s in stacks], axis))
                     for i in range(frames)]
        for k, out in enumerate(got):
            assert bitwise_equal(out, np.stack([p[k] for p in per_frame]))
        stacked, single = (stacked_backend.engine.stats,
                           frame_backend.engine.stats)
        assert stacked.invocations == single.invocations
        assert stacked.cycles == single.cycles
        assert stacked.words_in == single.words_in
        assert stacked.words_out == single.words_out


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(repr((a.shape, a.dtype.str)).encode())
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


class TestGoldens:
    def test_forward_pyramid_digest(self):
        """Level-3 HLS pyramids of seeded 88x72 frames, single and as a
        ``forward_batch`` of two."""
        rng = np.random.default_rng(2016)
        frame = (rng.random((72, 88)) * 255).astype(np.float32)
        other = (rng.random((72, 88)) * 255).astype(np.float32)
        transform = Dtcwt2D(levels=3, backend=HlsBackend())
        single = transform.forward(frame)
        batch = transform.forward_batch(np.stack([frame, other]))
        assert _digest((single.lowpass,) + tuple(single.highpasses)
                       + (batch.lowpass,) + tuple(batch.highpasses)) \
            == PYRAMID_GOLDEN_SHA256

    def test_default_session_digest(self):
        """Twelve fused frames of the default configuration, which the
        adaptive rule sends to the FPGA at 88x72."""
        digest = hashlib.sha256()
        with FusionSession(FusionConfig(seed=3)) as session:
            report = session.run(12)
        assert {r.engine for r in report.records} == {"fpga"}
        for record in report.records:
            digest.update(record.frame.pixels.tobytes())
        assert digest.hexdigest() == SESSION_GOLDEN_SHA256
