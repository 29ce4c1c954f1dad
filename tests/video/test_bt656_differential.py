"""Differential suite: the vectorized BT.656 codec against the
byte-at-a-time oracle in ``bt656_oracle.py``.

Every case builds a (possibly corrupted) stream, decodes it whole with
the oracle and in chunks with :class:`Bt656Decoder`, and asserts the
same frames (count, shape, dtype, pixels) *and* the same
:class:`DecoderStats`.  Chunk sizes run from one byte to the whole
stream, so sync words and payload lines are split across
``push_bytes`` calls.  The encoder is checked byte for byte against
the per-line oracle encoder.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bt656_oracle import OracleBt656Decoder, oracle_encode_frame
from repro.video.bt656 import Bt656Config, Bt656Decoder, encode_frame
from repro.video.faults import DropoutChannel, NoisyByteChannel
from repro.video.scene import SyntheticScene
from repro.video.thermal import ThermalCameraSimulator

_SETTINGS = dict(deadline=None, max_examples=60)

#: byte runs that stress the sync hunt: an FF run held in P1, a
#: preamble that restarts in P1, and FF inside P2 (falls back to HUNT)
_INJECTIONS = (b"\xff", b"\xff\xff\xff", b"\xff\xff\x00", b"\xff\x00\xff",
               b"\xff\x00\x00", b"\xff\x00\x00\x9d")


def decode_both(config, stream, chunk):
    oracle = OracleBt656Decoder(config)
    expected = oracle.push_bytes(stream)
    decoder = Bt656Decoder(config)
    got = []
    for i in range(0, len(stream), chunk):
        got.extend(decoder.push_bytes(stream[i:i + chunk]))
    return (expected, oracle.stats), (got, decoder.stats)


def assert_same(reference, candidate):
    (expected, expected_stats), (got, got_stats) = reference, candidate
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert have.dtype == want.dtype
        assert have.shape == want.shape
        assert np.array_equal(have, want)
    assert got_stats == expected_stats


@st.composite
def geometries(draw):
    return Bt656Config(active_width=draw(st.integers(1, 24)),
                       active_lines=draw(st.integers(1, 6)),
                       vblank_lines=draw(st.integers(0, 3)),
                       post_blank_lines=draw(st.integers(0, 2)),
                       hblank_samples=draw(st.integers(0, 9)))


@st.composite
def clean_streams(draw, config):
    """One to three encoded fields with random luma and field bits."""
    fields = []
    for _ in range(draw(st.integers(1, 3))):
        frame = draw(hnp.arrays(np.uint8,
                                (config.active_lines, config.active_width)))
        fields.append(encode_frame(frame, config,
                                   field_bit=draw(st.integers(0, 1))))
    return b"".join(fields)


@st.composite
def corrupted(draw, stream):
    """``stream`` with a garbage prefix, injected sync-like runs, a
    noisy and/or dropout channel, and truncation, each optional."""
    data = bytearray(draw(st.binary(max_size=40)))
    data += stream
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(data)))
        data[at:at] = draw(st.sampled_from(_INJECTIONS))
    data = bytes(data)
    if draw(st.booleans()):
        data = NoisyByteChannel(draw(st.sampled_from([1e-3, 1e-2, 5e-2])),
                                seed=draw(st.integers(0, 99))).transmit(data)
    if draw(st.booleans()):
        data = DropoutChannel(draw(st.sampled_from([0.01, 0.05])),
                              burst_bytes=draw(st.integers(1, 16)),
                              seed=draw(st.integers(0, 99))).transmit(data)
    if data and draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    return data


def chunk_sizes(stream):
    return st.one_of(st.integers(1, 8), st.integers(1, max(1, len(stream))),
                     st.just(max(1, len(stream))))


class TestDecoderDifferential:
    @settings(**_SETTINGS)
    @given(data=st.data())
    def test_clean_streams(self, data):
        config = data.draw(geometries())
        stream = data.draw(clean_streams(config))
        chunk = data.draw(chunk_sizes(stream))
        assert_same(*decode_both(config, stream, chunk))

    @settings(**dict(_SETTINGS, max_examples=150))
    @given(data=st.data())
    def test_corrupted_streams(self, data):
        config = data.draw(geometries())
        stream = data.draw(corrupted(data.draw(clean_streams(config))))
        chunk = data.draw(chunk_sizes(stream))
        assert_same(*decode_both(config, stream, chunk))

    @settings(**_SETTINGS)
    @given(data=st.data())
    def test_sync_alphabet_garbage(self, data):
        """Streams drawn from sync bytes, valid and near-valid XY codes
        and payload: every state transition, at every chunk split."""
        config = data.draw(geometries())
        alphabet = st.sampled_from([0xFF, 0x00, 0x80, 0x9D, 0xAB, 0xB6,
                                    0x81, 0x9C, 0x10, 0x55])
        stream = bytes(data.draw(st.lists(alphabet, max_size=400)))
        chunk = data.draw(chunk_sizes(stream))
        assert_same(*decode_both(config, stream, chunk))

    def test_default_geometry_fixed_case(self):
        """One noisy, dropout-hit default 720x243 field, then a clean
        one, at a DMA-sized chunk and as a whole stream."""
        config = Bt656Config()
        camera = ThermalCameraSimulator(SyntheticScene(seed=7))
        first = DropoutChannel(0.001, burst_bytes=64, seed=3).transmit(
            NoisyByteChannel(1e-3, seed=2).transmit(camera.capture_bt656()))
        stream = first + camera.capture_bt656()
        for chunk in (4096, len(stream)):
            reference, candidate = decode_both(config, stream, chunk)
            assert_same(reference, candidate)
            assert len(candidate[0]) == 2
            assert candidate[1].corrected_xy > 0


class TestEncoderDifferential:
    @settings(**_SETTINGS)
    @given(config=geometries(), field_bit=st.integers(0, 1),
           data=st.data())
    def test_byte_identical_to_oracle(self, config, field_bit, data):
        shape = (data.draw(st.integers(1, 12)), data.draw(st.integers(1, 30)))
        luma = data.draw(hnp.arrays(np.uint8, shape))
        assert (encode_frame(luma, config, field_bit)
                == oracle_encode_frame(luma, config, field_bit))

    def test_default_geometry_float_luma(self):
        luma = SyntheticScene(seed=3).render_thermal(0.0)
        for field_bit in (0, 1):
            assert (encode_frame(luma, field_bit=field_bit)
                    == oracle_encode_frame(luma, field_bit=field_bit))
