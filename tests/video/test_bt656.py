"""BT.656 codec: timing codes, roundtrip fidelity, error resilience."""

import hashlib

import numpy as np
import pytest

from repro.errors import DecodeError
from repro.video.bt656 import (
    Bt656Config,
    Bt656Decoder,
    DecoderStats,
    _VALID_XY,
    _xy_code,
    encode_frame,
)
from repro.video.faults import NoisyByteChannel
from repro.video.scene import SyntheticScene
from repro.video.thermal import ThermalCameraSimulator

#: SHA-256 over the decoded fields (shape, dtype and pixels) of three
#: default-geometry thermal captures from SyntheticScene(seed=2016),
#: decoded clean and then through NoisyByteChannel(1e-3, seed=1); pins
#: the decoder's output bit for bit, including the frames it rebuilds
#: from a corrupted stream
DECODE_GOLDEN_SHA256 = (
    "760a76b2818d77e59332db9c89c3ac682367363fe12915fcaff46993069baea2")


class TestXyCodes:
    def test_all_eight_codes_distinct(self):
        assert len(_VALID_XY) == 8

    def test_msb_always_set(self):
        for code in _VALID_XY:
            assert code & 0x80

    def test_protection_bits_follow_standard(self):
        """P3=V^H, P2=F^H, P1=F^V, P0=F^V^H (ITU-R BT.656)."""
        for f in (0, 1):
            for v in (0, 1):
                for h in (0, 1):
                    code = _xy_code(f, v, h)
                    assert (code >> 3) & 1 == v ^ h
                    assert (code >> 2) & 1 == f ^ h
                    assert (code >> 1) & 1 == f ^ v
                    assert code & 1 == f ^ v ^ h

    def test_codes_are_four_bits_apart(self):
        """Minimum distance 4: a single-bit error is one bit from exactly
        one valid code, so the decoder's correction is never ambiguous."""
        codes = list(_VALID_XY)
        assert min(bin(a ^ b).count("1")
                   for i, a in enumerate(codes) for b in codes[i + 1:]) == 4

    def test_known_sav_eav_values(self):
        """The classic field-0 active-video codes: SAV=0x80, EAV=0x9D."""
        assert _xy_code(0, 0, 0) == 0x80
        assert _xy_code(0, 0, 1) == 0x9D
        assert _xy_code(0, 1, 0) == 0xAB
        assert _xy_code(0, 1, 1) == 0xB6


class TestRoundtrip:
    def test_exact_luma_recovery(self, rng):
        config = Bt656Config(active_width=64, active_lines=32,
                             vblank_lines=4, hblank_samples=8)
        frame = rng.integers(1, 255, (32, 64)).astype(np.uint8)
        stream = encode_frame(frame, config)
        decoded = Bt656Decoder(config).push_bytes(stream)
        assert len(decoded) == 1
        assert np.array_equal(decoded[0], frame)

    def test_default_geometry_is_papers(self):
        config = Bt656Config()
        assert config.active_width == 720
        assert config.active_lines == 243

    def test_payload_never_contains_sync_values(self, rng):
        """0x00/0xFF are reserved; extreme luma must be clipped."""
        config = Bt656Config(active_width=16, active_lines=8,
                             vblank_lines=2, hblank_samples=4)
        frame = np.full((8, 16), 255, dtype=np.uint8)
        stream = encode_frame(frame, config)
        decoded = Bt656Decoder(config).push_bytes(stream)
        assert decoded[0].max() == 0xFE

    def test_resampling_to_active_geometry(self, rng):
        """Arbitrary sensor sizes are fit to the active region."""
        config = Bt656Config(active_width=96, active_lines=64,
                             vblank_lines=2, hblank_samples=4)
        sensor = rng.integers(1, 255, (60, 80)).astype(np.uint8)
        decoded = Bt656Decoder(config).push_bytes(encode_frame(sensor, config))
        assert decoded[0].shape == (64, 96)

    def test_multiple_frames_in_one_stream(self, rng):
        config = Bt656Config(active_width=32, active_lines=16,
                             vblank_lines=2, hblank_samples=4)
        frames = [rng.integers(1, 255, (16, 32)).astype(np.uint8)
                  for _ in range(3)]
        stream = b"".join(encode_frame(f, config) for f in frames)
        decoded = Bt656Decoder(config).push_bytes(stream)
        assert len(decoded) == 3
        for original, got in zip(frames, decoded):
            assert np.array_equal(got, original)

    def test_chunked_delivery(self, rng):
        """Byte-at-a-time delivery must decode identically (it is a
        state machine, like the hardware)."""
        config = Bt656Config(active_width=24, active_lines=8,
                             vblank_lines=2, hblank_samples=4)
        frame = rng.integers(1, 255, (8, 24)).astype(np.uint8)
        stream = encode_frame(frame, config)
        decoder = Bt656Decoder(config)
        collected = []
        for i in range(0, len(stream), 7):
            collected.extend(decoder.push_bytes(stream[i:i + 7]))
        assert len(collected) == 1
        assert np.array_equal(collected[0], frame)

    def test_encoder_rejects_bad_input(self):
        with pytest.raises(DecodeError):
            encode_frame(np.zeros(10))


class TestErrorResilience:
    @pytest.fixture
    def config(self):
        return Bt656Config(active_width=32, active_lines=16,
                           vblank_lines=2, hblank_samples=4)

    def test_single_bit_xy_error_corrected(self, config, rng):
        frame = rng.integers(1, 255, (16, 32)).astype(np.uint8)
        stream = bytearray(encode_frame(frame, config))
        # find an XY code (byte after FF 00 00) and flip one bit
        for i in range(len(stream) - 3):
            if stream[i] == 0xFF and stream[i + 1] == 0 and stream[i + 2] == 0:
                stream[i + 3] ^= 0x02
                break
        decoder = Bt656Decoder(config)
        decoded = decoder.push_bytes(bytes(stream))
        assert decoder.stats.corrected_xy >= 1
        assert len(decoded) == 1

    def test_recovers_after_garbage_prefix(self, config, rng):
        frame = rng.integers(1, 255, (16, 32)).astype(np.uint8)
        garbage = bytes(rng.integers(1, 255, 500).astype(np.uint8))
        stream = garbage + encode_frame(frame, config)
        decoded = Bt656Decoder(config).push_bytes(stream)
        assert len(decoded) >= 1
        assert np.array_equal(decoded[-1], frame)

    def test_truncated_frame_counts_resync(self, config, rng):
        frame = rng.integers(1, 255, (16, 32)).astype(np.uint8)
        stream = encode_frame(frame, config)
        decoder = Bt656Decoder(config)
        decoder.push_bytes(stream[: len(stream) // 2])  # half a frame
        decoder.push_bytes(encode_frame(frame, config))  # then a good one
        assert decoder.stats.resyncs >= 1

    def test_stats_track_lines(self, config, rng):
        frame = rng.integers(1, 255, (16, 32)).astype(np.uint8)
        decoder = Bt656Decoder(config)
        decoder.push_bytes(encode_frame(frame, config))
        assert decoder.stats.lines == 16
        assert decoder.stats.frames == 1


class TestDecoderGolden:
    def test_default_geometry_digest_and_stats(self):
        camera = ThermalCameraSimulator(SyntheticScene(seed=2016))
        clean = [camera.capture_bt656() for _ in range(3)]
        channel = NoisyByteChannel(1e-3, seed=1)
        noisy = [channel.transmit(stream) for stream in clean]
        digest = hashlib.sha256()
        stats = []
        for streams in (clean, noisy):
            decoder = Bt656Decoder()
            for stream in streams:
                for frame in decoder.push_bytes(stream):
                    digest.update(repr((frame.shape, frame.dtype.str)).encode())
                    digest.update(frame.tobytes())
            stats.append(decoder.stats)
        assert digest.hexdigest() == DECODE_GOLDEN_SHA256
        assert stats == [
            DecoderStats(frames=3, lines=729),
            DecoderStats(frames=3, lines=686, corrected_xy=15, resyncs=5),
        ]
