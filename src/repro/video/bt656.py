"""ITU-R BT.656 stream encoder/decoder (the PL-side camera interface).

The paper's thermal camera emits analog video digitized as a BT.656
byte stream, decoded by a custom ``BT656_Decoder`` block on the FPGA
(Fig. 7).  This module implements the standard faithfully enough to
exercise the same logic in simulation:

* **Timing reference codes**: every line starts/ends with the 4-byte
  sequences ``FF 00 00 XY``.  ``XY = 1 F V H P3 P2 P1 P0`` carries the
  field bit, vertical-blanking bit and H bit (0 = SAV, start of active
  video; 1 = EAV, end of active video); ``P3..P0`` are the standard
  Hamming protection bits, which the decoder checks.
* **Payload**: 4:2:2 multiplexed ``Cb Y Cr Y`` samples during active
  video; blanking intervals carry the idle pattern ``80 10``.

:class:`Bt656Decoder` mirrors the hardware block's behaviour and status
counters without visiting every byte in Python: one NumPy scan finds
the ``FF`` sync candidates of each pushed chunk, and the block's
four-state machine (hunt for the preamble, validate the XY code) is
replayed only at those positions.  Payload between sync words is
sliced as whole runs, V transitions delimit frames, and partial sync
words or lines carry over to the next chunk.  Protection-bit failures
are corrected through a 256-entry XY table (the valid codes are at
least 4 bits apart, so single-bit repair is unambiguous) or counted as
errors, like the ``Error`` output pin of the paper's decoder.
:func:`encode_frame` builds a whole field in one array.  Both are
bitwise-identical to the byte-at-a-time reference codec in
``tests/video/bt656_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import DecodeError

#: Idle (blanking) chroma/luma levels.
_BLANK_CHROMA = 0x80
_BLANK_LUMA = 0x10


def _xy_code(f: int, v: int, h: int) -> int:
    """Timing reference byte with ITU protection bits."""
    p3 = v ^ h
    p2 = f ^ h
    p1 = f ^ v
    p0 = f ^ v ^ h
    return (0x80 | (f << 6) | (v << 5) | (h << 4)
            | (p3 << 3) | (p2 << 2) | (p1 << 1) | p0)


#: All eight valid XY codes, for single-error correction in the decoder.
_VALID_XY = {(_xy_code(f, v, h)): (f, v, h)
             for f in (0, 1) for v in (0, 1) for h in (0, 1)}

_XY_VALID, _XY_CORRECTED, _XY_ERROR = range(3)


def _resolve_xy(xy: int) -> Tuple[int, int, int]:
    """``(status, v, h)`` for one XY byte: a valid code, the single valid
    code one bit away (the eight codes are >= 4 bits apart, so at most
    one qualifies), or an error."""
    if xy in _VALID_XY:
        _f, v, h = _VALID_XY[xy]
        return _XY_VALID, v, h
    for valid, (_f, v, h) in _VALID_XY.items():
        if bin(valid ^ xy).count("1") == 1:
            return _XY_CORRECTED, v, h
    return _XY_ERROR, 0, 0


#: XY byte -> (status, v, h), the decoder's 256-entry lookup table.
_XY_TABLE = tuple(_resolve_xy(xy) for xy in range(256))


def _clip_video(values: np.ndarray) -> np.ndarray:
    """BT.656 reserves 0x00 and 0xFF for sync codes; clip payload."""
    return np.clip(values, 0x01, 0xFE).astype(np.uint8)


@dataclass
class Bt656Config:
    """Stream geometry.  Defaults follow the paper's 720x243 @60 Hz
    field format (NTSC-style) feeding the video scaler."""

    active_width: int = 720
    active_lines: int = 243
    vblank_lines: int = 20
    #: blanking lines after the active region (closes the frame so a
    #: standalone field decodes without waiting for the next one)
    post_blank_lines: int = 3
    hblank_samples: int = 64  # payload words during horizontal blanking


def encode_frame(luma: np.ndarray, config: Bt656Config = Bt656Config(),
                 field_bit: int = 0) -> bytes:
    """Encode one grayscale frame as a BT.656 byte stream.

    The luma plane is resized by sampling/replication to the configured
    active geometry; chroma is set to the neutral value (the thermal
    camera is monochrome).  The field is built as one ``(lines,
    bytes_per_line)`` array from a blanking line template (EAV,
    horizontal blanking, SAV, idle payload); the XY codes and the
    active luma are then written by slicing.
    """
    luma = np.asarray(luma)
    if luma.ndim != 2:
        raise DecodeError(f"encoder expects a 2-D luma plane, got {luma.shape}")
    rows, cols = config.active_lines, config.active_width
    # nearest-neighbour fit to the active geometry
    row_idx = np.linspace(0, luma.shape[0] - 1, rows).round().astype(int)
    col_idx = np.linspace(0, luma.shape[1] - 1, cols).round().astype(int)
    active = _clip_video(luma[row_idx][:, col_idx])

    sav = 4 + 2 * (config.hblank_samples // 2)
    payload = sav + 4
    blank = np.empty(payload + 2 * cols, dtype=np.uint8)
    blank[0::2] = _BLANK_CHROMA
    blank[1::2] = _BLANK_LUMA
    blank[0:3] = blank[sav:sav + 3] = (0xFF, 0x00, 0x00)
    first, last = config.vblank_lines, config.vblank_lines + rows
    field = np.empty((last + config.post_blank_lines, blank.size),
                     dtype=np.uint8)
    field[:] = blank
    for at, h in ((3, 1), (sav + 3, 0)):
        field[:, at] = _xy_code(field_bit, 1, h)
        field[first:last, at] = _xy_code(field_bit, 0, h)
    field[first:last, payload + 1::2] = active
    return field.tobytes()


@dataclass
class DecoderStats:
    """Counters mirroring the hardware block's status outputs."""

    frames: int = 0
    lines: int = 0
    xy_errors: int = 0
    corrected_xy: int = 0
    resyncs: int = 0


class Bt656Decoder:
    """BT.656 decoder: a vectorized sync scan plus a replay of the
    hardware block's four-state machine at the sync candidates.

    The block hunts for ``FF``, then expects ``00``, ``00`` and the XY
    byte (states HUNT, P1, P2, ACTIVE).  Only an ``FF`` can leave HUNT,
    so :meth:`push_bytes` finds every ``FF`` of a chunk in one NumPy
    scan and walks just those positions in Python; the bytes between
    them are payload (while in active video) or ignored, and are
    handled as whole slices.  The replay keeps every quirk of the
    byte-at-a-time machine:

    * a run of ``FF`` stays in P1; ``FF 00 FF`` falls back to HUNT;
    * bytes consumed by P1/P2 are neither payload nor counted in the
      4:2:2 payload phase;
    * a line longer than ``active_width`` is truncated and accepted,
      a shorter one is dropped as a resync;
    * state (including a partial sync word or line) carries across
      ``push_bytes`` calls, so chunking never changes the result.

    XY bytes resolve through a 256-entry table: one of the eight valid
    codes, a single-bit error corrected to the unique valid code at
    Hamming distance 1 (the codes are at least distance 4 apart), or
    an error that drops the line, like the ``Error`` pin of the
    paper's decoder.  :class:`DecoderStats` counts exactly what the
    hardware's status outputs would.
    """

    _HUNT, _P1, _P2, _ACTIVE = range(4)

    def __init__(self, config: Bt656Config = Bt656Config()):
        self.config = config
        self.stats = DecoderStats()
        self._state = self._HUNT
        # the current line's luma as views into the pushed chunks,
        # joined once at EAV
        self._line: List[np.ndarray] = []
        self._line_len = 0
        self._lines: List[np.ndarray] = []
        self._in_active_video = False
        self._prev_v = 1
        self._payload_phase = 0

    # ------------------------------------------------------------------
    def push_bytes(self, data: bytes) -> List[np.ndarray]:
        """Feed stream bytes; returns any frames completed by this chunk."""
        if not isinstance(data, bytes):
            data = bytes(data)  # an immutable snapshot the views can keep
        arr = np.frombuffer(data, dtype=np.uint8)
        size = len(data)
        syncs = np.flatnonzero(arr == 0xFF).tolist()
        n_syncs = len(syncs)
        completed: List[np.ndarray] = []
        state = self._state
        pos = 0
        k = 0
        while pos < size:
            if state == self._HUNT:
                # skip sync candidates already consumed by P1/P2/ACTIVE
                while k < n_syncs and syncs[k] < pos:
                    k += 1
                end = syncs[k] if k < n_syncs else size
                if self._in_active_video and end > pos:
                    self._payload(arr[pos:end])
                if end == size:
                    break  # no FF left: still hunting
                pos = end + 1
                state = self._P1
                continue
            byte = data[pos]
            pos += 1
            if state == self._P1:
                if byte == 0x00:
                    state = self._P2
                elif byte != 0xFF:  # an FF run stays in P1
                    state = self._HUNT
            elif state == self._P2:
                state = self._ACTIVE if byte == 0x00 else self._HUNT
            else:  # _ACTIVE: this byte is the XY code
                state = self._HUNT
                frame = self._timing_code(byte)
                if frame is not None:
                    completed.append(frame)
        self._state = state
        return completed

    # ------------------------------------------------------------------
    def _timing_code(self, xy: int) -> Optional[np.ndarray]:
        status, v, h = _XY_TABLE[xy]
        if status == _XY_ERROR:
            self.stats.xy_errors += 1
            self.stats.resyncs += 1
            self._in_active_video = False
            self._clear_line()
            return None
        if status == _XY_CORRECTED:
            self.stats.corrected_xy += 1
        frame: Optional[np.ndarray] = None
        if h == 0:  # SAV
            if v == 0:
                self._in_active_video = True
                self._clear_line()
                self._payload_phase = 0
            else:
                self._in_active_video = False
        else:  # EAV
            if self._in_active_video and self._line_len:
                self._finish_line()
            self._in_active_video = False
            if v == 1 and self._prev_v == 0 and self._lines:
                frame = self._finish_frame()
        self._prev_v = v
        return frame

    def _payload(self, segment: np.ndarray) -> None:
        # 4:2:2 order Cb Y Cr Y: luma is every odd-phase byte; past a
        # full width the rest is truncated at EAV, so stop keeping it
        if self._line_len <= self.config.active_width:
            luma = segment[1 - self._payload_phase::2]
            if len(luma):
                self._line.append(luma)
                self._line_len += len(luma)
        self._payload_phase ^= len(segment) & 1

    def _clear_line(self) -> None:
        self._line = []
        self._line_len = 0

    def _finish_line(self) -> None:
        width = self.config.active_width
        if self._line_len >= width:
            self._lines.append(np.concatenate(self._line)[:width])
            self.stats.lines += 1
        else:
            self.stats.resyncs += 1
        self._clear_line()

    def _finish_frame(self) -> Optional[np.ndarray]:
        expected = self.config.active_lines
        lines = self._lines
        self._lines = []
        if len(lines) != expected:
            self.stats.resyncs += 1
            if not lines:
                return None
        self.stats.frames += 1
        return np.stack(lines)
