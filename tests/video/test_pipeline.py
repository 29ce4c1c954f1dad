"""The capture-to-fusion data flow (Fig. 7) through the session API:
webcam + BT.656 thermal -> decode -> scale -> FIFO -> DT-CWT fusion."""

import hashlib

import numpy as np
import pytest

from repro.session import CaptureChainSource, FusionSession
from repro.types import FrameShape
from repro.video.scene import SyntheticScene

#: SHA-256 of three fused 40x40 frames from
#: SyntheticScene(width=96, height=80, seed=11) on the modelled NEON
#: engine, two levels; pins the capture chain, registration and fusion
#: arithmetic bit for bit
CAPTURE_GOLDEN_SHA256 = (
    "ba4dc4c332533ab6baa17addc54feb2e6c178daf1a612bb9b987d6a9ff8b36fe")


def capture_run(scene, frames, **overrides):
    config = dict(engine="neon", fusion_shape=FrameShape(40, 40),
                  levels=2, quality_metrics=False)
    config.update(overrides)
    with FusionSession(**config) as session:
        return session.run(frames, source=CaptureChainSource(scene=scene))


class TestPipeline:
    def test_fused_frames_are_uint8_at_fusion_shape(self, scene):
        frame = capture_run(scene, 1).records[0].frame
        assert frame.pixels.shape == (40, 40)
        assert frame.pixels.dtype == np.uint8
        assert frame.source == "fused"

    def test_model_costs_accumulate(self, scene):
        report = capture_run(scene, 2)
        assert report.model_seconds_total > 0
        assert report.model_millijoules_total > 0
        assert report.model_fps > 0
        per_frame = report.records[0].model_seconds
        assert np.isclose(report.model_seconds_total, 2 * per_frame)

    def test_fused_output_combines_modalities(self, scene):
        record = capture_run(scene, 1).records[0]
        fused = record.frame.pixels.astype(float)
        # correlated with both sources
        corr_vis = np.corrcoef(fused.ravel(), record.visible.ravel())[0, 1]
        corr_th = np.corrcoef(fused.ravel(), record.thermal.ravel())[0, 1]
        assert corr_vis > 0.2
        assert corr_th > 0.2

    def test_keep_records_off_saves_memory(self, scene):
        report = capture_run(scene, 2, keep_records=False)
        assert report.frames == 2
        assert report.records == []


class TestCaptureChainGolden:
    @pytest.mark.parametrize("executor",
                             ["serial", "pipeline", "hetero", "batch"])
    def test_fused_digest(self, executor):
        report = capture_run(SyntheticScene(width=96, height=80, seed=11),
                             3, executor=executor)
        assert report.frames == 3
        digest = hashlib.sha256(b"".join(
            record.frame.pixels.tobytes() for record in report.records))
        assert digest.hexdigest() == CAPTURE_GOLDEN_SHA256
        assert report.decode_errors == report.fifo_dropped == 0
