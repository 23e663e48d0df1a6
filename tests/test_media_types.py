"""Unit tests for media object and frame types."""

import pytest

from repro.media import (
    ContinuousMediaObject,
    DiscreteMediaObject,
    Frame,
    FrameKind,
    MediaType,
)


def test_media_type_continuity_split():
    continuous = {m for m in MediaType if m.is_continuous}
    assert continuous == {MediaType.AUDIO, MediaType.VIDEO}
    for m in MediaType:
        assert m.is_discrete != m.is_continuous


def test_frame_end_time():
    f = Frame("s", seq=0, media_time=3600, duration=3600, size_bytes=100,
              kind=FrameKind.I)
    assert f.end_time == 7200


def test_discrete_object_validation():
    obj = DiscreteMediaObject("img1", MediaType.IMAGE, "JPEG", size_bytes=2048)
    assert obj.size_bytes == 2048
    with pytest.raises(ValueError):
        DiscreteMediaObject("img2", MediaType.IMAGE, "JPEG", size_bytes=0)
    with pytest.raises(ValueError):
        DiscreteMediaObject("bad", MediaType.VIDEO, "MPEG", size_bytes=10)
    with pytest.raises(ValueError):
        DiscreteMediaObject("", MediaType.IMAGE, "JPEG", size_bytes=10)


def test_continuous_object_validation():
    obj = ContinuousMediaObject("v1", MediaType.VIDEO, "MPEG", duration_s=10.0)
    assert obj.trace_seed_name == "trace:v1"
    with pytest.raises(ValueError):
        ContinuousMediaObject("v2", MediaType.VIDEO, "MPEG", duration_s=0.0)
    with pytest.raises(ValueError):
        ContinuousMediaObject("t", MediaType.TEXT, "plain", duration_s=5.0)
