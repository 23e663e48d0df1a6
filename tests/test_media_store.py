"""Unit tests for the media object store."""

import pytest

from repro.des import RngRegistry
from repro.media import (
    ContinuousMediaObject,
    DiscreteMediaObject,
    MediaStore,
    MediaType,
    default_registry,
)


@pytest.fixture
def store():
    s = MediaStore(default_registry(), RngRegistry(seed=3))
    s.add(DiscreteMediaObject("img1", MediaType.IMAGE, "JPEG", size_bytes=40_000))
    s.add(DiscreteMediaObject("txt1", MediaType.TEXT, "plain", size_bytes=2_000))
    s.add(ContinuousMediaObject("vid1", MediaType.VIDEO, "MPEG", duration_s=3.0))
    s.add(ContinuousMediaObject("aud1", MediaType.AUDIO, "PCM-family", duration_s=3.0))
    return s


def test_catalogue_basics(store):
    assert len(store) == 4
    assert "vid1" in store and "nope" not in store
    assert store.ids() == ["aud1", "img1", "txt1", "vid1"]
    assert [o for o in store.ids()
            if store.get(o).media_type is MediaType.IMAGE] == ["img1"]
    with pytest.raises(KeyError):
        store.get("nope")


def test_duplicate_id_rejected(store):
    with pytest.raises(ValueError):
        store.add(DiscreteMediaObject("img1", MediaType.IMAGE, "GIF", size_bytes=1))


def test_unknown_codec_rejected(store):
    with pytest.raises(KeyError):
        store.add(ContinuousMediaObject("v9", MediaType.VIDEO, "H264", duration_s=1.0))


def test_trace_synthesis_deterministic(store):
    t1 = store.trace("vid1")
    # A fresh store with the same seed produces the identical trace.
    s2 = MediaStore(default_registry(), RngRegistry(seed=3))
    s2.add(ContinuousMediaObject("vid1", MediaType.VIDEO, "MPEG", duration_s=3.0))
    t2 = s2.trace("vid1")
    assert [f.size_bytes for f in t1.frames] == [f.size_bytes for f in t2.frames]
    assert len(t1) == 75


def test_trace_of_discrete_object_rejected(store):
    with pytest.raises(ValueError):
        store.trace("img1")
    with pytest.raises(ValueError):
        store.frame_source("txt1")


def test_blob_size(store):
    assert store.blob_size("img1") == 40_000
    with pytest.raises(ValueError):
        store.blob_size("vid1")


def test_codec_for(store):
    assert store.codec_for("vid1").name == "MPEG"
    assert store.codec_for("aud1").name == "PCM-family"
    with pytest.raises(ValueError):
        store.codec_for("img1")


def test_frame_source_delivery(store):
    src = store.frame_source("aud1")
    f = src.next_frame()
    assert f.stream_id == "aud1"
    assert f.size_bytes == 160  # 64 kb/s / 8 / 50 fps
