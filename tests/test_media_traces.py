"""Unit + property tests for synthetic media traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import RngRegistry
from repro.media import (
    ContinuousMediaObject,
    FrameKind,
    MediaType,
    VideoTraceGenerator,
    AudioTraceGenerator,
    default_registry,
)
from repro.media.traces import FrameSource, GOP_PATTERN, trace_for_object

REG = default_registry()
MPEG = REG.get("MPEG")
PCM = REG.get("PCM-family")


def rng(name="t", seed=1):
    return RngRegistry(seed=seed).stream(name)


# ---------------------------------------------------------------- video bulk
def test_video_trace_frame_count_and_timing():
    tr = VideoTraceGenerator(MPEG, rng()).generate("v", duration_s=2.0)
    assert len(tr) == 50  # 25 fps * 2 s
    ticks = 90_000 // 25
    for i, f in enumerate(tr.frames):
        assert f.media_time == i * ticks
        assert f.duration == ticks
        assert f.seq == i
    assert tr.duration_s == pytest.approx(2.0)


def test_video_trace_gop_structure():
    tr = VideoTraceGenerator(MPEG, rng()).generate("v", duration_s=1.0)
    kinds = [f.kind for f in tr.frames[: len(GOP_PATTERN)]]
    assert tuple(kinds) == GOP_PATTERN
    # I frames are on average the largest, B the smallest.
    by_kind = {}
    tr_long = VideoTraceGenerator(MPEG, rng("long")).generate("v", duration_s=60.0)
    for f in tr_long.frames:
        by_kind.setdefault(f.kind, []).append(f.size_bytes)
    assert np.mean(by_kind[FrameKind.I]) > np.mean(by_kind[FrameKind.P])
    assert np.mean(by_kind[FrameKind.P]) > np.mean(by_kind[FrameKind.B])


def bitrate_bps(trace):
    return sum(f.size_bytes for f in trace.frames) * 8.0 / trace.duration_s


def test_video_trace_mean_bitrate_on_target():
    tr = VideoTraceGenerator(MPEG, rng("rate")).generate("v", duration_s=120.0)
    assert bitrate_bps(tr) == pytest.approx(1_500_000, rel=0.10)


def test_video_trace_grade_scales_bitrate():
    g0 = VideoTraceGenerator(MPEG, rng("a")).generate("v", 60.0, grade_index=0)
    g3 = VideoTraceGenerator(MPEG, rng("a")).generate("v", 60.0, grade_index=3)
    assert bitrate_bps(g3) < 0.5 * bitrate_bps(g0)


def test_video_trace_suspended_grade_is_empty():
    tr = VideoTraceGenerator(MPEG, rng()).generate("v", 10.0, grade_index=99)
    assert len(tr) == 0
    assert tr.duration_s == 0.0
    assert sum(f.size_bytes for f in tr.frames) == 0


def test_video_trace_reproducible():
    a = VideoTraceGenerator(MPEG, rng("x", seed=5)).generate("v", 5.0)
    b = VideoTraceGenerator(MPEG, rng("x", seed=5)).generate("v", 5.0)
    assert [f.size_bytes for f in a.frames] == [f.size_bytes for f in b.frames]


def test_video_generator_rejects_audio_codec():
    with pytest.raises(ValueError):
        VideoTraceGenerator(PCM, rng())


# ---------------------------------------------------------------- audio bulk
def test_audio_trace_is_exact_cbr():
    tr = AudioTraceGenerator(PCM).generate("a", duration_s=4.0)
    assert len(tr) == 200  # 50 frames/s * 4 s
    sizes = {f.size_bytes for f in tr.frames}
    assert len(sizes) == 1
    assert bitrate_bps(tr) == pytest.approx(64_000, rel=0.01)
    assert all(f.kind is FrameKind.SAMPLE for f in tr.frames)


def test_audio_trace_grades_follow_ladder():
    for grade, rate in [(0, 64_000), (1, 32_000), (2, 16_000)]:
        tr = AudioTraceGenerator(PCM).generate("a", 10.0, grade_index=grade)
        assert bitrate_bps(tr) == pytest.approx(rate, rel=0.01)


def test_audio_generator_rejects_video_codec():
    with pytest.raises(ValueError):
        AudioTraceGenerator(MPEG)


# ---------------------------------------------------------------- FrameSource
def test_frame_source_matches_bulk_timing():
    src = FrameSource("v", MPEG, rng("fs"))
    frames = [src.next_frame() for _ in range(50)]
    ticks = 90_000 // 25
    for i, f in enumerate(frames):
        assert f is not None
        assert f.seq == i
        assert f.media_time == i * ticks


def test_frame_source_regrade_mid_stream():
    src = FrameSource("v", MPEG, rng("fs2"))
    for _ in range(10):
        src.next_frame()
    src.set_grade(3)
    f = src.next_frame()
    assert f.grade == 3
    # Lower grade -> smaller frames on average.
    sizes_low = [src.next_frame().size_bytes for _ in range(100)]
    src2 = FrameSource("v", MPEG, rng("fs2b"))
    sizes_full = [src2.next_frame().size_bytes for _ in range(100)]
    assert np.mean(sizes_low) < np.mean(sizes_full)


def test_frame_source_suspend_advances_media_time():
    src = FrameSource("v", MPEG, rng("fs3"))
    src.set_grade(len(MPEG.ladder))  # suspend
    t0 = src.media_time_s
    assert src.next_frame() is None
    assert src.media_time_s > t0
    # Upgrading resumes real frames at the advanced media time.
    src.set_grade(len(MPEG.ladder) - 1)
    f = src.next_frame()
    assert f is not None
    assert f.media_time / MPEG.clock_rate >= t0


def test_frame_source_rejects_negative_grade():
    src = FrameSource("v", MPEG, rng())
    with pytest.raises(ValueError):
        src.set_grade(-1)


def test_frame_source_half_rate_grade_spacing():
    src = FrameSource("v", MPEG, rng(), grade_index=4)  # 12.5 fps rung
    f0, f1 = src.next_frame(), src.next_frame()
    assert f1.media_time - f0.media_time == 7200  # 90 kHz / 12.5 fps


# ---------------------------------------------------------------- dispatch
def test_trace_for_object_dispatch():
    r = RngRegistry(seed=0)
    vid = ContinuousMediaObject("v", MediaType.VIDEO, "MPEG", duration_s=1.0)
    aud = ContinuousMediaObject("a", MediaType.AUDIO, "PCM-family", duration_s=1.0)
    tv = trace_for_object(vid, MPEG, r.stream("v"))
    ta = trace_for_object(aud, PCM, r.stream("a"))
    assert len(tv) == 25 and len(ta) == 50
    with pytest.raises(ValueError):
        trace_for_object(vid, PCM, r.stream("x"))


# ---------------------------------------------------------------- properties
@settings(max_examples=30, deadline=None)
@given(
    duration=st.floats(min_value=0.2, max_value=20.0),
    grade=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_video_frames_monotone_and_positive(duration, grade, seed):
    tr = VideoTraceGenerator(MPEG, rng("p", seed=seed)).generate(
        "v", duration, grade_index=grade
    )
    times = [f.media_time for f in tr.frames]
    assert times == sorted(times)
    assert len(set(times)) == len(times)
    assert all(f.size_bytes >= 1 for f in tr.frames)
    assert all(f.grade == grade for f in tr.frames)
    seqs = [f.seq for f in tr.frames]
    assert seqs == list(range(len(tr)))


@settings(max_examples=30, deadline=None)
@given(
    duration=st.floats(min_value=0.2, max_value=30.0),
    grade=st.integers(min_value=0, max_value=2),
)
def test_property_audio_rate_exact(duration, grade):
    tr = AudioTraceGenerator(PCM).generate("a", duration, grade_index=grade)
    expected = int(round(duration * 50.0))
    assert len(tr) == expected
    if expected:
        # Frames tile media time with no gaps.
        for prev, cur in zip(tr.frames, tr.frames[1:]):
            assert cur.media_time == prev.end_time


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=500), seed=st.integers(0, 2**31 - 1))
def test_property_frame_source_media_time_tiles(n, seed):
    src = FrameSource("v", MPEG, rng("fsrc", seed=seed))
    frames = [src.next_frame() for _ in range(n)]
    for prev, cur in zip(frames, frames[1:]):
        assert cur.media_time == prev.end_time
