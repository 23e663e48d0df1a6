"""Media object store — the storage backend of a media server.

Each media server in the paper "is responsible for transmitting a
certain media type"; its store maps object ids to descriptors and
synthesizes the frame data on demand (discrete objects are sized
blobs, continuous objects get deterministic per-object traces).
"""

from __future__ import annotations

from repro.des.rng import RngRegistry
from repro.media.encodings import Codec, CodecRegistry
from repro.media.traces import FrameSource, MediaTrace, trace_for_object
from repro.media.types import (
    ContinuousMediaObject,
    DiscreteMediaObject,
    MediaObject,
)

__all__ = ["MediaStore"]


class MediaStore:
    """In-memory catalogue of media objects with trace synthesis."""

    def __init__(self, codecs: CodecRegistry, rng: RngRegistry) -> None:
        self.codecs = codecs
        self.rng = rng
        self._objects: dict[str, MediaObject] = {}

    # -- catalogue -----------------------------------------------------
    def add(self, obj: MediaObject) -> None:
        if obj.object_id in self._objects:
            raise ValueError(f"object {obj.object_id!r} already stored")
        if obj.media_type.is_continuous and obj.encoding not in self.codecs:
            raise KeyError(
                f"object {obj.object_id!r} uses unknown codec"
                f" {obj.encoding!r}")
        self._objects[obj.object_id] = obj

    def get(self, object_id: str) -> MediaObject:
        try:
            return self._objects[object_id]
        except KeyError:
            raise KeyError(f"no media object {object_id!r}") from None

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def ids(self) -> list[str]:
        return sorted(self._objects)

    # -- synthesis -----------------------------------------------------
    def codec_for(self, object_id: str) -> Codec:
        obj = self.get(object_id)
        if obj.media_type.is_discrete:
            raise ValueError(f"object {object_id!r} is discrete; no codec")
        return self.codecs.get(obj.encoding)

    def trace(self, object_id: str) -> MediaTrace:
        """Full trace of a continuous object (bulk synthesis)."""
        obj = self.get(object_id)
        if not isinstance(obj, ContinuousMediaObject):
            raise ValueError(f"object {object_id!r} is not continuous")
        codec = self.codecs.get(obj.encoding)
        return trace_for_object(
            obj, codec, self.rng.stream(obj.trace_seed_name), 0)

    def frame_source(self, object_id: str, grade_index: int = 0) -> FrameSource:
        """Stateful per-delivery frame source (supports regrading)."""
        obj = self.get(object_id)
        if not isinstance(obj, ContinuousMediaObject):
            raise ValueError(f"object {object_id!r} is not continuous")
        codec = self.codecs.get(obj.encoding)
        return FrameSource(
            obj.object_id,
            codec,
            self.rng.stream(obj.trace_seed_name),
            grade_index=grade_index,
        )

    def blob_size(self, object_id: str) -> int:
        """Byte size of a discrete object."""
        obj = self.get(object_id)
        if not isinstance(obj, DiscreteMediaObject):
            raise ValueError(f"object {object_id!r} is not discrete")
        return obj.size_bytes
