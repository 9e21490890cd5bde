"""Multi-pass streaming substrate and the streaming spanner (Section 2.4)."""

from ..core.results import StreamStats
from .spanner_stream import streaming_spanner, streaming_spanner_reference
from .stream import EdgeStream

__all__ = ["EdgeStream", "StreamStats", "streaming_spanner", "streaming_spanner_reference"]
