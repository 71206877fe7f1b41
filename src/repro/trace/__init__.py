"""Trace containers, deterministic synthetic stream builders, and
npz / Dinero file I/O."""

from repro.trace.io import (
    load_trace_npz,
    read_dinero,
    save_trace_npz,
    write_dinero,
)
from repro.trace.multiprogram import interleave_traces
from repro.trace.records import Trace, TraceMetadata
from repro.trace.synthetic import (
    pointer_chase,
    strided_stream,
    write_mask,
)

__all__ = [
    "Trace",
    "TraceMetadata",
    "load_trace_npz",
    "read_dinero",
    "save_trace_npz",
    "write_dinero",
    "interleave_traces",
    "pointer_chase",
    "strided_stream",
    "write_mask",
]
