"""Stream substrate: elements, punctuations, sources, sinks, rate meters."""

from repro.streams.elements import (
    END_OF_STREAM,
    NO_ELEMENT,
    Punctuation,
    PunctuationKind,
    StreamElement,
    is_data,
    is_end,
    is_no_element,
)
from repro.streams.rates import NANOS_PER_SECOND, SlidingRateMeter
from repro.streams.sinks import (
    CallbackSink,
    CollectingSink,
    CountingSink,
    LatencySink,
    Sink,
    TimestampedCountSink,
)
from repro.streams.traces import (
    TraceSource,
    TraceWriter,
    load_trace,
    record_trace,
)
from repro.streams.sources import (
    BurstPhase,
    BurstySource,
    ConstantRateSource,
    ListSource,
    PoissonSource,
    Source,
    sequence_values,
    uniform_int_values,
)

__all__ = [
    "END_OF_STREAM",
    "NO_ELEMENT",
    "Punctuation",
    "PunctuationKind",
    "StreamElement",
    "is_data",
    "is_end",
    "is_no_element",
    "NANOS_PER_SECOND",
    "SlidingRateMeter",
    "Sink",
    "CallbackSink",
    "CollectingSink",
    "CountingSink",
    "LatencySink",
    "TimestampedCountSink",
    "Source",
    "BurstPhase",
    "BurstySource",
    "ConstantRateSource",
    "ListSource",
    "PoissonSource",
    "sequence_values",
    "uniform_int_values",
    "TraceSource",
    "TraceWriter",
    "load_trace",
    "record_trace",
]
