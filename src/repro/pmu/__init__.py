"""PMU: performance events, counter architectures, CSR file, harness."""

from .counters import (AddWiresCounterBank, COUNTER_ARCHITECTURES,
                       ClassicOrCounter, DistributedCounterBank,
                       ScalarCounterBank, make_counter_bank)
from .csr import CsrFile, INCREMENT_MODES
from .events import (BOOM_EVENTS, Event, EventSet, ROCKET_EVENTS, TmaLevel,
                     decode_selector, encode_selector, events_for_core,
                     new_events_for_core)
from .harness import (CounterAssignment, Measurement, PerfHarness,
                      make_core)
from .sampling import (MultiplexedCsrFile, SamplingComparison,
                       measure_sampled)

__all__ = [
    "AddWiresCounterBank",
    "BOOM_EVENTS",
    "COUNTER_ARCHITECTURES",
    "ClassicOrCounter",
    "CounterAssignment",
    "CsrFile",
    "DistributedCounterBank",
    "Event",
    "EventSet",
    "INCREMENT_MODES",
    "Measurement",
    "MultiplexedCsrFile",
    "PerfHarness",
    "SamplingComparison",
    "ROCKET_EVENTS",
    "ScalarCounterBank",
    "TmaLevel",
    "decode_selector",
    "encode_selector",
    "events_for_core",
    "make_core",
    "make_counter_bank",
    "measure_sampled",
    "new_events_for_core",
]
