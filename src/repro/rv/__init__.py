"""repro.rv -- fleet-scale offline runtime verification of CAN logs.

Per Luckcuck, "Offline Runtime Verification of Safety Requirements using
CSP" (PAPERS.md): treat *logged* traffic as the workload.  A recorded CAN
trace is mapped through the .dbc layer (:mod:`repro.candb`) to a sequence
of CSP events and checked for trace membership against a compiled
specification -- the deployment-side counterpart of the paper's Sec. VIII
requirement checks, asking "did this vehicle's actual session stay inside
the specified protocol?" instead of "can the model ever leave it?".

The pieces:

* :mod:`repro.rv.ingest`   -- candump-style and tracelog-JSONL log parsers
* :mod:`repro.rv.mapping`  -- .dbc-driven frame -> CSP event mapping with
  skip/fail/abstract unknown-frame policies
* :mod:`repro.rv.check`    -- the streaming membership checker (walks the
  normalised spec automaton event by event; a trace is checked
  incrementally, never materialised into a process term)
* :mod:`repro.rv.specs`    -- built-in session specifications (the OTA
  protocol of the bundled ``ota_update.dbc``)
* :mod:`repro.rv.fleetgen` -- seeded synthetic fleet-log generator (N
  vehicles on the canbus simulator with replay/drop/inject faults)
* :mod:`repro.rv.cli`      -- the ``csprv`` CLI: manifest of logs + spec ->
  canonical JSONL verdicts, inline, ``--jobs N`` or ``--server URL``

An rv job is an ordinary ``kind: "trace"`` :class:`~repro.exec.spec.
CheckSpec`, so per-trace checks shard over :mod:`repro.batch`, ``cspserve``
and the :mod:`repro.exec` runtime unchanged -- and memoise for free.
"""

from .check import TraceChecker, TraceViolation, check_trace_membership
from .ingest import LogParseError, LogRecord, read_log, parse_candump_line
from .mapping import EventMapping, UnknownFrameError
from .specs import builtin_spec, ota_session_spec

__all__ = [
    "EventMapping",
    "LogParseError",
    "LogRecord",
    "TraceChecker",
    "TraceViolation",
    "UnknownFrameError",
    "builtin_spec",
    "check_trace_membership",
    "ota_session_spec",
    "parse_candump_line",
    "read_log",
]
