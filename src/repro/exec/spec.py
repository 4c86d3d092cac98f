"""The wire format: check specifications, job results and manifests.

A check is a :class:`CheckSpec` value -- a self-contained description of
a single check (what to verify, in which semantic model, under which pass
configuration and state budget).  Specs serialise to plain JSON
documents, and a list of them to the ``{"format": 1, "checks": [...]}``
manifest document (:func:`manifest_document` / :func:`parse_manifest`).
That one format is what every execution mode speaks: a ``cspbatch``
manifest file (read and written by :mod:`repro.batch.spec`), the text a
warm worker receives, a ``cspserve`` ``check`` request and its ``POST
/batch`` body.  So everything a worker can be asked to do is expressible
as data, replayable from a file, and safe to load (no pickled code).

Five spec kinds:

``refinement``
    ``spec [model= impl`` with inline process terms (encoded with the
    term codec below, :func:`encode_process`) plus the named equations
    both sides reference.
``property``
    ``term :[deadlock free]`` / ``divergence free`` / ``deterministic``,
    same term encoding.
``trace``
    Offline runtime verification (:mod:`repro.rv`): is this logged event
    sequence a trace of the specification process?  The document carries
    the spec term, its reachable bindings, and the trace itself as encoded
    events (optionally annotated with source-log line numbers for
    counterexample provenance) -- fully self-contained, so the structural
    key covers everything that decides the verdict and rv jobs memoise
    and dedup exactly like refinements.
``requirement``
    One row of the paper's Table III (``"R01"``..``"R05"``); the worker
    rebuilds the session system itself, so the manifest entry is one line.
``selftest``
    Executor fault-injection hooks (``pass`` / ``fail`` / ``raise`` /
    ``sleep:SECONDS`` / ``exit:CODE``) used by the executor's own tests and
    CI to prove crash isolation without a hand-built broken model.

A :class:`JobResult` is the JSON-shaped outcome of one spec: a verdict
(:data:`PASS` ... :data:`CANCELLED`), the counterexample (kind, event
trace, FDR-style description), search statistics, and per-job timing and
profile data.  :meth:`JobResult.canonical` strips the fields that
legitimately vary between runs (wall time, worker pid, profile), leaving
exactly the bytes that must be identical between sequential and parallel
execution -- the conformance corpus and the batch oracle compare those.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..csp.events import Alphabet, Event, event_from_json, fields_to_json
from ..csp.process import (
    Environment,
    ExternalChoice,
    GenParallel,
    Hiding,
    Interleave,
    Interrupt,
    InternalChoice,
    Omega,
    Prefix,
    Process,
    ProcessRef,
    Renaming,
    SKIP,
    STOP,
    SeqComp,
    Skip,
    Stop,
)
from ..fdr.refine import CheckResult
from .keys import canonical_json

#: manifest / wire format version
BATCH_FORMAT_VERSION = 1

#: job verdicts
PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"
TIMEOUT = "TIMEOUT"
CANCELLED = "CANCELLED"

VERDICTS = (PASS, FAIL, ERROR, TIMEOUT, CANCELLED)

_KINDS = ("refinement", "property", "trace", "requirement", "selftest")


class ManifestError(ValueError):
    """The manifest (or one spec document) is outside the batch schema."""


class CorpusEncodingError(ValueError):
    """A value (or JSON document) is outside the term codec's schema.

    The fuzz corpus codec (:mod:`repro.quickcheck.serialise`) raises it for
    the values it adds on top of this one.
    """


#: what computing a spec's canonical text raises when the spec is outside
#: the codec: a term it has no encoding for (:class:`CorpusEncodingError`,
#: a ``ValueError``), a field value JSON has none for (``TypeError``), or a
#: term nested deeper than the encoder recurses
UNENCODABLE = (ValueError, TypeError, RecursionError)


# -- the term codec: events and alphabets --------------------------------------


def encode_event(event: Event) -> Dict[str, Any]:
    return {"channel": event.channel, "fields": fields_to_json(event.fields)}


def decode_event(doc: Dict[str, Any]) -> Event:
    try:
        return event_from_json(doc["channel"], doc["fields"])
    except ValueError as error:
        raise CorpusEncodingError(str(error)) from None


def encode_alphabet(alphabet: Alphabet) -> List[Dict[str, Any]]:
    return [encode_event(e) for e in alphabet]  # sorted by Alphabet.__iter__


def decode_alphabet(doc: List[Dict[str, Any]]) -> Alphabet:
    return Alphabet(decode_event(entry) for entry in doc)


# -- the term codec: process terms ---------------------------------------------


def encode_process(term: Process) -> Dict[str, Any]:
    if isinstance(term, Stop):
        return {"op": "stop"}
    if isinstance(term, (Skip, Omega)):
        return {"op": "skip"}
    if isinstance(term, Prefix):
        return {
            "op": "prefix",
            "event": encode_event(term.event),
            "next": encode_process(term.continuation),
        }
    if isinstance(term, ExternalChoice):
        return {
            "op": "extchoice",
            "left": encode_process(term.left),
            "right": encode_process(term.right),
        }
    if isinstance(term, InternalChoice):
        return {
            "op": "intchoice",
            "left": encode_process(term.left),
            "right": encode_process(term.right),
        }
    if isinstance(term, SeqComp):
        return {
            "op": "seq",
            "left": encode_process(term.first),
            "right": encode_process(term.second),
        }
    if isinstance(term, Interleave):
        return {
            "op": "interleave",
            "left": encode_process(term.left),
            "right": encode_process(term.right),
        }
    if isinstance(term, Interrupt):
        return {
            "op": "interrupt",
            "left": encode_process(term.primary),
            "right": encode_process(term.handler),
        }
    if isinstance(term, GenParallel):
        return {
            "op": "parallel",
            "left": encode_process(term.left),
            "right": encode_process(term.right),
            "sync": encode_alphabet(term.sync),
        }
    if isinstance(term, Hiding):
        return {
            "op": "hide",
            "process": encode_process(term.process),
            "hidden": encode_alphabet(term.hidden),
        }
    if isinstance(term, Renaming):
        return {
            "op": "rename",
            "process": encode_process(term.process),
            "mapping": [
                [encode_event(source), encode_event(target)]
                for source, target in term.mapping
            ],
        }
    if isinstance(term, ProcessRef):
        return {"op": "ref", "name": term.name}
    raise CorpusEncodingError(
        "cannot encode process term of type {}".format(type(term).__name__)
    )


def term_fragment(term: Process) -> str:
    """The canonical JSON text of ``encode_process(term)``, cached on the term.

    Terms are hash-consed, so every spec that mentions an equal term
    shares this one text: a fleet's spec is encoded once per process, not
    once per log.
    """
    try:
        return term._fragment
    except AttributeError:
        pass
    fragment = canonical_json(encode_process(term))
    object.__setattr__(term, "_fragment", fragment)
    return fragment


#: the canonical texts of recently encoded trace events, each without its
#: closing brace (a trace entry adds its ``"line"`` there).  Keyed on the
#: channel and the ``repr`` of the fields, not on the event: events compare
#: fields with ``==``, so ``c.true`` equals ``c.1``, yet the two encode
#: differently.  A fleet's logs repeat a few events (5 distinct in 10,033
#: entries under the name mapping), and a lookup costs about a third of an
#: encoding
_EVENT_HEADS: Dict[Tuple[str, str], str] = {}

#: the most entries :data:`_EVENT_HEADS` holds before it starts over: a
#: 1,500-vehicle fleet under the signal mapping logs ~3,700 distinct
#: events, and a full memo holds under 1 MB
_EVENT_HEAD_CAP = 4096


def _trace_fragment(
    trace: Sequence[Event], lines: Optional[Sequence[Optional[int]]]
) -> str:
    """The canonical JSON array of a trace check's entries."""
    entries = []
    for event, line in zip(trace, lines or itertools.repeat(None)):
        key = (event.channel, repr(event.fields))
        head = _EVENT_HEADS.get(key)
        if head is None:
            if len(_EVENT_HEADS) >= _EVENT_HEAD_CAP:
                _EVENT_HEADS.clear()
            head = _EVENT_HEADS[key] = canonical_json(encode_event(event))[:-1]
        # "line" sorts after "channel" and "fields", so it goes last
        if line is None:
            entries.append(head + "}")
        elif type(line) is int:
            entries.append(head + ',"line":' + str(line) + "}")
        else:
            entries.append(head + ',"line":' + canonical_json(line) + "}")
    return "[" + ",".join(entries) + "]"


def decode_process(doc: Dict[str, Any]) -> Process:
    op = doc["op"]
    if op == "stop":
        return STOP
    if op == "skip":
        return SKIP
    if op == "prefix":
        return Prefix(decode_event(doc["event"]), decode_process(doc["next"]))
    if op == "extchoice":
        return ExternalChoice(
            decode_process(doc["left"]), decode_process(doc["right"])
        )
    if op == "intchoice":
        return InternalChoice(
            decode_process(doc["left"]), decode_process(doc["right"])
        )
    if op == "seq":
        return SeqComp(decode_process(doc["left"]), decode_process(doc["right"]))
    if op == "interleave":
        return Interleave(
            decode_process(doc["left"]), decode_process(doc["right"])
        )
    if op == "interrupt":
        return Interrupt(
            decode_process(doc["left"]), decode_process(doc["right"])
        )
    if op == "parallel":
        return GenParallel(
            decode_process(doc["left"]),
            decode_process(doc["right"]),
            decode_alphabet(doc["sync"]),
        )
    if op == "hide":
        return Hiding(decode_process(doc["process"]), decode_alphabet(doc["hidden"]))
    if op == "rename":
        return Renaming(
            decode_process(doc["process"]),
            {
                decode_event(source): decode_event(target)
                for source, target in doc["mapping"]
            },
        )
    if op == "ref":
        return ProcessRef(doc["name"])
    raise CorpusEncodingError("unknown process op {!r}".format(op))


def reachable_bindings(env, *terms, bindings=None):
    """The named equations reachable from *terms*, bodies included.

    Resolves the names each term (and every body it pulls in) mentions,
    :meth:`~repro.csp.process.Process.refs`, against *env*, so the
    returned ``{name: body}`` mapping makes a spec document self-contained
    -- the precondition for it to be a sound structural key.
    This is the one implementation behind every spec-construction path:
    ``cspcheck``'s memoisation documents, batch manifests written from
    evaluated models, and rv trace specs.

    Names already present in *bindings* (or unbound in *env*) are left
    alone; the caller decides whether an unresolved reference is an error.
    """
    collected: Dict[str, Process] = dict(bindings or {})
    pending = [name for term in terms for name in term.refs()]
    while pending:
        name = pending.pop()
        if name not in collected and name in env:
            body = env.resolve(name)
            collected[name] = body
            pending.extend(body.refs())
    return collected


class CheckSpec:
    """One self-contained check: the unit the batch executor schedules."""

    def __init__(
        self,
        kind: str,
        *,
        check_id: Optional[str] = None,
        spec: Optional[Process] = None,
        impl: Optional[Process] = None,
        term: Optional[Process] = None,
        model: str = "T",
        property_name: Optional[str] = None,
        req_id: Optional[str] = None,
        op: Optional[str] = None,
        trace: Optional[Sequence[Event]] = None,
        trace_lines: Optional[Sequence[Optional[int]]] = None,
        bindings: Optional[Dict[str, Process]] = None,
        passes: str = "default",
        max_states: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        if kind not in _KINDS:
            raise ManifestError(
                "unknown check kind {!r}; known: {}".format(kind, ", ".join(_KINDS))
            )
        self.kind = kind
        self.check_id = check_id
        self.spec = spec
        self.impl = impl
        self.term = term
        self.model = model
        self.property_name = property_name
        self.req_id = req_id
        self.op = op
        #: for ``kind == "trace"``: the logged event sequence to check, plus
        #: optional per-event source-log line numbers (same length) carried
        #: into the counterexample's frame provenance
        self.trace: Optional[Tuple[Event, ...]] = (
            None if trace is None else tuple(trace)
        )
        self.trace_lines: Optional[Tuple[Optional[int], ...]] = (
            None if trace_lines is None else tuple(trace_lines)
        )
        if (
            self.trace is not None
            and self.trace_lines is not None
            and len(self.trace) != len(self.trace_lines)
        ):
            raise ManifestError("trace_lines must align with the trace")
        self.bindings: Dict[str, Process] = dict(bindings or {})
        self.passes = passes
        self.max_states = max_states
        self.name = name

    # -- constructors --------------------------------------------------------

    @classmethod
    def refinement(
        cls,
        spec: Process,
        impl: Process,
        model: str = "T",
        *,
        check_id: Optional[str] = None,
        bindings: Optional[Dict[str, Process]] = None,
        **options,
    ) -> "CheckSpec":
        return cls(
            "refinement",
            check_id=check_id,
            spec=spec,
            impl=impl,
            model=model,
            bindings=bindings,
            **options,
        )

    @classmethod
    def property_check(
        cls,
        term: Process,
        property_name: str,
        *,
        check_id: Optional[str] = None,
        bindings: Optional[Dict[str, Process]] = None,
        **options,
    ) -> "CheckSpec":
        return cls(
            "property",
            check_id=check_id,
            term=term,
            property_name=property_name,
            bindings=bindings,
            **options,
        )

    @classmethod
    def trace_check(
        cls,
        spec: Process,
        trace: Sequence[Event],
        *,
        check_id: Optional[str] = None,
        trace_lines: Optional[Sequence[Optional[int]]] = None,
        bindings: Optional[Dict[str, Process]] = None,
        **options,
    ) -> "CheckSpec":
        """An rv membership check: is *trace* a trace of *spec*?"""
        return cls(
            "trace",
            check_id=check_id,
            spec=spec,
            trace=trace,
            trace_lines=trace_lines,
            bindings=bindings,
            **options,
        )

    @classmethod
    def requirement(cls, req_id: str, **options) -> "CheckSpec":
        return cls("requirement", check_id=options.pop("check_id", req_id), req_id=req_id, **options)

    @classmethod
    def selftest(cls, op: str, *, check_id: Optional[str] = None, **options) -> "CheckSpec":
        return cls("selftest", check_id=check_id, op=op, **options)

    # -- environment ---------------------------------------------------------

    def environment(self) -> Environment:
        env = Environment()
        for bound_name in sorted(self.bindings):
            env.bind(bound_name, self.bindings[bound_name])
        return env

    # -- JSON ----------------------------------------------------------------

    def material(self) -> str:
        """This spec's canonical text: the label-stripped, sorted-key JSON.

        The bytes of ``spec_material(spec.to_doc())``, assembled without a
        document: the term texts come from :func:`term_fragment`, the
        trace entries from a bounded per-event memo, and the top-level
        keys are joined in sorted order.  Nothing is cached on the spec.
        Raises one of :data:`UNENCODABLE` for a spec outside the codec.
        """
        kind = self.kind
        parts = [("kind", canonical_json(kind))]
        if kind == "refinement":
            parts.append(("model", canonical_json(self.model)))
            parts.append(("spec", term_fragment(self.spec)))
            parts.append(("impl", term_fragment(self.impl)))
        elif kind == "property":
            parts.append(("property", canonical_json(self.property_name)))
            parts.append(("term", term_fragment(self.term)))
        elif kind == "trace":
            parts.append(("spec", term_fragment(self.spec)))
            trace = _trace_fragment(self.trace or (), self.trace_lines)
            parts.append(("trace", trace))
        elif kind == "requirement":
            parts.append(("req", canonical_json(self.req_id)))
        else:
            parts.append(("op", canonical_json(self.op)))
        if self.bindings:
            env = ",".join(
                canonical_json(bound_name) + ":" + term_fragment(body)
                for bound_name, body in sorted(self.bindings.items())
            )
            parts.append(("env", "{" + env + "}"))
        if self.passes != "default":
            parts.append(("passes", canonical_json(self.passes)))
        if self.max_states is not None:
            parts.append(("max_states", canonical_json(self.max_states)))
        if self.name is not None:
            parts.append(("name", canonical_json(self.name)))
        parts.sort()
        return "{" + ",".join('"' + key + '":' + text for key, text in parts) + "}"

    def to_doc(self) -> Dict[str, Any]:
        """The wire document: the parsed :meth:`material` plus the ``id``."""
        doc = json.loads(self.material())
        if self.check_id is not None:
            doc["id"] = self.check_id
        return doc

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "CheckSpec":
        if not isinstance(doc, dict):
            raise ManifestError("a check entry must be a JSON object")
        kind = doc.get("kind")
        if kind not in _KINDS:
            raise ManifestError(
                "unknown check kind {!r}; known: {}".format(kind, ", ".join(_KINDS))
            )
        try:
            bindings = {
                bound_name: decode_process(body)
                for bound_name, body in (doc.get("env") or {}).items()
            }
            spec = impl = term = trace = trace_lines = None
            if kind == "refinement":
                spec = decode_process(doc["spec"])
                impl = decode_process(doc["impl"])
            elif kind == "property":
                term = decode_process(doc["term"])
            elif kind == "trace":
                spec = decode_process(doc["spec"])
                entries = doc["trace"]
                if not isinstance(entries, list):
                    raise ManifestError("trace check entry 'trace' must be a list")
                trace = [decode_event(entry) for entry in entries]
                trace_lines = [entry.get("line") for entry in entries]
                if all(line is None for line in trace_lines):
                    trace_lines = None
        except (CorpusEncodingError, KeyError, TypeError, RecursionError) as error:
            # RecursionError: a term nested deeper than the decoder recurses
            raise ManifestError(
                "undecodable check entry {!r}: {}".format(doc.get("id"), error)
            ) from None
        if kind == "property" and not doc.get("property"):
            raise ManifestError("property check entry is missing 'property'")
        if kind == "requirement" and not doc.get("req"):
            raise ManifestError("requirement check entry is missing 'req'")
        if kind == "selftest" and not doc.get("op"):
            raise ManifestError("selftest check entry is missing 'op'")
        return cls(
            kind,
            check_id=doc.get("id"),
            spec=spec,
            impl=impl,
            term=term,
            model=doc.get("model", "T"),
            property_name=doc.get("property"),
            req_id=doc.get("req"),
            op=doc.get("op"),
            trace=trace,
            trace_lines=trace_lines,
            bindings=bindings,
            passes=doc.get("passes", "default"),
            max_states=doc.get("max_states"),
            name=doc.get("name"),
        )

    def __repr__(self) -> str:
        return "CheckSpec({!r}, id={!r})".format(self.kind, self.check_id)


class JobResult:
    """Outcome of one spec, in wire/JSONL shape."""

    def __init__(
        self,
        index: int,
        check_id: Optional[str],
        verdict: str,
        *,
        name: Optional[str] = None,
        counterexample: Optional[Dict[str, Any]] = None,
        states_explored: int = 0,
        transitions_explored: int = 0,
        error: Optional[str] = None,
        duration_ms: float = 0.0,
        worker_pid: Optional[int] = None,
        profile: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.index = index
        self.check_id = check_id
        self.verdict = verdict
        self.name = name
        self.counterexample = counterexample
        self.states_explored = states_explored
        self.transitions_explored = transitions_explored
        self.error = error
        self.duration_ms = duration_ms
        self.worker_pid = worker_pid
        self.profile = profile

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    @classmethod
    def of_check_result(
        cls,
        index: int,
        check_id: Optional[str],
        result: CheckResult,
        *,
        duration_ms: float = 0.0,
        worker_pid: Optional[int] = None,
        profile: Optional[Dict[str, Any]] = None,
    ) -> "JobResult":
        counterexample = None
        violation = result.counterexample
        if violation is not None:
            counterexample = {
                "kind": violation.kind,
                "trace": [str(event) for event in violation.trace],
                "description": violation.describe(),
            }
            # counterexample classes may carry extra run-invariant fields
            # (the rv checker adds violation position and frame provenance)
            doc_fields = getattr(violation, "doc_fields", None)
            if doc_fields is not None:
                counterexample.update(doc_fields())
        return cls(
            index,
            check_id,
            PASS if result.passed else FAIL,
            name=result.name,
            counterexample=counterexample,
            states_explored=result.states_explored,
            transitions_explored=result.transitions_explored,
            duration_ms=duration_ms,
            worker_pid=worker_pid,
            profile=profile,
        )

    def to_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "index": self.index,
            "id": self.check_id,
            "verdict": self.verdict,
            "name": self.name,
            "counterexample": self.counterexample,
            "states_explored": self.states_explored,
            "transitions_explored": self.transitions_explored,
            "error": self.error,
            "duration_ms": round(self.duration_ms, 3),
            "worker_pid": self.worker_pid,
        }
        if self.profile is not None:
            doc["profile"] = self.profile
        return doc

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "JobResult":
        return cls(
            doc["index"],
            doc.get("id"),
            doc["verdict"],
            name=doc.get("name"),
            counterexample=doc.get("counterexample"),
            states_explored=doc.get("states_explored", 0),
            transitions_explored=doc.get("transitions_explored", 0),
            error=doc.get("error"),
            duration_ms=doc.get("duration_ms", 0.0),
            worker_pid=doc.get("worker_pid"),
            profile=doc.get("profile"),
        )

    def canonical(self) -> Dict[str, Any]:
        """The run-invariant view: what parallel runs must reproduce exactly.

        Excludes wall time, worker pid and the profile -- everything else
        (verdict, label, counterexample kind/trace/description, search
        statistics, error text) must be byte-identical between a sequential
        run and any parallel or cache-warm run of the same batch.
        """
        return {
            "id": self.check_id,
            "verdict": self.verdict,
            "name": self.name,
            "counterexample": self.counterexample,
            "states_explored": self.states_explored,
            "transitions_explored": self.transitions_explored,
            "error": self.error,
        }

    def canonical_line(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True)

    def summary(self) -> str:
        label = self.check_id or self.name or "job {}".format(self.index)
        line = "{}: {}".format(label, self.verdict)
        if self.counterexample is not None:
            line += " -- " + self.counterexample["description"]
        if self.error:
            line += " -- " + self.error.splitlines()[0]
        return line

    def __repr__(self) -> str:
        return "JobResult({!r}, {!r})".format(self.check_id, self.verdict)


# -- the manifest document -----------------------------------------------------


def manifest_document(specs: Sequence[CheckSpec]) -> Dict[str, Any]:
    return {
        "format": BATCH_FORMAT_VERSION,
        "checks": [spec.to_doc() for spec in specs],
    }


def parse_manifest(doc: Any) -> List[CheckSpec]:
    if not isinstance(doc, dict):
        raise ManifestError("a manifest must be a JSON object")
    if doc.get("format") != BATCH_FORMAT_VERSION:
        raise ManifestError(
            "unsupported manifest format {!r} (expected {})".format(
                doc.get("format"), BATCH_FORMAT_VERSION
            )
        )
    checks = doc.get("checks")
    if not isinstance(checks, list):
        raise ManifestError("manifest 'checks' must be a list")
    return [CheckSpec.from_doc(entry) for entry in checks]
