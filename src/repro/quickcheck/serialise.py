"""JSON encoding of fuzz inputs, so shrunk failures replay across runs.

A corpus file must outlive the Python process that found it: the CI smoke
job uploads shrunk failures as artifacts, and ``tests/corpus/`` pins past
failures as regression inputs.  This module gives every value an oracle
input can contain -- process terms, events, alphabets, CAPL programs,
stimulus lists, tuples, atoms -- a tagged JSON form with an exact inverse.

The encoding is structural, not pickled: corpus files stay readable in a
diff, stable across interpreter versions, and safe to load (no arbitrary
code execution on replay).
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..csp.events import Alphabet, Event, event_from_json, fields_to_json
from ..csp.process import (
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
from .gen import CaplProgram


class CorpusEncodingError(ValueError):
    """Raised when a value (or JSON document) is outside the corpus schema."""


# -- events and alphabets -----------------------------------------------------------


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


# -- process terms ------------------------------------------------------------------


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


# -- CAPL statement trees -----------------------------------------------------------


def _encode_statement(statement: tuple) -> list:
    tag = statement[0]
    if tag in ("output", "assign"):
        return [tag, statement[1]]
    if tag == "noop":
        return [tag]
    if tag == "if":
        return [tag, statement[1], [_encode_statement(s) for s in statement[2]]]
    if tag == "ifelse":
        return [
            tag,
            [_encode_statement(s) for s in statement[1]],
            [_encode_statement(s) for s in statement[2]],
        ]
    if tag == "for":
        return [tag, statement[1], [_encode_statement(s) for s in statement[2]]]
    raise CorpusEncodingError("unknown CAPL statement tag {!r}".format(tag))


def _decode_statement(doc: list) -> tuple:
    tag = doc[0]
    if tag in ("output", "assign"):
        return (tag, doc[1])
    if tag == "noop":
        return (tag,)
    if tag == "if":
        return (tag, doc[1], tuple(_decode_statement(s) for s in doc[2]))
    if tag == "ifelse":
        return (
            tag,
            tuple(_decode_statement(s) for s in doc[1]),
            tuple(_decode_statement(s) for s in doc[2]),
        )
    if tag == "for":
        return (tag, doc[1], tuple(_decode_statement(s) for s in doc[2]))
    raise CorpusEncodingError("unknown CAPL statement tag {!r}".format(tag))


def encode_capl(program: CaplProgram) -> Dict[str, Any]:
    return {
        "handlers": [
            [selector, [_encode_statement(s) for s in statements]]
            for selector, statements in program.handlers
        ]
    }


def decode_capl(doc: Dict[str, Any]) -> CaplProgram:
    return CaplProgram(
        [
            (selector, tuple(_decode_statement(s) for s in statements))
            for selector, statements in doc["handlers"]
        ]
    )


# -- generic tagged values ----------------------------------------------------------


def encode_value(value: Any) -> Dict[str, Any]:
    """Encode any oracle-input value as a tagged JSON document."""
    if isinstance(value, Process):
        return {"kind": "process", "value": encode_process(value)}
    if isinstance(value, Event):
        return {"kind": "event", "value": encode_event(value)}
    if isinstance(value, Alphabet):
        return {"kind": "alphabet", "value": encode_alphabet(value)}
    if isinstance(value, CaplProgram):
        return {"kind": "capl", "value": encode_capl(value)}
    if isinstance(value, tuple):
        return {"kind": "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"kind": "list", "items": [encode_value(v) for v in value]}
    if value is None or isinstance(value, (bool, int, float, str)):
        return {"kind": "atom", "value": value}
    raise CorpusEncodingError(
        "cannot encode value of type {}".format(type(value).__name__)
    )


def decode_value(doc: Dict[str, Any]) -> Any:
    kind = doc.get("kind")
    if kind == "process":
        return decode_process(doc["value"])
    if kind == "event":
        return decode_event(doc["value"])
    if kind == "alphabet":
        return decode_alphabet(doc["value"])
    if kind == "capl":
        return decode_capl(doc["value"])
    if kind == "tuple":
        return tuple(decode_value(item) for item in doc["items"])
    if kind == "list":
        return [decode_value(item) for item in doc["items"]]
    if kind == "atom":
        return doc["value"]
    raise CorpusEncodingError("unknown value kind {!r}".format(kind))
