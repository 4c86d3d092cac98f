"""JSON encoding of fuzz inputs, so shrunk failures replay across runs.

A corpus file must outlive the Python process that found it: the CI smoke
job uploads shrunk failures as artifacts, and ``tests/corpus/`` pins past
failures as regression inputs.  This module gives every value an oracle
input can contain -- process terms, events, alphabets, CAPL programs,
stimulus lists, tuples, atoms -- a tagged JSON form with an exact inverse.
Process terms, events and alphabets use the wire format's term codec
(:mod:`repro.exec.spec`); this module adds CAPL programs and the tagged
envelope around every value.

The encoding is structural, not pickled: corpus files stay readable in a
diff, stable across interpreter versions, and safe to load (no arbitrary
code execution on replay).
"""

from __future__ import annotations

from typing import Any, Dict

from ..csp.events import Alphabet, Event
from ..csp.process import Process
from ..exec.spec import (
    CorpusEncodingError,
    decode_alphabet,
    decode_event,
    decode_process,
    encode_alphabet,
    encode_event,
    encode_process,
)
from .gen import CaplProgram


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
