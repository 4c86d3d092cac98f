"""Systems under learning: resettable membership oracles over event words.

Active learning (Angluin's L*) needs exactly one capability from the
black box: answer *membership queries* -- "is this word a behaviour of
yours?" -- from a resettable initial state.  Two systems provide it:

* :class:`CaplSimulatorSUL` -- the real thing.  The CAPL source is parsed
  once, when the SUL is built.  Each query is one fresh, deterministic
  simulator run: a fresh :class:`~repro.capl.CaplNode` interprets that
  one parsed program on a fresh :class:`~repro.canbus.CanBus` (the
  interpreter only reads the program, so a reset is a new interpreter,
  not a new parse), the query word's
  ``send.<req>`` symbols become delivered frames, and the node's
  transmissions (read back off the bus log and mapped to CSP events
  through the :mod:`repro.rv.mapping` layer, like any logged traffic)
  must account for the word's ``rec.<rsp>`` symbols.
* :class:`LtsSUL` -- a white-box teacher over an already-compiled
  automaton, used by the round-trip property tests: membership is
  :meth:`~repro.csp.kernel.CompactLTS.walk`.

**Observation abstraction.**  Within one handler activation the simulator
transmits responses in CAN-arbitration order, but that order is an
artefact of the bus model, not a contract of the ECU -- the extractor
widens multi-output paths to every permutation (``relax_bus_order``) for
the same reason.  :class:`CaplSimulatorSUL` therefore tracks the pending
responses of the current activation as a *multiset*: a ``rec.X`` symbol
is enabled iff an ``X`` is pending, and the next ``send`` symbol is
enabled only once the pending multiset has drained.  Under this
abstraction the language of a straight-line handler program is exactly
the trace language of its (widened) extracted model, which is what makes
the ``learned_vs_extracted`` differential oracle a meaningful statement
rather than an arbitration-order coin flip.

The learnable fragment is the closed-bus reactive one: message handlers
plus ``on start`` outputs.  Timer-driven behaviour has no input symbol to
hang on (queries would have to quantify over firing times), so programs
whose runs touch timers are outside the fragment; a reference teacher
built from a timer-free extraction reports the mismatch as divergence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..candb.model import Database, Message
from ..capl import CaplRuntimeError, parse
from ..capl.interpreter import MessageSpec
from ..csp.events import Event
from ..rv.ingest import LogRecord
from ..rv.mapping import EventMapping, UnknownFrameError

#: a membership-query word / a learned trace: a tuple of CSP events
Word = Tuple[Event, ...]


class LearnError(ValueError):
    """The system under learning cannot be queried as configured."""


def derive_message_specs(
    source: str, *, base_id: int = 0x200, dlc: int = 8
) -> Dict[str, MessageSpec]:
    """Deterministic message specs for a stand-alone CAPL source.

    ``csplearn`` runs without a .dbc: every message name the program
    handles or declares gets a CAN id assigned in sorted-name order.  The
    ids only need to be distinct -- under the multiset observation
    abstraction arbitration order never reaches the learned language.
    """
    program = parse(source)
    names = set()
    for handler in program.message_handlers():
        if isinstance(handler.selector, str) and handler.selector != "*":
            names.add(handler.selector)
    for decl in program.message_declarations():
        if isinstance(decl.message_type, str) and decl.message_type != "*":
            names.add(decl.message_type)
    return {
        name: MessageSpec(base_id + index, dlc)
        for index, name in enumerate(sorted(names))
    }


def _specs_database(
    message_specs: Dict[str, MessageSpec], node: str
) -> Database:
    """An in-memory .dbc equivalent of a message-spec table.

    Every message is declared as sent by *node*: the mapping layer only
    ever sees the node's own transmissions (delivered stimuli bypass the
    bus), so the sender-channel map routes everything to ``rec``.
    """
    database = Database()
    database.add_node(node)
    for name in sorted(message_specs):
        spec = message_specs[name]
        database.add_message(Message(spec.can_id, name, spec.dlc, sender=node))
    return database


class CaplSimulatorSUL:
    """The CAPL interpreter on the simulated bus, as a membership oracle.

    *message_specs* gives the name -> (CAN id, dlc) table (a parsed
    ``.dbc``'s :meth:`~repro.candb.model.Database.message_specs`, or
    :func:`derive_message_specs` for stand-alone sources).  The input
    alphabet is ``send.<name>`` for every handled message, the output
    alphabet ``rec.<name>`` for every declared message variable -- the
    messages the program could ever transmit.
    """

    def __init__(
        self,
        source: str,
        message_specs: Dict[str, MessageSpec],
        *,
        node: str = "ECU",
        in_channel: str = "send",
        out_channel: str = "rec",
        mapping: Optional[EventMapping] = None,
    ) -> None:
        self.source = source
        self.node = node
        self.in_channel = in_channel
        self.out_channel = out_channel
        self.message_specs = dict(message_specs)
        #: the parsed source every query's fresh interpreter runs
        self.program = parse(source)
        inputs = []
        for handler in self.program.message_handlers():
            selector = handler.selector
            if selector == "*":
                # a wildcard handler reacts to every known message
                inputs.extend(sorted(self.message_specs))
                continue
            if isinstance(selector, int):
                selector = self._name_of_id(selector)
            if selector not in self.message_specs:
                raise LearnError(
                    "handled message {!r} has no message spec; supply a "
                    ".dbc or spec table that declares it".format(selector)
                )
            inputs.append(selector)
        if not inputs:
            raise LearnError(
                "the program handles no messages; nothing to learn"
            )
        outputs = []
        for decl in self.program.message_declarations():
            message_type = decl.message_type
            if isinstance(message_type, int):
                message_type = self._name_of_id(message_type)
            if message_type in self.message_specs:
                outputs.append(message_type)
        self._inputs: Tuple[str, ...] = tuple(dict.fromkeys(sorted(inputs)))
        self._outputs: Tuple[str, ...] = tuple(dict.fromkeys(sorted(outputs)))
        self.alphabet: Tuple[Event, ...] = tuple(
            Event(in_channel, (name,)) for name in self._inputs
        ) + tuple(Event(out_channel, (name,)) for name in self._outputs)
        self.mapping = mapping if mapping is not None else EventMapping(
            _specs_database(self.message_specs, node),
            channels={node: out_channel},
            unknown="fail",
        )
        #: fresh simulator instantiations (diagnostics; the learner's
        #: ``learn.sul_runs`` counter tracks actual membership executions)
        self.runs = 0

    def _name_of_id(self, can_id: int) -> str:
        for name, spec in self.message_specs.items():
            if spec.can_id == can_id:
                return name
        raise LearnError(
            "message id 0x{:X} has no message spec; supply a .dbc or "
            "spec table that declares it".format(can_id)
        )

    # -- one membership query = one simulator run ----------------------------

    def membership(self, word: Word) -> bool:
        """Is *word* a behaviour of the program?  One fresh simulator run."""
        from ..canbus import CanBus, CanFrame, Scheduler

        from ..capl import CaplNode

        self.runs += 1
        scheduler = Scheduler()
        bus = CanBus(scheduler)
        try:
            node = CaplNode(self.node, bus, self.program, self.message_specs)
            node.on_start()
            scheduler.run()
        except CaplRuntimeError as failure:
            raise LearnError(
                "the program crashed during startup: {}".format(failure)
            ) from failure
        pending: Dict[str, int] = {}
        seen = self._collect(bus, 0, pending)
        for event in word:
            if event.channel == self.in_channel:
                if sum(pending.values()):
                    return False  # responses must drain before new stimuli
                name = event.fields[0]
                if name not in self._inputs:
                    return False
                spec = self.message_specs[name]
                try:
                    node.deliver(
                        CanFrame(spec.can_id, [0] * spec.dlc, name=name)
                    )
                    scheduler.run()  # flush this activation's transmissions
                except CaplRuntimeError as failure:
                    raise LearnError(
                        "the program crashed handling {!r}: {}".format(
                            name, failure
                        )
                    ) from failure
                seen = self._collect(bus, seen, pending)
            elif event.channel == self.out_channel:
                name = event.fields[0]
                if pending.get(name, 0) <= 0:
                    return False
                pending[name] -= 1
            else:
                return False
        return True

    def _collect(self, bus, seen: int, pending: Dict[str, int]) -> int:
        """Fold new bus-log entries into the pending-response multiset.

        Observed frames go through the rv mapping layer -- the same
        .dbc-driven frame -> event bridge logged traffic uses -- so the
        learner consumes exactly what an offline monitor would.
        """
        entries = bus.log.entries
        for entry in entries[seen:]:
            frame = entry.frame
            record = LogRecord(0, frame.can_id, bytes(frame.data))
            try:
                event = self.mapping.event_of(record)
            except UnknownFrameError as failure:
                raise LearnError(
                    "the program transmitted a frame outside its message "
                    "specs: {}".format(failure)
                ) from failure
            if event is None:
                continue
            name = event.fields[0]
            pending[name] = pending.get(name, 0) + 1
        return len(entries)

    def __repr__(self) -> str:
        return "CaplSimulatorSUL(node={!r}, alphabet={})".format(
            self.node, len(self.alphabet)
        )


class LtsSUL:
    """A white-box teacher: membership by walking a compiled automaton.

    Used by the round-trip property tests -- learning an explicitly known
    automaton must reconstruct its (minimal) language acceptor.  *lts* is
    any object with the kernel's ``walk`` protocol; *alphabet* the symbols
    the learner may ask about.
    """

    def __init__(self, lts, alphabet: Sequence[Event]) -> None:
        self.lts = lts
        self.alphabet: Tuple[Event, ...] = tuple(alphabet)
        self.runs = 0

    def membership(self, word: Word) -> bool:
        self.runs += 1
        return self.lts.walk(list(word)) is not None

    def __repr__(self) -> str:
        return "LtsSUL(alphabet={})".format(len(self.alphabet))
