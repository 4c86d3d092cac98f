"""The CSP process AST.

Implements exactly the syntax of the paper (Sec. IV-A2):

    P ::= Stop | e -> P | P1 [] P2 | P1 ; P2 | P1 [|A|] P2 | P1 ||| P2

plus the standard extensions the paper's toolchain relies on: ``Skip``
(successful termination, needed for sequential composition to be useful),
internal choice (Table I lists it), hiding (used in the paper's trace
semantics), renaming, and named recursion (the paper's ``SP_02`` and the
generated ECU models are recursive processes).

Processes are immutable and hash structurally so that the LTS builder can
deduplicate states.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .events import Alphabet, Channel, Event, Value


def _canonical(item: object) -> str:
    """A canonical string for one `_key()` component (Processes excluded)."""
    if isinstance(item, Process):
        return "#" + item.fingerprint()
    if isinstance(item, Event):
        return "e" + repr((item.channel, item.fields))
    if isinstance(item, Alphabet):
        return "A{" + ",".join(
            sorted(repr((e.channel, e.fields)) for e in item.events)
        ) + "}"
    if isinstance(item, tuple):
        return "(" + ",".join(_canonical(part) for part in item) + ")"
    return type(item).__name__ + ":" + repr(item)


class _InternedMeta(type):
    """Hash-consing for process terms: equal terms become the same object.

    Constructing a term structurally equal to a live one returns the existing
    object.  Construction pays one table lookup; in exchange, the state memos
    of the compiler and the on-the-fly refinement expander dedup fresh terms
    by pointer comparison instead of walking whole subtrees.  Entries are
    dropped when the canonical term is garbage collected.
    """

    _table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __call__(cls, *args, **kwargs):
        term = super().__call__(*args, **kwargs)
        # key by (class, structural key), not by the term itself: a
        # WeakValueDictionary holds keys strongly, so a term keyed by itself
        # would never be collected
        key = (cls, term._key())
        canonical = _InternedMeta._table.get(key)
        if canonical is not None:
            return canonical
        _InternedMeta._table[key] = term
        return term


#: the reference set of every term that mentions no name, shared (an empty
#: frozenset is a new object each time it is built)
_NO_REFS: FrozenSet[str] = frozenset()


class Process(metaclass=_InternedMeta):
    """Base class for all process terms."""

    __slots__ = ("_hash", "_fingerprint", "_refs", "__weakref__")

    # -- combinator sugar ---------------------------------------------------

    def then(self, other: "Process") -> "Process":
        """Sequential composition ``self ; other``."""
        return SeqComp(self, other)

    def choice(self, other: "Process") -> "Process":
        """External choice ``self [] other``."""
        return ExternalChoice(self, other)

    def internal_choice(self, other: "Process") -> "Process":
        """Internal (nondeterministic) choice ``self |~| other``."""
        return InternalChoice(self, other)

    def par(self, other: "Process", sync: Alphabet) -> "Process":
        """Generalised parallel ``self [| sync |] other``."""
        return GenParallel(self, other, sync)

    def interleave(self, other: "Process") -> "Process":
        """Interleaving ``self ||| other``."""
        return Interleave(self, other)

    def hide(self, hidden: Alphabet) -> "Process":
        """Hiding ``self \\ hidden``."""
        return Hiding(self, hidden)

    def rename(self, mapping: Mapping[Event, Event]) -> "Process":
        """Relational renaming ``self [[ a <- b ]]``."""
        return Renaming(self, mapping)

    # -- structural equality -------------------------------------------------

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if self is other:
            # shared subterms are common (SOS successors reuse the original
            # branch objects), so the identity fast path turns most deep
            # structural comparisons into pointer checks
            return True
        if not isinstance(other, Process):
            return NotImplemented
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((type(self).__name__, self._key()))
            object.__setattr__(self, "_hash", value)
            return value

    def fingerprint(self) -> str:
        """A structural fingerprint (hex digest) of this term.

        Equal terms have equal fingerprints, and the digest depends only on
        the term's structure -- not on object identity or interpreter hash
        randomisation -- so it can key compilation caches across checks.
        Computed iteratively (deep prefix chains exceed the recursion limit)
        and cached on the node.
        """
        try:
            return self._fingerprint
        except AttributeError:
            pass
        stack = [self]
        while stack:
            term = stack[-1]
            if getattr(term, "_fingerprint", None) is not None:
                stack.pop()
                continue
            pending = [
                item
                for item in term._key()
                if isinstance(item, Process)
                and getattr(item, "_fingerprint", None) is None
            ]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            digest = hashlib.sha256(type(term).__name__.encode("utf-8"))
            for item in term._key():
                digest.update(b"\x1f")
                digest.update(_canonical(item).encode("utf-8"))
            object.__setattr__(term, "_fingerprint", digest.hexdigest())
        return self._fingerprint

    def refs(self) -> FrozenSet[str]:
        """The names of the :class:`ProcessRef` nodes inside this term.

        References are not followed, so the set depends only on the term
        and is cached on the node, computed bottom-up and iteratively like
        :meth:`fingerprint`.  When one child's set already holds every name
        (a prefix always; a choice whose branches name the same equations),
        the term shares that set object instead of building an equal one.
        """
        try:
            return self._refs
        except AttributeError:
            pass
        stack = [self]
        while stack:
            term = stack[-1]
            if getattr(term, "_refs", None) is not None:
                stack.pop()
                continue
            children = [item for item in term._key() if isinstance(item, Process)]
            pending = [
                child
                for child in children
                if getattr(child, "_refs", None) is None
            ]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if isinstance(term, ProcessRef):
                names = frozenset((term.name,))
            else:
                names = _NO_REFS
                for child in children:
                    if not child._refs <= names:
                        names = (
                            child._refs
                            if names <= child._refs
                            else names | child._refs
                        )
            object.__setattr__(term, "_refs", names)
        return self._refs


class Stop(Process):
    """The deadlocked process: engages in no event."""

    __slots__ = ()

    def _key(self) -> tuple:
        return ()

    def __repr__(self) -> str:
        return "STOP"


class Skip(Process):
    """Successful termination: performs tick then becomes Omega."""

    __slots__ = ()

    def _key(self) -> tuple:
        return ()

    def __repr__(self) -> str:
        return "SKIP"


class Omega(Process):
    """The state after termination: no transitions at all.

    Internal -- produced by the operational semantics when ``Skip`` performs
    its tick; users never write it directly.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return ()

    def __repr__(self) -> str:
        return "Ω"


class Prefix(Process):
    """The prefix ``e -> P``: willing only to do *e*, then behave as *P*."""

    __slots__ = ("event", "continuation")

    def __init__(self, event: Event, continuation: Process) -> None:
        if event.is_tau() or event.is_tick():
            raise ValueError("cannot prefix with a reserved event")
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "continuation", continuation)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Prefix is immutable")

    def _key(self) -> tuple:
        return (self.event, self.continuation)

    def __repr__(self) -> str:
        return "{} -> {!r}".format(self.event, self.continuation)


class ExternalChoice(Process):
    """``P1 [] P2``: the environment resolves the choice by the first visible event."""

    __slots__ = ("left", "right")

    def __init__(self, left: Process, right: Process) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExternalChoice is immutable")

    def _key(self) -> tuple:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return "({!r} [] {!r})".format(self.left, self.right)


class InternalChoice(Process):
    """``P1 |~| P2``: the process itself nondeterministically picks a branch."""

    __slots__ = ("left", "right")

    def __init__(self, left: Process, right: Process) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("InternalChoice is immutable")

    def _key(self) -> tuple:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return "({!r} |~| {!r})".format(self.left, self.right)


class SeqComp(Process):
    """``P1 ; P2``: behave as P1 until it terminates, then as P2."""

    __slots__ = ("first", "second")

    def __init__(self, first: Process, second: Process) -> None:
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SeqComp is immutable")

    def _key(self) -> tuple:
        return (self.first, self.second)

    def __repr__(self) -> str:
        return "({!r} ; {!r})".format(self.first, self.second)


class GenParallel(Process):
    """``P1 [|A|] P2``: synchronise on events in A (and tick), interleave the rest."""

    __slots__ = ("left", "right", "sync")

    def __init__(self, left: Process, right: Process, sync: Alphabet) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "sync", sync)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GenParallel is immutable")

    def _key(self) -> tuple:
        return (self.left, self.right, self.sync)

    def __repr__(self) -> str:
        return "({!r} [|{!r}|] {!r})".format(self.left, self.sync, self.right)


class Interleave(Process):
    """``P1 ||| P2``: fully independent execution, synchronising only on tick."""

    __slots__ = ("left", "right")

    def __init__(self, left: Process, right: Process) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Interleave is immutable")

    def _key(self) -> tuple:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return "({!r} ||| {!r})".format(self.left, self.right)


class Interrupt(Process):
    """``P /\\ Q``: behave as P, but Q may take over at any moment.

    The standard CSP interrupt operator -- the natural model of an attacker
    (or a higher-priority task) seizing control of a component.  P's
    successful termination ends the whole process; any visible event of Q
    resolves the interrupt in Q's favour.
    """

    __slots__ = ("primary", "handler")

    def __init__(self, primary: Process, handler: Process) -> None:
        object.__setattr__(self, "primary", primary)
        object.__setattr__(self, "handler", handler)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Interrupt is immutable")

    def _key(self) -> tuple:
        return (self.primary, self.handler)

    def __repr__(self) -> str:
        return "({!r} /\\ {!r})".format(self.primary, self.handler)


class Hiding(Process):
    """``P \\ A``: events in A become internal (tau)."""

    __slots__ = ("process", "hidden")

    def __init__(self, process: Process, hidden: Alphabet) -> None:
        object.__setattr__(self, "process", process)
        object.__setattr__(self, "hidden", hidden)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Hiding is immutable")

    def _key(self) -> tuple:
        return (self.process, self.hidden)

    def __repr__(self) -> str:
        return "({!r} \\ {!r})".format(self.process, self.hidden)


class Renaming(Process):
    """``P [[ a <- b ]]``: relabel the visible events of P."""

    __slots__ = ("process", "mapping")

    def __init__(self, process: Process, mapping: Mapping[Event, Event]) -> None:
        frozen = tuple(sorted(mapping.items(), key=lambda kv: (str(kv[0]), str(kv[1]))))
        for source, target in frozen:
            if not source.is_visible() or not target.is_visible():
                raise ValueError("renaming may only relabel visible events")
        object.__setattr__(self, "process", process)
        object.__setattr__(self, "mapping", frozen)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Renaming is immutable")

    def rename_event(self, event: Event) -> Event:
        for source, target in self.mapping:
            if source == event:
                return target
        return event

    def _key(self) -> tuple:
        return (self.process, self.mapping)

    def __repr__(self) -> str:
        pairs = ", ".join("{} <- {}".format(t, s) for s, t in self.mapping)
        return "({!r}[[{}]])".format(self.process, pairs)


class ProcessRef(Process):
    """A named reference, resolved against an :class:`Environment`.

    Recursion in CSP is written with named equations, e.g. the paper's

        SP02 = send.reqSw -> rec.rptSw -> SP02
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("process reference name must be non-empty")
        object.__setattr__(self, "name", name)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ProcessRef is immutable")

    def _key(self) -> tuple:
        return (self.name,)

    def __repr__(self) -> str:
        return self.name


class CompiledProcess(Process):
    """A state of an already-compiled (and usually compressed) automaton.

    The compilation plan replaces component subterms of a composition with
    these leaves, so the SOS explores the *minimised* component state
    machines instead of re-deriving the originals -- compress-before-
    compose.  ``automaton`` is any object with a stable ``token`` string
    (identifying the compiled artefact) and ``transitions_from(state)``
    returning ``[(Event, Process)]``; the concrete handle lives in
    :mod:`repro.engine.plan`, keeping this module free of engine imports.
    """

    __slots__ = ("automaton", "state")

    def __init__(self, automaton: object, state: int) -> None:
        object.__setattr__(self, "automaton", automaton)
        object.__setattr__(self, "state", state)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CompiledProcess is immutable")

    def _key(self) -> tuple:
        return (self.automaton.token, self.state)

    def __repr__(self) -> str:
        label = getattr(self.automaton, "label", None) or "compiled"
        return "{}@{}".format(label, self.state)


class Environment:
    """A set of named process equations: ``name = body``.

    Looking up an unbound name raises :class:`KeyError` with the available
    names, which keeps diagnostics readable when generated models reference a
    missing definition.
    """

    def __init__(self, bindings: Optional[Mapping[str, Process]] = None) -> None:
        self._bindings: Dict[str, Process] = dict(bindings or {})

    def bind(self, name: str, body: Process) -> "Environment":
        """Add (or replace) a definition; returns self for chaining."""
        self._bindings[name] = body
        return self

    def resolve(self, name: str) -> Process:
        try:
            return self._bindings[name]
        except KeyError:
            raise KeyError(
                "undefined process {!r}; defined: {}".format(
                    name, sorted(self._bindings) or "(none)"
                )
            ) from None

    def names(self) -> Sequence[str]:
        return sorted(self._bindings)

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def copy(self) -> "Environment":
        return Environment(self._bindings)

    def merged(self, other: "Environment") -> "Environment":
        """A new environment with *other*'s bindings layered on top."""
        merged = dict(self._bindings)
        merged.update(other._bindings)
        return Environment(merged)

    def __repr__(self) -> str:
        return "Environment({})".format(", ".join(self.names()))


#: Shared singletons -- Stop/Skip/Omega carry no data.
STOP = Stop()
SKIP = Skip()
OMEGA = Omega()


def prefix(event: Event, continuation: Process) -> Prefix:
    """``event -> continuation``."""
    return Prefix(event, continuation)


def sequence(*steps: Event, then: Process = STOP) -> Process:
    """Chain events into nested prefixes: ``sequence(a, b, then=P)`` is ``a -> b -> P``."""
    result = then
    for step in reversed(steps):
        result = Prefix(step, result)
    return result


def external_choice(*processes: Process) -> Process:
    """N-ary external choice, right-associated; empty choice is STOP."""
    if not processes:
        return STOP
    result = processes[-1]
    for process in reversed(processes[:-1]):
        result = ExternalChoice(process, result)
    return result


def internal_choice(*processes: Process) -> Process:
    """N-ary internal choice, right-associated."""
    if not processes:
        raise ValueError("internal choice needs at least one branch")
    result = processes[-1]
    for process in reversed(processes[:-1]):
        result = InternalChoice(process, result)
    return result


def interleave_all(*processes: Process) -> Process:
    """N-ary interleaving; empty interleaving is SKIP (unit of |||)."""
    if not processes:
        return SKIP
    result = processes[-1]
    for process in reversed(processes[:-1]):
        result = Interleave(process, result)
    return result


def input_choice(
    channel: Channel,
    continuation: Callable[..., Process],
    where: Optional[Callable[..., bool]] = None,
) -> Process:
    """The CSPm input prefix ``channel?x -> continuation(x)``.

    Expands to an external choice over the channel's finite domain, which is
    exactly FDR's treatment of input prefixes.  *where* optionally filters the
    accepted field tuples (CSPm's ``channel?x:Set`` restriction).
    """
    branches = []
    for event in channel.events():
        if where is not None and not where(*event.fields):
            continue
        branches.append(Prefix(event, continuation(*event.fields)))
    if not branches:
        return STOP
    return external_choice(*branches)


def ref(name: str) -> ProcessRef:
    """Reference a named process equation."""
    return ProcessRef(name)
