"""Discrete (tock) time for CSP models -- the paper's Sec. VII-B extension.

The paper names two routes to timed analysis and calls the second "more
practical": "simply extending the alphabet of our models to include a
specific *tock* event".  This module provides that route:

* :data:`TOCK` -- the distinguished time-passing event,
* :func:`wait` -- delay for n tocks,
* :func:`timed_run` -- a RUN process in which time may also pass,
* :func:`timeout_process` -- the classic tock-CSP timeout operator,
* :func:`periodic` -- an event exactly every n tocks,
* :func:`deadline_spec` -- "response within n tocks of trigger",
* :func:`timer_to_tock_monitor` -- a *timed* monitor for the extractor's
  ``setTimer``/``timeout``/``cancelTimer`` events, so extracted models can
  be analysed with real durations,
* :func:`tockify_lts` -- make time passable in every state of a compiled
  LTS (maximal-progress-free idling).
"""

from __future__ import annotations

from typing import Optional

from .events import Alphabet, AlphabetTable, Event
from .lts import LTS
from .process import (
    Environment,
    ExternalChoice,
    Prefix,
    Process,
    ProcessRef,
    external_choice,
)

#: The distinguished time event.  One tock = one tick of the model's clock.
TOCK = Event("tock")

_counter = [0]


def _fresh(prefix: str) -> str:
    _counter[0] += 1
    return "{}_{}".format(prefix, _counter[0])


def wait(tocks: int, then: Process) -> Process:
    """``WAIT(n); P`` -- let exactly *tocks* time units pass, then behave as P."""
    if tocks < 0:
        raise ValueError("cannot wait a negative number of tocks")
    process = then
    for _ in range(tocks):
        process = Prefix(TOCK, process)
    return process


def timed_run(
    alphabet: Alphabet, env: Environment, name: Optional[str] = None
) -> ProcessRef:
    """``RUN(A ∪ {tock})`` -- anything may happen, and time may always pass."""
    label = name or _fresh("TRUN")
    branches = [Prefix(event, ProcessRef(label)) for event in alphabet]
    branches.append(Prefix(TOCK, ProcessRef(label)))
    env.bind(label, external_choice(*branches))
    return ProcessRef(label)


def timeout_process(
    process: Process,
    tocks: int,
    fallback: Process,
    env: Environment,
    name: Optional[str] = None,
) -> ProcessRef:
    """Tock-CSP timeout: offer *process* for *tocks* time units, then *fallback*.

    ``T(k) = process [] tock -> T(k-1)``; ``T(0) = fallback``.  *process*
    must not itself perform tock (it is the untimed alternative being
    offered).
    """
    if tocks < 1:
        raise ValueError("timeout needs at least one tock")
    label = name or _fresh("TIMEOUT")

    def state(remaining: int) -> str:
        return "{}_{}".format(label, remaining)

    env.bind(state(0), fallback)
    for remaining in range(1, tocks + 1):
        env.bind(
            state(remaining),
            ExternalChoice(process, Prefix(TOCK, ProcessRef(state(remaining - 1)))),
        )
    env.bind(label, ProcessRef(state(tocks)))
    return ProcessRef(label)


def periodic(
    event: Event, period: int, env: Environment, name: Optional[str] = None
) -> ProcessRef:
    """*event* exactly every *period* tocks, forever (a cyclic task)."""
    if period < 1:
        raise ValueError("period must be at least one tock")
    label = name or _fresh("PERIODIC")
    env.bind(label, Prefix(event, wait(period, ProcessRef(label))))
    return ProcessRef(label)


def deadline_spec(
    trigger: Event,
    response: Event,
    deadline: int,
    alphabet: Alphabet,
    env: Environment,
    name: Optional[str] = None,
) -> ProcessRef:
    """Specification: after *trigger*, *response* occurs within *deadline* tocks.

    Outside a trigger window everything (and time) is free.  Inside the
    window, other events remain free but at most *deadline* tocks may pass
    before the response; the spec refuses the (deadline+1)-th tock, so any
    implementation that lets more time pass fails the trace refinement.
    """
    if deadline < 0:
        raise ValueError("deadline must be non-negative")
    label = name or _fresh("DEADLINE")
    others = (alphabet - Alphabet.of(trigger)) - Alphabet.of(response)

    def waiting(budget: int) -> str:
        return "{}_W{}".format(label, budget)

    idle_branches = [Prefix(event, ProcessRef(label)) for event in others]
    idle_branches.append(Prefix(TOCK, ProcessRef(label)))
    idle_branches.append(Prefix(response, ProcessRef(label)))  # unsolicited ok
    idle_branches.append(Prefix(trigger, ProcessRef(waiting(deadline))))
    env.bind(label, external_choice(*idle_branches))

    for budget in range(deadline + 1):
        branches = [Prefix(event, ProcessRef(waiting(budget))) for event in others]
        branches.append(Prefix(response, ProcessRef(label)))
        if budget > 0:
            branches.append(Prefix(TOCK, ProcessRef(waiting(budget - 1))))
        env.bind(waiting(budget), external_choice(*branches))
    return ProcessRef(label)


def timer_to_tock_monitor(
    timer_name: str,
    duration_tocks: int,
    env: Environment,
    timer_channel: str = "timeout",
    set_channel: str = "setTimer",
    cancel_channel: str = "cancelTimer",
    name: Optional[str] = None,
) -> ProcessRef:
    """A timed monitor for one extracted timer.

    The model extractor surfaces CAPL timers as ``setTimer.t`` /
    ``timeout.t`` / ``cancelTimer.t`` events; this monitor adds real time:
    once set, the timer fires *exactly* after ``duration_tocks`` tocks
    (unless cancelled or re-armed).  Compose it (synchronising on the timer
    events and tock) with the extracted node model to analyse deadlines.
    """
    if duration_tocks < 1:
        raise ValueError("timer duration must be at least one tock")
    label = name or _fresh("TTIMER_{}".format(timer_name))
    set_event = Event(set_channel, (timer_name,))
    fire_event = Event(timer_channel, (timer_name,))
    cancel_event = Event(cancel_channel, (timer_name,))

    def armed(remaining: int) -> str:
        return "{}_A{}".format(label, remaining)

    # idle: time passes freely; setting arms the countdown
    env.bind(
        label,
        external_choice(
            Prefix(TOCK, ProcessRef(label)),
            Prefix(set_event, ProcessRef(armed(duration_tocks))),
            Prefix(cancel_event, ProcessRef(label)),
        ),
    )
    for remaining in range(duration_tocks + 1):
        branches = [
            Prefix(cancel_event, ProcessRef(label)),
            Prefix(set_event, ProcessRef(armed(duration_tocks))),
        ]
        if remaining > 0:
            branches.append(Prefix(TOCK, ProcessRef(armed(remaining - 1))))
        else:
            branches.append(Prefix(fire_event, ProcessRef(label)))
        env.bind(armed(remaining), external_choice(*branches))
    return ProcessRef(label)


def tockify_lts(lts: LTS) -> LTS:
    """Add a tock self-loop to every state that does not already offer tock.

    The blunt 'time may always pass' conversion of an untimed LTS, useful
    for composing untimed components with timed specifications.
    """
    table = AlphabetTable()
    edges = []
    for state in lts.iter_states():
        out = []
        has_tock = False
        for event, target in lts.successors(state):
            out.append((table.intern(event), target))
            if event == TOCK:
                has_tock = True
        if not has_tock:
            out.append((table.intern(TOCK), state))
        edges.append(out)
    return LTS.from_edges(table, lts.initial, edges, lts.terms)
