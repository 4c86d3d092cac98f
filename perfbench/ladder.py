"""The seeded CSPm ladder: OTA update sessions over N ECUs, plus one attacked
rung.

Every rung uses the message types of the paper's Table II.  ``sessions-N``
interleaves N independent VMG/ECU sessions (4^N reachable states); one ECU
answers a diagnose request with an update report (the paper's SP02 flaw),
so SP02 fails on that ECU and holds on every other.  ``intruder-8`` runs
the update flow under the ``repro.security`` Dolev-Yao intruder with a
universe of eight payloads (a 256-state knowledge lattice): the intruder
cannot forge an update it never overheard, but it can replay one.

Each rung mixes on-the-fly ``[T=``/``[F=`` checks with eager ``[FD=`` and
``:[deadlock free]`` checks, which use the state-space layers differently.
The seed picks the flawed ECU, the ECU SP02 is checked on, and the ECU the
attacked rung updates.  Rung sizes do not depend on the seed, so every
seed costs the same, and every choice has its results pinned in
``pins.json``.
"""

from __future__ import annotations

import random
from typing import Iterator, List, NamedTuple

from repro.csp.events import Channel
from repro.csp.process import Environment
from repro.cspm.emitter import emit_process
from repro.security import IntruderBuilder

#: the message types of the paper's Table II
MESSAGES = ("reqSw", "rptSw", "reqApp", "rptUpd")

#: ECU counts of the session rungs; the largest full rung has 4096 states.
#: Seven ECUs (16384 states) cost 5.5 CPU seconds cold, too long for a run
#: to hold the many units its median needs on a noisy host.
SESSION_SIZES = {"full": (2, 3, 5, 6), "tiny": (2, 3)}

#: the two ECUs of the attacked rung
ATTACKED_ECUS = ("A", "B")

SESSION_SCRIPT = """\
-- OTA update sessions between the VMG and {count} ECUs, interleaved.
datatype ecus = {ecus}
datatype msgs = reqSw | rptSw | reqApp | rptUpd
channel send, rec : ecus.msgs

VMG(e) = send.e!reqSw -> rec.e?r -> send.e!reqApp -> rec.e?u -> VMG(e)
ECU(e) = send.e?m -> (if m == reqSw then rec.e!rptSw -> ECU(e) else rec.e!rptUpd -> ECU(e))
-- the flawed ECU reports an update result to a diagnose request
FLAWED(e) = send.e?m -> rec.e!rptUpd -> FLAWED(e)
SESSION(e) = VMG(e) [| {{| send.e, rec.e |}} |] ECU(e)
BROKEN(e) = VMG(e) [| {{| send.e, rec.e |}} |] FLAWED(e)
SYSTEM = {system}

SP02(e) = send.e!reqSw -> rec.e!rptSw -> send.e!reqApp -> rec.e!rptUpd -> SP02(e)
ANY = (|~| e : ecus @ |~| m : msgs @ send.e!m -> ANY) |~| (|~| e : ecus @ |~| m : msgs @ rec.e!m -> ANY)

assert SP02({checked}) [T= SYSTEM \\ diff(Events, {{| send.{checked}, rec.{checked} |}})
assert SP02({flawed}) [F= SYSTEM \\ diff(Events, {{| send.{flawed}, rec.{flawed} |}})
assert ANY [FD= SYSTEM
assert SYSTEM :[deadlock free]
"""

INTRUDER_SCRIPT = """\
-- The update flow under a Dolev-Yao intruder (paper Sec. IV-E): the VMG
-- diagnoses both ECUs and updates {updated}; the intruder overhears legit
-- and injects on fake whatever it has learned.
datatype ecus = A | B
datatype payloads = {payloads}
channel legit, fake : payloads
channel apply : ecus

VMG = legit!reqSw{other} -> legit!reqSw{updated} -> legit!reqApp{updated} -> STOP
ECUA = legit?m:{{reqSwA, rptSwA, reqAppA, rptUpdA}} -> HANDLEA(m) [] fake?m:{{reqSwA, rptSwA, reqAppA, rptUpdA}} -> HANDLEA(m)
HANDLEA(m) = if m == reqAppA then apply!A -> ECUA else ECUA
ECUB = legit?m:{{reqSwB, rptSwB, reqAppB, rptUpdB}} -> HANDLEB(m) [] fake?m:{{reqSwB, rptSwB, reqAppB, rptUpdB}} -> HANDLEB(m)
HANDLEB(m) = if m == reqAppB then apply!B -> ECUB else ECUB
HONEST = VMG [| {{| legit |}} |] (ECUA ||| ECUB)

{intruder}

ATTACKED = HONEST [| {{| legit, fake |}} |] {entry}
ONCE = apply!{updated} -> STOP
ANY = (|~| p : payloads @ legit!p -> ANY) |~| (|~| p : payloads @ fake!p -> ANY) |~| (|~| e : ecus @ apply!e -> ANY)

assert STOP [T= ATTACKED \\ diff(Events, {{apply.{other}}})
assert ONCE [F= ATTACKED \\ diff(Events, {{apply.{updated}}})
assert ANY [FD= ATTACKED
assert ATTACKED :[deadlock free]
"""


class Rung(NamedTuple):
    """One generated script; *key* names the rung and the seed's choices."""

    name: str
    key: str
    script: str


def session_rung(count: int, flawed: int, checked: int) -> Rung:
    names = ["E{}".format(index) for index in range(count)]
    system = " ||| ".join(
        "{}({})".format("BROKEN" if index == flawed else "SESSION", name)
        for index, name in enumerate(names)
    )
    script = SESSION_SCRIPT.format(
        count=count,
        ecus=" | ".join(names),
        system=system,
        checked=names[checked],
        flawed=names[flawed],
    )
    name = "sessions-{}".format(count)
    return Rung(name, "{}/flawed-{}/sp02-{}".format(name, flawed, checked), script)


def intruder_rung(target: int) -> Rung:
    updated = ATTACKED_ECUS[target]
    other = ATTACKED_ECUS[1 - target]
    payloads = [message + ecu for ecu in ATTACKED_ECUS for message in MESSAGES]
    legit = Channel("legit", payloads)
    fake = Channel("fake", payloads)
    env = Environment()
    entry = IntruderBuilder([legit], [fake], payloads).build(env)
    channels = {"legit": legit, "fake": fake}
    equations = "\n".join(
        "{} = {}".format(name, emit_process(env.resolve(name), channels))
        for name in env.names()
    )
    script = INTRUDER_SCRIPT.format(
        payloads=" | ".join(payloads),
        updated=updated,
        other=other,
        intruder=equations,
        entry=entry.name,
    )
    name = "intruder-{}".format(len(payloads))
    return Rung(name, "{}/updates-{}".format(name, updated), script)


def variants(size: str) -> Iterator[Rung]:
    """Every rung a seed can produce at *size* (what ``pins.json`` covers)."""
    for count in SESSION_SIZES[size]:
        for flawed in range(count):
            for checked in range(count):
                if checked != flawed:
                    yield session_rung(count, flawed, checked)
    for target in range(len(ATTACKED_ECUS)):
        yield intruder_rung(target)


def ladder(seed: int, size: str) -> List[Rung]:
    """The ladder for *seed*: every session rung, then the attacked rung."""
    rng = random.Random(seed)
    rungs = []
    for count in SESSION_SIZES[size]:
        flawed = rng.randrange(count)
        checked = (flawed + rng.randrange(1, count)) % count
        rungs.append(session_rung(count, flawed, checked))
    rungs.append(intruder_rung(rng.randrange(len(ATTACKED_ECUS))))
    return rungs
