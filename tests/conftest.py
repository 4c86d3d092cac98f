"""Shared fixtures for the test suite.

Randomized tests draw every input from a generator seeded through the
session-scoped ``repro_seed`` fixture.  By default each pytest session picks
a fresh seed (printed in the report header); set the ``REPRO_SEED``
environment variable to replay a previous session bit-for-bit:

    REPRO_SEED=123456789 python -m pytest tests/csp/test_laws_property.py

Failure messages from :func:`repro.quickcheck.testing.for_all` embed the
session seed and the shrunk input, so any red randomized test is
reproducible from its output alone.
"""

import contextlib
import os
import random
import sys

import pytest

from repro.csp import Alphabet, Channel, Environment, event


def _session_seed() -> int:
    value = os.environ.get("REPRO_SEED")
    if value is not None:
        try:
            return int(value)
        except ValueError:
            raise pytest.UsageError(
                "REPRO_SEED must be an integer, got {!r}".format(value)
            )
    return random.SystemRandom().randrange(2**32)


#: One seed per pytest session: every randomized test derives its own RNG
#: from (seed, test name, case index), so tests stay order-independent.
SESSION_SEED = _session_seed()


@pytest.fixture(scope="session")
def repro_seed():
    """The session seed for randomized tests (override with REPRO_SEED)."""
    return SESSION_SEED


def pytest_report_header(config):
    return (
        "randomized tests: session seed {} "
        "(replay with REPRO_SEED={})".format(SESSION_SEED, SESSION_SEED)
    )


@pytest.fixture
def abc_events():
    """Three plain events."""
    return event("a"), event("b"), event("c")


@pytest.fixture
def msgs_channels():
    """The paper's Sec. V-B channels: ``channel send, rec : msgs``."""
    msgs = ["reqSw", "rptSw", "reqApp", "rptUpd"]
    return Channel("send", msgs), Channel("rec", msgs)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def msgs_alphabet(msgs_channels):
    send, rec = msgs_channels
    return Alphabet.from_channels(send, rec)


_PREFIX_HEAD = '{"op": "prefix", "event": {"channel": "a", "fields": []}, "next": '


@pytest.fixture
def nested_term_json():
    """JSON text of ``a -> a -> ... -> STOP`` nested *depth* prefixes deep.

    The corpus encoding of a process term, for nesting-bomb tests.  Built
    as text because ``json.dumps`` recurses and cannot encode a bomb.
    """
    return lambda depth: _PREFIX_HEAD * depth + '{"op": "stop"}' + "}" * depth


@pytest.fixture
def nested_term_doc():
    """The same encoding as :func:`nested_term_json`, as a decoded document.

    Built by iteration, so it reaches depths ``json.loads`` would refuse.
    """

    def doc(depth):
        term = {"op": "stop"}
        for _ in range(depth):
            term = {"op": "prefix", "event": {"channel": "a", "fields": []}, "next": term}
        return term

    return doc


@pytest.fixture
def deep_property_spec():
    """A ``deadlock free`` check on a term *depth* prefixes deep.

    Deep enough (700) to exhaust the recursion limit when pickled as a
    nested document, shallow enough to encode and decode.
    """
    from repro.batch import CheckSpec
    from repro.csp.process import Prefix, Stop

    def build(depth, check_id="deep"):
        term = Stop()
        for _ in range(depth):
            term = Prefix(event("a"), term)
        return CheckSpec.property_check(term, "deadlock free", check_id=check_id)

    return build


#: ``P`` recurses through hiding: every unfolding nests its term one level
#: deeper, until expanding it runs out of interpreter stack
RUNAWAY_HIDING_SCRIPT = """channel a, b
P = (a -> b -> P) \\ {a, b}
assert P :[divergence free]
assert STOP [T= P
"""


@pytest.fixture
def shallow_stack():
    """A context manager allowing *headroom* frames more than the caller's.

    A term that nests deeper on every step costs time quadratic in the
    depth at which its expansion runs out of stack, seconds at the default
    limit.  The error reported for it must not depend on that depth, so
    tests run it with little stack to spare.  Pool workers forked inside
    the block inherit the limit.
    """

    @contextlib.contextmanager
    def lowered(headroom=250):
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + headroom)
        try:
            yield
        finally:
            sys.setrecursionlimit(old)

    return lowered


@pytest.fixture
def chunk_by_share(monkeypatch):
    """Size warm-worker chunks by the queue alone; returns the chunk cap.

    A chunk normally fills a few milliseconds at the recent mean execution
    time, so one slow check (the blocker a test needs to line work up
    behind) shrinks the next chunks to one execution.  With the slice
    unbounded, a worker that frees up takes its fair share of the queue,
    up to the cap, as soon as one execution time has been measured.
    """
    from repro.server import core

    monkeypatch.setattr(core, "_CHUNK_SLICE_MS", 1e9)
    return core._CHUNK_CAP
