"""Fixtures for the server suite: factory-built, always-torn-down daemons.

Every test builds its servers through ``make_server`` so a failing assertion
can never leak a scheduler thread or a warm worker process into the rest of
the session -- the factory closes (cancelling, not draining) whatever the
test left running.
"""

import socket
import threading
import time

import pytest

from repro.server import VerificationServer


@pytest.fixture
def make_server():
    """Build started servers; close every one at teardown, pass or fail."""
    servers = []

    def make(**options):
        server = VerificationServer(**options).start()
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close(drain=False)


def wait_until(predicate, timeout=10.0, tick=0.01):
    """Poll *predicate* until it holds (or fail the test after *timeout*)."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return
        time.sleep(tick)
    raise AssertionError("condition not reached within {}s".format(timeout))


def http_reply(body, status="200 OK"):
    """One complete HTTP/1.1 response around *body* (bytes)."""
    head = "HTTP/1.1 {}\r\nContent-Type: application/json\r\n" \
        "Content-Length: {}\r\n\r\n".format(status, len(body))
    return head.encode("ascii") + body


class FakeDaemon:
    """A loopback listener that answers with canned bytes, not a daemon.

    Connection *i* reads one request, is sent ``replies[i]`` verbatim (the
    last entry repeats; ``b""`` answers nothing) and is closed.  It feeds a
    client the replies a real ``cspserve`` never sends.
    """

    def __init__(self, replies):
        self.replies = list(replies)
        self.accepted = 0
        self._stop = threading.Event()
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen()
        self._listener.settimeout(0.05)
        self.url = "http://127.0.0.1:{}".format(self._listener.getsockname()[1])
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            reply = self.replies[min(self.accepted, len(self.replies) - 1)]
            self.accepted += 1
            with connection:
                connection.settimeout(10)
                _read_request(connection)
                connection.sendall(reply)

    def close(self):
        self._stop.set()
        self._thread.join(10)
        self._listener.close()


def _read_request(connection):
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = connection.recv(65536)
        if not chunk:
            return
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        chunk = connection.recv(65536)
        if not chunk:
            return
        body += chunk


@pytest.fixture
def fake_daemon():
    """Build :class:`FakeDaemon` listeners; every one is closed at teardown."""
    daemons = []

    def make(replies):
        daemons.append(FakeDaemon(replies))
        return daemons[-1]

    yield make
    for daemon in daemons:
        daemon.close()
