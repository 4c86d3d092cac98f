"""The cspserve command line: responses on stdout, diagnostics on stderr.

Pins the stream contract the other console scripts honour (machine output
never mixes with diagnostics), the ``--stats`` / ``--profile`` /
``--trace-out`` passthrough, the usage-error exits, and -- through one real
subprocess -- the HTTP banner and the graceful ``SIGTERM`` drain that the
CI smoke job scrapes.
"""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.batch import CheckSpec, dump_manifest
from repro.batch.cli import main as cspbatch_main
from repro.cli_common import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    parse_endpoint,
)
from repro.csp.events import Event
from repro.csp.process import Prefix, Stop
from repro.obs.schema import validate_file
from repro.rv.cli import main as csprv_main
from repro.server.cli import main as cspserve_main
from repro.server.client import ServerClient
from repro.server.http import HttpFrontend
from repro.server.protocol import check_request

from .conftest import http_reply, wait_until

A, B, C = Event("a"), Event("b"), Event("c")


def selftest(op, check_id, **options):
    return CheckSpec.selftest(op, check_id=check_id, **options).to_doc()


def refinement_doc(check_id="ref"):
    good = Prefix(A, Prefix(B, Stop()))
    return CheckSpec.refinement(good, good, "T", check_id=check_id).to_doc()


def run_stdio(monkeypatch, requests, argv=()):
    text = "".join(json.dumps(doc) + "\n" for doc in requests)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return cspserve_main(["--stdio", *argv])


class TestStdioContract:
    def test_stdout_carries_nothing_but_responses(self, monkeypatch, capsys):
        requests = [
            {"op": "ping", "id": "p"},
            check_request(selftest("pass", "c1")),
            {"op": "stats", "id": "s"},
        ]
        assert run_stdio(monkeypatch, requests) == EXIT_OK
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 3
        for line in lines:
            doc = json.loads(line)
            assert doc["protocol"] == 1
            assert doc["status"] == "ok"
        assert "cspserve" not in captured.out
        assert "cspserve: served 3 requests" in captured.err

    def test_served_one_request_is_singular(self, monkeypatch, capsys):
        assert run_stdio(monkeypatch, [{"op": "ping"}]) == EXIT_OK
        assert "cspserve: served 1 request\n" in capsys.readouterr().err

    def test_quiet_silences_stderr(self, monkeypatch, capsys):
        assert run_stdio(monkeypatch, [{"op": "ping"}], ["--quiet"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_stats_flag_emits_server_counters(self, monkeypatch, capsys):
        requests = [check_request(selftest("pass", "c1"))]
        assert run_stdio(monkeypatch, requests, ["--stats"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "stat server.requests: 1" in captured.err
        assert "stat server.executions: 1" in captured.err
        assert not any(
            line.startswith("stat ") for line in captured.out.splitlines()
        )

    def test_profile_flag_prints_a_table_on_stderr(self, monkeypatch, capsys):
        requests = [check_request(refinement_doc())]
        assert run_stdio(monkeypatch, requests, ["--profile"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "profile [" in captured.err
        assert "profile [" not in captured.out
        # stdout stayed pure JSONL even with observability on
        assert json.loads(captured.out.splitlines()[0])["status"] == "ok"

    def test_trace_out_writes_a_valid_trace(self, monkeypatch, capsys, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        requests = [check_request(refinement_doc())]
        args = ["--trace-out", trace]
        assert run_stdio(monkeypatch, requests, args) == EXIT_OK
        assert "trace:" in capsys.readouterr().err
        counts = validate_file(trace)
        assert counts["span"] >= 1  # at least the server span
        assert counts["counter"] >= 1  # the server.* metrics travelled too

    def test_server_options_reach_the_core(self, monkeypatch, capsys):
        # quota=1: the second concurrent submission must be rejected
        requests = [
            check_request(selftest("sleep:0.75", "a")),
            check_request(selftest("pass", "b")),
        ]
        args = ["--workers", "1", "--quota", "1", "--quiet"]
        assert run_stdio(monkeypatch, requests, args) == EXIT_OK
        docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert docs[0]["status"] == "ok"
        assert docs[1]["status"] == "rejected"
        assert docs[1]["code"] == "quota"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--workers", "0"],
            ["--queue-limit", "0"],
            ["--quota", "0"],
            ["--max-request-bytes", "0"],
            ["--http", "no-port-here"],
            ["--http", "127.0.0.1:70000"],
        ],
    )
    def test_bad_values_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cspserve_main(argv)
        assert excinfo.value.code == EXIT_USAGE
        assert "cspserve:" in capsys.readouterr().err

    def test_stdio_and_http_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cspserve_main(["--stdio", "--http", "127.0.0.1:0"])
        assert excinfo.value.code == EXIT_USAGE


class TestEndpointParsing:
    def test_forms(self):
        assert parse_endpoint("8080") == ("127.0.0.1", 8080)
        assert parse_endpoint(":0") == ("127.0.0.1", 0)
        assert parse_endpoint("0.0.0.0:99") == ("0.0.0.0", 99)

    def test_errors(self):
        with pytest.raises(ValueError, match="numeric port"):
            parse_endpoint("localhost")
        with pytest.raises(ValueError, match="out of range"):
            parse_endpoint("127.0.0.1:99999")


class TestHttpDaemonSubprocess:
    def test_banner_serve_and_graceful_sigterm(self):
        env = dict(os.environ)
        env.setdefault("PYTHONPATH", "src")
        daemon = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.server.cli",
                "--http",
                "127.0.0.1:0",
                "--workers",
                "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            # its own process group: on failure the cleanup below kills the
            # warm workers too, which would otherwise hold stderr open
            start_new_session=True,
        )
        try:
            # the banner is the CI job's cue; it must be one scrapeable line
            banner = daemon.stderr.readline()
            assert banner.startswith("cspserve: listening on http://127.0.0.1:")
            url = banner.split()[-1]
            with ServerClient(url) as client:
                assert client.healthz()["state"] == "running"
                result = client.check(selftest("pass", "smoke"))
                assert result.verdict == "PASS"
                # one kept-alive connection carried all three requests, and
                # the client still holds it, idle, while the daemon drains
                metrics = client.stats()["metrics"]
                assert metrics["server.http_connections"] == 1
                daemon.send_signal(signal.SIGTERM)
                stdout, stderr = daemon.communicate(timeout=30)
        finally:
            if daemon.poll() is None:
                os.killpg(daemon.pid, signal.SIGKILL)
                daemon.communicate()
        assert daemon.returncode == EXIT_OK
        assert stdout == ""  # HTTP mode writes nothing to stdout
        assert "cspserve: draining" in stderr
        assert "Traceback" not in stderr


@contextlib.contextmanager
def http_daemon(workers):
    """A ``cspserve --http`` subprocess and its URL; killed, workers too, at exit."""
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.server.cli",
            "--http",
            "127.0.0.1:0",
            "--workers",
            str(workers),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        # its own process group, so the cleanup reaches every worker
        start_new_session=True,
    )
    try:
        banner = daemon.stderr.readline()
        assert banner.startswith("cspserve: listening on http://127.0.0.1:")
        yield daemon, banner.split()[-1]
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(daemon.pid, signal.SIGKILL)
        daemon.communicate()


def children(pid):
    """The pids whose parent is *pid*, read from ``/proc``."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _stat(int(entry))[1] == pid:
            found.append(int(entry))
    return found


def alive(pid):
    """Is *pid* a process that still runs (not gone, not a zombie)?"""
    state = _stat(pid)[0]
    return state is not None and state not in "ZX"


def _stat(pid):
    """``(state, parent pid)`` of *pid*, or ``(None, None)`` once it is gone."""
    try:
        with open("/proc/{}/stat".format(pid), encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None, None
    return fields[0], int(fields[1])


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads worker pids from /proc")
class TestWorkerLifecycle:
    def test_a_respawned_worker_is_still_killed_at_its_deadline(self):
        # the replacement for a crashed worker is forked after the daemon
        # installed its SIGTERM handler; a timeout must still end it and
        # leave the scheduler free for the next check
        with http_daemon(1) as (daemon, url):
            with ServerClient(url, http_timeout=10) as client:
                crashed = client.check(selftest("exit:3", "crash"))
                assert crashed.verdict == "ERROR"
                slow = client.check(selftest("sleep:20", "slow"), timeout=1)
                assert slow.verdict == "TIMEOUT"
                started = time.perf_counter()
                assert client.check(selftest("pass", "next")).verdict == "PASS"
                assert time.perf_counter() - started < 5.0

    def test_a_killed_daemon_takes_its_workers_with_it(self):
        with http_daemon(2) as (daemon, url):
            with ServerClient(url) as client:
                assert client.check(selftest("exit:3", "crash")).verdict == "ERROR"
                assert client.check(selftest("pass", "after")).verdict == "PASS"
            # the original worker and the one respawned after the crash
            workers = children(daemon.pid)
            assert len(workers) == 2
            daemon.kill()
            daemon.wait()
            wait_until(lambda: not any(alive(pid) for pid in workers), timeout=5.0)


    def test_a_respawned_worker_holds_none_of_the_daemon_sockets(self):
        # the replacement is forked while the frontend listens and the
        # client's connection is open; it keeps only its own pipe
        with http_daemon(1) as (daemon, url):
            with ServerClient(url) as client:
                assert client.check(selftest("exit:3", "crash")).verdict == "ERROR"
                assert client.check(selftest("pass", "after")).verdict == "PASS"
                (worker,) = [pid for pid in children(daemon.pid) if alive(pid)]
                listening = listening_inodes() & socket_inodes(daemon.pid)
                held = socket_inodes(worker)
        assert listening
        assert len(held) == 1
        assert not held & listening


def socket_inodes(pid):
    """The inodes of the sockets *pid* holds above fd 2."""
    found = set()
    directory = "/proc/{}/fd".format(pid)
    for name in os.listdir(directory):
        if int(name) <= 2:
            continue
        try:
            target = os.readlink(os.path.join(directory, name))
        except OSError:
            continue
        if target.startswith("socket:["):
            found.add(int(target[len("socket:[") : -1]))
    return found


def listening_inodes():
    """The inodes of every listening TCP socket, from ``/proc/net``."""
    found = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table, encoding="ascii") as handle:
                rows = handle.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            if fields[3] == "0A":  # TCP_LISTEN
                found.add(int(fields[9]))
    return found


class TestCspbatchServerMode:
    @pytest.fixture
    def manifest(self, tmp_path):
        good = Prefix(A, Prefix(B, Stop()))
        bad = Prefix(A, Prefix(C, Stop()))
        specs = [
            CheckSpec.refinement(good, good, "T", check_id="ok"),
            CheckSpec.refinement(good, bad, "T", check_id="nope"),
        ]
        path = str(tmp_path / "manifest.json")
        dump_manifest(specs, path)
        return path

    @pytest.fixture
    def frontend(self, make_server):
        server = make_server(workers=2)
        with HttpFrontend(server) as listener:
            yield server, listener.url

    def test_server_mode_is_byte_identical_to_inline(
        self, manifest, frontend, capsys
    ):
        _, url = frontend
        assert cspbatch_main([manifest, "--jobs", "0", "--quiet"]) == EXIT_VIOLATION
        inline_out = capsys.readouterr().out
        assert cspbatch_main([manifest, "--server", url, "--quiet"]) == EXIT_VIOLATION
        assert capsys.readouterr().out == inline_out

    def test_server_mode_summary_names_the_daemon(self, manifest, frontend, capsys):
        _, url = frontend
        assert cspbatch_main([manifest, "--server", url]) == EXIT_VIOLATION
        err = capsys.readouterr().err
        assert "2 jobs" in err
        assert "via {}".format(url) in err
        assert "nope: FAIL" in err

    def test_server_mode_stats(self, manifest, frontend, capsys):
        _, url = frontend
        argv = [manifest, "--server", url, "--quiet", "--stats"]
        assert cspbatch_main(argv) == EXIT_VIOLATION
        err = capsys.readouterr().err
        assert "stat FAIL: 1" in err
        assert "stat PASS: 1" in err

    def test_unreachable_daemon_exits_2(self, manifest, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        url = "http://127.0.0.1:{}".format(port)
        assert cspbatch_main([manifest, "--server", url]) == EXIT_USAGE
        assert "cannot reach" in capsys.readouterr().err

    def test_a_daemon_that_is_not_http_exits_2(self, manifest, fake_daemon, capsys):
        daemon = fake_daemon([b"SSH-2.0-OpenSSH_9.6\r\n"])
        assert cspbatch_main([manifest, "--server", daemon.url]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("cspbatch: malformed server response")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flag", [["--profile"], ["--trace-out", "trace.jsonl"]]
    )
    def test_observability_flags_are_refused_with_server(
        self, tmp_path, manifest, fake_daemon, capsys, flag
    ):
        daemon = fake_daemon([http_reply(b"[]")])
        argv = [manifest, "--server", daemon.url] + [
            str(tmp_path / arg) if arg.endswith(".jsonl") else arg for arg in flag
        ]
        assert cspbatch_main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "cspbatch: {} cannot be used with --server\n".format(flag[0])
        fleet = tmp_path / "fleet"
        assert csprv_main(["--fleetgen", str(fleet), "--vehicles", "1", "--quiet"]) == EXIT_OK
        capsys.readouterr()
        rv_argv = [str(fleet / "manifest.json")] + argv[1:]
        assert csprv_main(rv_argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "csprv: {} cannot be used with --server\n".format(flag[0])
        assert daemon.accepted == 0
        assert not (tmp_path / "trace.jsonl").exists()

    def test_csprv_against_a_daemon_answering_an_array_exits_2(
        self, tmp_path, fake_daemon, capsys
    ):
        fleet = tmp_path / "fleet"
        argv = ["--fleetgen", str(fleet), "--vehicles", "2", "--quiet"]
        assert csprv_main(argv) == EXIT_OK
        capsys.readouterr()
        daemon = fake_daemon([http_reply(b"[]")])
        manifest = str(fleet / "manifest.json")
        assert csprv_main([manifest, "--server", daemon.url]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("csprv: unparseable server response")
        assert len(err.splitlines()) == 1

    def test_bad_server_url_exits_2(self, manifest, capsys):
        argv = [manifest, "--server", "ftp://example:1"]
        assert cspbatch_main(argv) == EXIT_USAGE
        assert "http://" in capsys.readouterr().err

    def test_rejected_manifest_fails_closed(self, manifest, frontend, capsys):
        server, url = frontend
        server.close(drain=True)  # drained daemon: submissions bounce
        assert cspbatch_main([manifest, "--server", url]) == EXIT_VIOLATION
        err = capsys.readouterr().err
        assert "server rejected the manifest (draining)" in err

    def test_csprv_rejected_fleet_fails_closed(self, tmp_path, frontend, capsys):
        # csprv shares cspbatch's run path but keeps its own wording
        fleet = tmp_path / "fleet"
        argv = ["--fleetgen", str(fleet), "--vehicles", "2", "--quiet"]
        assert csprv_main(argv) == EXIT_OK
        capsys.readouterr()
        server, url = frontend
        server.close(drain=True)
        manifest = str(fleet / "manifest.json")
        assert csprv_main([manifest, "--server", url]) == EXIT_VIOLATION
        captured = capsys.readouterr()
        assert captured.err.startswith("csprv: server rejected the fleet (draining)")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
