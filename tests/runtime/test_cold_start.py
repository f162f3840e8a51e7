"""How a live cluster starts: every role at once, on sockets bound first.

``ProcessCluster`` binds the three listening sockets, spawns the three
roles together (each inherits its socket) and waits for their READY lines
against one deadline; each role's stderr goes to a log file.  The roles
import only what they serve.  These tests swap the spawned command for a
stand-in process, so they need no real role.
"""

import os
import subprocess
import sys
import textwrap
import time

import pytest

from repro.runtime import live
from repro.runtime.live import ProcessCluster

#: A stand-in role: writes ``argv[2]`` bytes to stderr, then reports READY
#: on its inherited socket (``argv[1]``) and sleeps until terminated.
STAND_IN = textwrap.dedent("""
    import socket, sys, time
    sock = socket.socket(fileno=int(sys.argv[1]))
    sys.stderr.write("x" * int(sys.argv[2]))
    sys.stderr.flush()
    print(f"MANTLE-SERVE READY port={sock.getsockname()[1]}", flush=True)
    time.sleep(60)
""")


@pytest.fixture
def spawned(monkeypatch):
    """Every ``Popen`` a cluster spawns during the test."""
    procs = []
    spawn = ProcessCluster._spawn

    def recording(self, role, sock):
        proc = spawn(self, role, sock)
        procs.append(proc)
        return proc

    monkeypatch.setattr(ProcessCluster, "_spawn", recording)
    return procs


def stand_in(monkeypatch, command):
    monkeypatch.setattr(ProcessCluster, "_command",
                        lambda self, role, fd: command(fd))


def test_role_that_never_reports_ready_fails_start(monkeypatch, spawned):
    stand_in(monkeypatch, lambda fd: [
        sys.executable, "-c", "import time; time.sleep(60)"])
    monkeypatch.setattr(live, "START_TIMEOUT_S", 1.0)
    cluster = ProcessCluster()
    began = time.monotonic()
    with pytest.raises(RuntimeError, match="never reported READY"):
        cluster.start()
    assert time.monotonic() - began < 10
    assert len(spawned) == 3
    assert all(proc.poll() is not None for proc in spawned)
    assert cluster.processes == {}


def test_role_that_exits_fails_start_and_quotes_its_log(monkeypatch,
                                                        spawned):
    stand_in(monkeypatch, lambda fd: [
        sys.executable, "-c", "import sys; sys.exit('no such role')"])
    with pytest.raises(RuntimeError, match="no such role"):
        ProcessCluster().start()
    assert all(proc.poll() is not None for proc in spawned)


def test_stderr_past_the_pipe_buffer_does_not_wedge_start(
        monkeypatch, spawned, tmp_path):
    stand_in(monkeypatch, lambda fd: [
        sys.executable, "-c", STAND_IN, str(fd), "200000"])
    cluster = ProcessCluster(wal_dir=str(tmp_path))
    assert cluster.start() == cluster.endpoints["proxy"]
    try:
        for role in ProcessCluster.ROLE_ORDER:
            assert os.path.getsize(tmp_path / f"{role}.log") == 200_000
    finally:
        cluster.stop()
    assert all(proc.poll() is not None for proc in spawned)


def test_log_without_wal_dir_is_removed_at_stop(monkeypatch, spawned):
    stand_in(monkeypatch, lambda fd: [
        sys.executable, "-c", STAND_IN, str(fd), "10"])
    cluster = ProcessCluster()
    cluster.start()
    log_dir = cluster._log_dir
    assert os.path.isfile(os.path.join(log_dir, "proxy.log"))
    cluster.stop()
    assert not os.path.exists(log_dir)


def test_serve_imports_only_what_a_role_serves():
    probe = textwrap.dedent("""
        import sys
        import repro.runtime.serve
        loaded = [name for name in sys.modules if name in (
            "repro.baselines.tectonic", "repro.baselines.infinifs",
            "repro.baselines.locofs", "repro.core.api")
            or name.startswith(("repro.experiments", "repro.bench"))]
        assert not loaded, loaded

        import repro
        from repro import MantleClient, MantleConfig
        import repro.baselines
        assert repro.baselines.TectonicSystem.__name__ == "TectonicSystem"
        assert {"MantleClient", "MantleConfig", "TransactionAbort",
                "__version__"} <= set(dir(repro))
        assert set(repro.__all__) <= set(dir(repro))
        assert MantleClient.__module__ == "repro.core.api"
        assert not hasattr(repro, "no_such_name")
    """)
    src = os.path.dirname(os.path.dirname(os.path.dirname(live.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_roles_stopped_as_they_report_ready_exit_cleanly():
    # A role traps SIGTERM before it prints READY, so a cluster stopped
    # the moment it is up still sees every role exit 0.
    for _ in range(3):
        cluster = ProcessCluster()
        cluster.start()
        assert cluster.stop() == {"proxy": 0, "indexnode": 0, "tafdb": 0}
