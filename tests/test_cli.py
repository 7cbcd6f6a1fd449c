import os
import random
import select
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import psiauth
from psiauth import FeatureMode, FeatureSet, client, wire
from psiauth.cli import EXIT_ERROR, EXIT_OK, EXIT_REJECTED, main
from psiauth.service import CarrierConfig, CarrierService


@pytest.fixture
def service(tmp_path):
    config = CarrierConfig(store_root=tmp_path / "store", seed=77)
    with CarrierService(config) as svc:
        yield svc


@pytest.fixture
def carrier(service):
    host, port = service.address
    return f"{host}:{port}"


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


class TestSetupAndAuth:
    def test_full_cycle_case_a(self, carrier, tmp_path, capsys):
        features = write(tmp_path / "features.txt",
                         "tower-1\ntower-2\ntower-3\ntower-4\n")
        secret_file = str(tmp_path / "device.secret")
        assert main(["setup", "--user", "alice", "--carrier", carrier,
                     "--secret-file", secret_file, "--features", features,
                     "--key-bits", "128"]) == EXIT_OK

        matching = write(tmp_path / "sample.txt",
                         "tower-2\ntower-3\ntower-4\n")
        assert main(["auth", "--carrier", carrier, "--secret-file",
                     secret_file, "--sample", matching]) == EXIT_OK
        assert "ACCEPT" in capsys.readouterr().out

        disjoint = write(tmp_path / "disjoint.txt", "cafe\nlibrary\n")
        assert main(["auth", "--carrier", carrier, "--secret-file",
                     secret_file, "--sample", disjoint]) == EXIT_REJECTED
        out = capsys.readouterr().out
        assert "REJECT" in out and "inf" in out

    def test_case_c_cycle(self, carrier, tmp_path, capsys):
        values = write(tmp_path / "u.txt", "2 0 3")
        secret_file = str(tmp_path / "c.secret")
        assert main(["setup", "--user", "carol", "--carrier", carrier,
                     "--secret-file", secret_file, "--mode", "case-c",
                     "--values", values, "--cap", "3", "--key-bits", "128",
                     "--threshold", "2"]) == EXIT_OK
        sample = write(tmp_path / "v.txt", "1 1 3")
        assert main(["auth", "--carrier", carrier, "--secret-file",
                     secret_file, "--values", sample]) == EXIT_OK
        assert "dissimilarity 2" in capsys.readouterr().out
        short = write(tmp_path / "w.txt", "1 1")
        assert main(["auth", "--carrier", carrier, "--secret-file",
                     secret_file, "--values", short]) == EXIT_ERROR
        assert "numeric parameters" in capsys.readouterr().err

    def test_case_b_cycle(self, carrier, tmp_path, capsys):
        features = write(tmp_path / "f.txt", "red\nblue\n")
        table = write(tmp_path / "t.txt",
                      "red red 2\nblue blue 2\ngreen blue 1\ngreen green 2\n")
        secret_file = str(tmp_path / "b.secret")
        assert main(["setup", "--user", "bo", "--carrier", carrier,
                     "--secret-file", secret_file, "--mode", "case-b",
                     "--features", features, "--key-bits", "128",
                     "--threshold", "2"]) == EXIT_OK
        sample = write(tmp_path / "s.txt", "red\ngreen\n")
        assert main(["auth", "--carrier", carrier, "--secret-file",
                     secret_file, "--sample", sample,
                     "--table", table]) == EXIT_OK
        assert "3 matches" in capsys.readouterr().out

    def test_case_b_without_table_opens_no_session(self, service, carrier,
                                                   tmp_path, capsys):
        features = write(tmp_path / "f.txt", "red\nblue\n")
        secret_file = str(tmp_path / "b.secret")
        assert main(["setup", "--user", "bo", "--carrier", carrier,
                     "--secret-file", secret_file, "--mode", "case-b",
                     "--features", features, "--key-bits", "128"]) == EXIT_OK
        sample = write(tmp_path / "s.txt", "red\n")
        assert main(["auth", "--carrier", carrier, "--secret-file",
                     secret_file, "--sample", sample]) == EXIT_ERROR
        assert "similarity table" in capsys.readouterr().err
        assert service.sessions._sessions == {}

    def test_setup_empty_feature_file(self, carrier, tmp_path, capsys):
        features = write(tmp_path / "empty.txt", "\n# comment only\n")
        code = main(["setup", "--user", "alice", "--carrier", carrier,
                     "--secret-file", str(tmp_path / "s"), "--features",
                     features, "--key-bits", "128"])
        assert code == EXIT_ERROR
        assert "empty" in capsys.readouterr().err

    def test_auth_unreachable_carrier(self, tmp_path, capsys):
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        secret_file = str(tmp_path / "missing.secret")
        code = main(["auth", "--carrier", f"{host}:{port}",
                     "--secret-file", secret_file,
                     "--sample", write(tmp_path / "s.txt", "x")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err

    def test_auth_missing_secret(self, carrier, tmp_path):
        code = main(["auth", "--carrier", carrier, "--secret-file",
                     str(tmp_path / "nope.secret"),
                     "--sample", write(tmp_path / "s.txt", "x")])
        assert code == EXIT_ERROR


class TestServeCommand:
    @pytest.mark.parametrize("timeout", ["inf", "0"])
    def test_unusable_session_timeout_refused(self, tmp_path, capsys,
                                              timeout):
        code = main(["serve", "--listen", "127.0.0.1:0", "--data-dir",
                     str(tmp_path / "store"), "--session-timeout", timeout])
        assert code == EXIT_ERROR
        out, err = capsys.readouterr()
        assert "session timeout" in err
        assert "listening" not in out

    def test_sigterm_stops_the_carrier_and_its_workers(self, tmp_path):
        # kill's SIGTERM ends serve like Ctrl-C.  A clean exit joins the
        # pool that the carrier forks at start, so serve exits 0 only after
        # its workers have; without the handler it would die with -SIGTERM
        # and leave them running.
        with spawn_serve(tmp_path) as proc:
            try:
                address = ready_address(proc)
                features = FeatureSet.from_values(FeatureMode.CASE_A,
                                                  [3, 5, 8, 13])
                client.setup_device(address, "alice", features,
                                    tmp_path / "alice.secret", bits=128,
                                    rng=random.Random(9))
                with client.CarrierConnection(address) as conn:
                    conn.request(wire.AuthInit("alice", 2))
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=30) == 0
            finally:
                proc.kill()

    @pytest.mark.parametrize("one_cpu", [False, True],
                             ids=["pool-cpus", "one-cpu"])
    def test_sigterm_on_the_ready_line_stops_serve(self, tmp_path, one_cpu):
        # A SIGTERM sent as soon as the ready line is read stops serve.
        # The line must be flushed, since stdout into a pipe is buffered,
        # and the handler installed after the pool's fork: a signal that
        # lands in the fork's after-fork hook is ignored, and the carrier
        # would keep serving.
        for run in range(3):
            with spawn_serve(tmp_path / f"run-{run}", one_cpu) as proc:
                try:
                    ready_address(proc)
                    proc.send_signal(signal.SIGTERM)
                    assert proc.wait(timeout=30) == 0
                finally:
                    proc.kill()


def spawn_serve(tmp_path: Path, one_cpu: bool = False) -> subprocess.Popen:
    """``psiauth serve`` in a child process whose stdout is a pipe and
    buffered as a deployment's is: no ``-u`` and no ``PYTHONUNBUFFERED``.
    ``one_cpu`` pins the child to one of this process's CPUs."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(psiauth.__file__).parents[1])
    cpu = min(os.sched_getaffinity(0))
    return subprocess.Popen(
        [sys.executable, "-m", "psiauth.cli", "serve",
         "--listen", "127.0.0.1:0", "--data-dir", str(tmp_path / "store")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
        preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if one_cpu
        else None)


def ready_address(proc: subprocess.Popen, timeout: float = 10
                  ) -> tuple[str, int]:
    """The address in serve's ready line, which must arrive within
    ``timeout`` seconds."""
    readable, _, _ = select.select([proc.stdout], [], [], timeout)
    assert readable, f"no ready line within {timeout} s"
    # "carrier listening on HOST:PORT, profiles under ..."
    address = proc.stdout.readline().split()[3].rstrip(",")
    host, port = address.rsplit(":", 1)
    return host, int(port)


class TestOracleCommand:
    def test_case_a(self, tmp_path, capsys):
        a = write(tmp_path / "a.txt", "x\ny\nz\n")
        b = write(tmp_path / "b.txt", "y\nz\nw\n")
        assert main(["oracle", "--mode", "case-a", "--profile", a,
                     "--sample", b]) == EXIT_OK
        assert "cardinality: 2" in capsys.readouterr().out

    def test_case_b(self, tmp_path, capsys):
        a = write(tmp_path / "a.txt", "x\n")
        b = write(tmp_path / "b.txt", "y\n")
        table = write(tmp_path / "t.txt", "y x 3\n")
        assert main(["oracle", "--mode", "case-b", "--profile", a,
                     "--sample", b, "--table", table]) == EXIT_OK
        assert "sum: 3" in capsys.readouterr().out

    def test_case_c(self, tmp_path, capsys):
        u = write(tmp_path / "u.txt", "2 0 3")
        v = write(tmp_path / "v.txt", "1 1 3")
        assert main(["oracle", "--mode", "case-c", "--profile", u,
                     "--sample", v]) == EXIT_OK
        assert "L1 distance: 2" in capsys.readouterr().out

    def test_vector_length_mismatch(self, tmp_path, capsys):
        u = write(tmp_path / "u.txt", "2 0")
        v = write(tmp_path / "v.txt", "1 1 3")
        assert main(["oracle", "--mode", "case-c", "--profile", u,
                     "--sample", v]) == EXIT_ERROR


class TestBenchCommand:
    def test_bench_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "2,3", "--key-bits", "128",
                     "--repetitions", "1", "--feature-bits", "16",
                     "--seed", "3", "--csv", str(csv_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "setup_s" in out
        assert csv_path.exists()


@pytest.mark.parametrize("command", ["serve", "setup", "auth"])
def test_only_bench_takes_a_seed(command, tmp_path, capsys):
    # serve, setup and auth always draw from OS entropy, so argparse
    # refuses their --seed before anything runs; bench --seed runs in
    # test_bench_writes_csv.
    features = write(tmp_path / "f.txt", "x\n")
    secret = str(tmp_path / "device.secret")
    argv = {
        "serve": ["serve", "--data-dir", str(tmp_path / "store")],
        "setup": ["setup", "--user", "u", "--carrier", "127.0.0.1:1",
                  "--secret-file", secret, "--features", features],
        "auth": ["auth", "--carrier", "127.0.0.1:1", "--secret-file",
                 secret, "--sample", features],
    }[command]
    with pytest.raises(SystemExit) as exited:
        main(argv + ["--seed", "1"])
    assert exited.value.code == EXIT_ERROR
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()
    assert not Path(secret).exists()


@pytest.fixture
def busy_port():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        yield listener.getsockname()[1]


# Each command line fails outside anything a command handles itself;
# built from (tmp_path, a port some other socket listens on).
FAILING = {
    "auth-corrupt-secret": lambda tmp, port: [
        "auth", "--carrier", "127.0.0.1:1", "--secret-file",
        write(tmp / "corrupt.secret", "not a secret"),
        "--sample", write(tmp / "s.txt", "x")],
    "serve-busy-port": lambda tmp, port: [
        "serve", "--listen", f"127.0.0.1:{port}", "--data-dir",
        str(tmp / "store")],
    "bench-csv-missing-dir": lambda tmp, port: [
        "bench", "--sizes", "2", "--key-bits", "64", "--feature-bits", "8",
        "--repetitions", "1", "--seed", "1",
        "--csv", str(tmp / "missing" / "bench.csv")],
    "bench-sizes-beyond-features": lambda tmp, port: [
        "bench", "--sizes", "2", "--key-bits", "64", "--feature-bits", "1",
        "--repetitions", "1"],
    "oracle-case-b-without-table": lambda tmp, port: [
        "oracle", "--mode", "case-b", "--profile", write(tmp / "a.txt", "x"),
        "--sample", write(tmp / "b.txt", "x")],
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_any_failure_exits_with_one_error_line(name, tmp_path, busy_port,
                                               capsys):
    # 2, never the reject code 1, and one line naming the command.
    argv = FAILING[name](tmp_path, busy_port)
    assert main(argv) == EXIT_ERROR
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"psiauth {argv[0]} failed: ")
