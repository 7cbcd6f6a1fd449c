import contextlib
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from psiauth import keygen, keypair_from_primes, protocol


@pytest.fixture
def rng():
    return random.Random(0xBEEF)


@pytest.fixture
def tiny_keypair():
    """n = 15: the smallest valid parameters, checkable by hand."""
    return keypair_from_primes(3, 5, insecure_test_mode=True)


@pytest.fixture(scope="session")
def kp128():
    return keygen(128, random.Random(0xA11CE))


@pytest.fixture(scope="session")
def kp512():
    return keygen(512, random.Random(0xB0B))


@pytest.fixture
def fresh_pool(monkeypatch):
    """A worker pool of at least two processes, forked by the test's first
    pooled call, so the pool path runs even on a one-CPU machine."""
    cpus = max(2, protocol.usable_cpus())
    monkeypatch.setattr(protocol, "usable_cpus", lambda: cpus)
    if protocol._pool is not None:
        protocol._drop_pool(protocol._pool)


@pytest.fixture
def one_cpu(monkeypatch):
    """``with one_cpu():`` runs its block as if this process could use one
    CPU only, so every pooled job in it runs in-process."""
    @contextlib.contextmanager
    def patched():
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "usable_cpus", lambda: 1)
            yield
    return patched
