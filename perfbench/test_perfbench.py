"""Tests of the loopback benchmark itself, at small keys.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from psiauth import service  # noqa: E402

BITS = 256
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small_run(name: str, seed: int = 5, trace: bool = False,
              seconds: float = 1.0) -> run.RunRecord:
    return run.run(name, seed, seconds, trace, key_bits=BITS, setup_phases=1,
                   log=lambda line: None)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_metric_names_and_units_match_benchmark_json(name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.summary(small_run(name, trace=trace))
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        reported = {k: v["unit"] for k, v in result["metrics"].items()}
        assert reported == declared
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.BUILDERS)


def test_off_by_one_score_counts_as_failure(monkeypatch):
    original = service.carrier_score
    monkeypatch.setattr(service, "carrier_score",
                        lambda session, entries: original(session, entries) + 1)
    record = small_run("login-a")
    result = run.summary(record)
    assert record.auth_times, "no authentication completed"
    assert result["failed"] == len(record.auth_times)
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] < 1


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_traced_and_untraced_runs_agree_on_counts_and_bytes(name):
    plain = small_run(name, seed=9)
    traced = small_run(name, seed=9, trace=True)
    counts = traced.tracer.counts
    shared = min(len(plain.matches), len(traced.matches))
    assert shared >= 2
    assert plain.matches[:shared] == traced.matches[:shared]
    assert plain.auth_bytes[:shared] == traced.auth_bytes[:shared]
    for index in range(shared):
        unit = counts[f"auth:{index}"]
        assert unit["protocol.matches"] == traced.matches[index]
        assert unit["wire.bytes"] == traced.auth_bytes[index]
    assert plain.profile_bytes == traced.profile_bytes
    layers = run.summary(traced)["metrics"]
    assert layers["wire.store_bytes"]["value"] == \
        sum(plain.profile_bytes) / len(plain.profile_bytes)
    assert layers["service.sessions_pending"]["value"] == 0
    assert layers["service.errors"]["value"] == 0


def test_self_times_cover_the_traced_authentication():
    record = small_run("login-a", trace=True)
    self_times = record.tracer.self_times()["auth:0"]
    # Spans inside one authentication, plus untraced gaps, add up to it.
    assert 0 < sum(self_times.values()) <= record.auth_times[0] * 1.01
    assert max(self_times, key=self_times.get) == "protocol.respond"


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_another_seed_changes_inputs_not_metric_set(name):
    first, second = workloads.build(name, 1), workloads.build(name, 2)
    assert first != second
    assert workloads.build(name, 1) == first
    assert run.summary(small_run(name, seed=1))["metrics"].keys() == \
        run.summary(small_run(name, seed=2))["metrics"].keys()


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
@pytest.mark.parametrize("seed", range(5))
def test_genuine_accepts_impostor_rejects_with_fixed_work(name, seed):
    workload = workloads.build(name, seed)
    sizes = set()
    for index in range(2 * len(workload.users) * workloads.SAMPLES_PER_KIND):
        user_index, sample = workload.attempt(index)
        user = workload.users[user_index]
        _, _, accepted = run.expected_decision(workload, user, sample)
        assert accepted == sample.genuine
        if workload.similarity is None:
            sizes.add(sample.features.size)
        else:
            sizes.add(sum(w for y in sample.features.values
                          for _, w in workload.similarity.support_for(y)))
    assert len(sizes) == 1  # every authentication sends as many entries


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "login-a",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
