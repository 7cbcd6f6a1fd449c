import csv

import pytest

from psiauth import bench, pool
from psiauth.bench import BenchRecord, bench_run, format_table, write_csv


class TestBenchRun:
    def test_records_shape(self):
        records = bench_run([2, 4], key_bits=128, repetitions=1, seed=7,
                            feature_bits=16)
        assert [r.set_size for r in records] == [2, 4]
        for record in records:
            assert record.setup_seconds >= 0
            assert record.auth_seconds > 0
            assert record.key_bits == 128
            assert record.solver == "closed-form"
            assert record.parallelism == pool.usable_cpus()

    def test_one_cpu_run_records_parallelism_one(self, one_cpu):
        with one_cpu():
            record, = bench_run([2], key_bits=128, repetitions=1, seed=7,
                                feature_bits=16)
        assert record.parallelism == 1

    def test_gaussian_solver_tagged(self):
        record, = bench_run([3], key_bits=128, solver="gaussian",
                            repetitions=1, seed=7, feature_bits=16)
        assert record.solver == "gaussian"

    def test_setup_only_mode(self):
        record, = bench_run([3], key_bits=128, repetitions=1, seed=7,
                            feature_bits=16, include_auth=False)
        assert record.auth_seconds == 0.0

    def test_seeded_run_keeps_one_key_across_sizes(self, monkeypatch):
        moduli = []
        original = bench.build_encrypted_profile

        def build(*args, **kwargs):
            profile, secret = original(*args, **kwargs)
            moduli.append(profile.public_key.n)
            return profile, secret

        monkeypatch.setattr(bench, "build_encrypted_profile", build)
        bench_run([2, 4, 8], key_bits=128, seed=7, include_auth=False)
        assert len(moduli) == 9 and len(set(moduli)) == 1

    def test_seeded_runs_reproduce_workload(self):
        first = bench_run([3], key_bits=128, repetitions=1, seed=11,
                          feature_bits=16)
        second = bench_run([3], key_bits=128, repetitions=1, seed=11,
                           feature_bits=16)
        assert first[0].set_size == second[0].set_size

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            bench_run([])

    def test_sizes_beyond_the_feature_space_rejected(self):
        # 2 * 5 distinct features do not fit in [1, 2**3]; refused before
        # any key generation instead of drawing forever.
        with pytest.raises(ValueError, match="distinct features"):
            bench_run([5], key_bits=64, feature_bits=3)
        record, = bench_run([4], key_bits=64, repetitions=1, seed=7,
                            feature_bits=3, include_auth=False)
        assert record.set_size == 4

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            BenchRecord(1, -0.1, 0.0, 128, "closed-form", 1)


class TestReporting:
    def test_table_contains_sizes_and_solver(self):
        records = [BenchRecord(5, 0.5, 1.25, 1024, "closed-form", 1),
                   BenchRecord(10, 2.0, 4.0, 1024, "gaussian", 2)]
        table = format_table(records)
        assert "5" in table and "10" in table
        assert "gaussian" in table
        assert "key_bits" in table

    def test_csv_columns(self, tmp_path):
        records = [BenchRecord(5, 0.5, 1.25, 1024, "closed-form", 1)]
        path = tmp_path / "bench.csv"
        write_csv(records, path)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["size", "setup_s", "auth_s", "key_bits", "solver",
                           "parallelism"]
        assert rows[1][0] == "5"
        assert rows[1][4] == "closed-form"
