"""Timing both solvers over a small size grid.

The closed-form blinding solver is linear in the profile size; the Gaussian
path solves the integer power-matrix system exactly and its cost climbs
steeply, which is visible even at modest sizes.  Uses 256-bit keys so the
demo finishes in seconds; the real benchmark (1024-bit, sizes up to 50) runs
via ``psiauth bench`` or the acceptance suite.

Run: python demos/demo_benchmark.py
"""

from psiauth.bench import bench_run, format_table

records = bench_run([4, 8, 16, 24], key_bits=256, solver="closed-form",
                    repetitions=1, seed=42, feature_bits=32)
records += bench_run([4, 8, 16, 24], key_bits=256, solver="gaussian",
                     repetitions=1, seed=42, feature_bits=32,
                     include_auth=False)

print(format_table(records))
print("\ngaussian setup should pull ahead of closed-form as size grows;")
print("both solvers build the same record and secret, so auth cost is "
      "solver-independent")
