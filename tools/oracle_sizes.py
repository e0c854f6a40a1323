"""Time and accuracy of the classical oracle `classical_pmf_batch`.

    python3 tools/oracle_sizes.py [CHECKOUT]

For each input of INPUTS it starts a fresh Python process, with one BLAS
thread, scipy.linalg and scipy.special already imported and CHECKOUT/src (by
default this checkout's) first on its path, that draws 20,000 times of the
inverse stable subordinator at t = 1 (`inverse_subordinator_sample`, seed 0)
and times `classical_pmf_batch` on them: the best of up to REPEATS calls,
stopping once BUDGET_S has been spent.  It then compares the batch with
`master_equation_classical` at 60 of those times (chosen with seed 1) and
reports the largest entry error and the largest row-sum error.  Prints one
JSON object keyed by input, so two checkouts can be compared line by line.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INPUTS = (
    (1.0, 0.0, 40, 13, 0.6),
    (0.9, 0.1, 60, 20, 0.6),
    (1.0, 1e-3, 60, 3, 0.6),
    (0.0, 1.0, 100, 90, 0.6),
    (1.0, 0.0, 150, 50, 0.6),
    (1.0, 2.0, 12, 5, 0.7),
    (1.0, 2.0, 60, 20, 0.6),
    (0.37, 0.63, 150, 75, 0.5),
)
TIMES = 20_000
CHECKED = 60
REPEATS = 5
BUDGET_S = 1.0

CHILD = """
import json, sys, time
import numpy as np
import scipy.linalg, scipy.special
from fracbinom.model import ProcessParams
from fracbinom.reference import classical_pmf_batch, master_equation_classical
from fracbinom.sampler import inverse_subordinator_sample

args, n_times, checked, repeats, budget_s = json.loads(sys.argv[1])
params = ProcessParams(*args)
ts = inverse_subordinator_sample(params.order, 1.0, np.random.default_rng(0), size=n_times)
best, spent = float("inf"), 0.0
while spent < budget_s and repeats > 0:
    start = time.perf_counter()
    batch = classical_pmf_batch(params, ts)
    took = time.perf_counter() - start
    best, spent, repeats = min(best, took), spent + took, repeats - 1
pick = np.random.default_rng(1).choice(n_times, checked, replace=False)
err = max(np.abs(batch[i] - master_equation_classical(params, ts[i]).probs).max() for i in pick)
row_err = np.abs(batch.sum(axis=1) - 1.0).max()
print(json.dumps({"seconds": round(best, 4), "max_err": float(f"{err:.2g}"), "max_row_err": float(f"{row_err:.2g}")}))
"""


def main():
    checkout = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ROOT)
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    result = {}
    for args in INPUTS:
        job = json.dumps([args, TIMES, CHECKED, REPEATS, BUDGET_S])
        out = subprocess.run([sys.executable, "-c", CHILD, job],
                             env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
        key = ", ".join(f"{v:g}" for v in args)
        result[key] = json.loads(out)
        print(f"({key}): {result[key]}", file=sys.stderr)
    print(json.dumps({"checkout": checkout, "classical_pmf_batch": result}, indent=1))


if __name__ == "__main__":
    main()
