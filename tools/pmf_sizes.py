"""Cold and warm time and peak memory of `pmf` as N grows.

    python3 tools/pmf_sizes.py [CHECKOUT]

For each N in SIZES it starts a fresh Python process, with one BLAS thread
and CHECKOUT/src (by default this checkout's) first on its path, that calls
`pmf(ProcessParams(1, 2, N, N // 3, 0.7), 1.0)` five times warm, each sample
the mean of as many calls as fill BATCH_S (at least one), then five times
cold, with every cache of the fracbinom modules cleared before each call,
and reports the best of each and the process's peak RSS.  Prints one JSON
object keyed by N, so two checkouts can be compared line by line; the
timings move by several percent from run to run on a shared VM.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (10, 40, 150, 1000, 3000, 10000)
REPEATS = 5
BATCH_S = 0.05

CHILD = """
import json, resource, sys, time
from fracbinom import analytics
from fracbinom.model import ProcessParams

n_cap, repeats, batch_s = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])
params = ProcessParams(1.0, 2.0, n_cap, n_cap // 3, 0.7)
caches = [f for m in list(sys.modules.values()) if getattr(m, "__name__", "").startswith("fracbinom")
          for f in vars(m).values() if callable(getattr(f, "cache_clear", None))]


def timed(calls):
    start = time.perf_counter()
    for _ in range(calls):
        analytics.pmf(params, 1.0)
    return (time.perf_counter() - start) / calls


calls = max(1, int(batch_s / timed(1)))  # the first call is cold
warm = [timed(calls) for _ in range(repeats)]
cold = []
for _ in range(repeats):
    for f in caches:
        f.cache_clear()
    cold.append(timed(1))
cold, warm = 1e3 * min(cold), 1e3 * min(warm)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"cold_ms": round(cold, 3), "warm_ms": round(warm, 3), "peak_rss_mb": round(peak, 1)}))
"""


def main():
    checkout = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ROOT)
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    result = {}
    for n_cap in SIZES:
        out = subprocess.run([sys.executable, "-c", CHILD, str(n_cap), str(REPEATS), str(BATCH_S)],
                             env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
        result[str(n_cap)] = json.loads(out)
        print(f"N={n_cap}: {result[str(n_cap)]}", file=sys.stderr)
    print(json.dumps({"checkout": checkout, "pmf": result}, indent=1))


if __name__ == "__main__":
    main()
