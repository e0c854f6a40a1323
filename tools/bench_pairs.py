"""Paired benchmark runs of a parent checkout against this working tree.

    git archive --prefix=parent/ <parent-commit> | tar -x -C /some/dir
    python3 tools/bench_pairs.py --parent /some/dir/parent --pairs 5 --out BENCH_13.json

For each workload in BENCHMARK.json and each seed 1..--pairs, runs
`perfbench/run.py --workload W --seed S --seconds N --trace 0` once in the
parent checkout and once in this tree, one run at a time; odd seeds run the
parent first, even seeds the change.  Before each pair, the side that runs
first makes one discarded WARMUP_SECONDS (5) run of the same workload and
seed, kept under "warmup" and left out of the summary, so that the side that
runs first does not also run cold.  After each pair it also starts
SETUP_ONLY (5) `perfbench/worker.py --setup-only` processes per side, with
the environment run.py gives its workers, the sides alternating as
ABBAABBAAB; a run's setup_s is the median of only 5 set-ups, and these extra
samples show how much of a setup_s move is noise.  The output JSON holds
every run and, per workload and end-to-end metric, each side's quartiles
[q1, median, q3], how many pairs the change won (ties count for neither),
how many pairs the side that ran first won (first_wins; a count far from
half reads the run order rather than the code), the relative move of the
median, and a verdict (setup_s also gets the quartiles of the set-up-only
samples):

* "past bound": the change's median is worse than the parent's by more than
  the metric's BENCHMARK.json bound;
* "unresolved": not past the bound, but the parent's own quartile spread is
  wider than the bound, so the runs cannot tell;
* "within bound" otherwise.

Each run also records the minor page faults of its process tree (the
RUSAGE_CHILDREN delta around it), and the summary gives each side's quartiles
of them next to the metrics: where glibc trims the heap can move a timing
with no change in the work done, and the faults show it.  It also gives each
side's quartiles of the ops attempted per run and of peak_rss_mb per 1000
attempted ops: the worker keeps every op's output until its checks run, so
a change that only runs more ops raises peak_rss_mb but lowers it per 1000
ops, while one whose library keeps more memory raises both.  The closing
lines end with each side's count of lines of Python under src/.

The file is rewritten after every pair, so an interrupted run keeps what it
has measured.  The exit code is 1 if any verdict is "past bound" or any run is
incorrect or fails more ops than its pair at the parent, else 0.
"""

import argparse
import glob
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_ONLY = 5  # set-up-only processes per side and pair
WARMUP_SECONDS = 5  # discarded run before each pair, by the side that runs first


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def _run(checkout, workload, seed, seconds):
    """The run's result and the minor page faults of its whole process tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    before = _minor_faults()
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), _minor_faults() - before


def _worker_env(checkout):
    """The environment the checkout's perfbench/run.py starts its workers with."""
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(checkout, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._env()


def _setup_only(checkout, env, workload, seed):
    cmd = [sys.executable, "perfbench/worker.py", "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup"]["setup_s"]


def _src_lines(checkout):
    paths = glob.glob(os.path.join(checkout, "src", "**", "*.py"), recursive=True)
    total = 0
    for path in paths:
        with open(path) as f:
            total += sum(1 for _ in f)
    return total


def _machine():
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    return (f"{os.cpu_count()} vCPU ({model}), Python {platform.python_version()}, "
            f"numpy {numpy.__version__}")


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return [q1, median, q3]


def summarize(runs, metrics, setups):
    """Per workload: seeds, correctness, per metric the quartiles, wins and
    verdict, and each side's quartiles of minor page faults, ops attempted
    and peak_rss_mb per 1000 attempted ops per run; setup_s also gets each
    side's set-up-only quartiles."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs, faults = {}, {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
                faults.setdefault(r["seed"], {})[r["side"]] = r["minor_faults"]
        pairs = {s: p for s, p in sorted(pairs.items()) if len(p) == 2}
        if not pairs:
            continue
        sound = all(
            p["change"]["correct"] and p["parent"]["correct"]
            and p["change"]["failed"] <= p["parent"]["failed"]
            for p in pairs.values()
        )
        table = {}
        for m in metrics:
            name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs.values()]
            change = [p["change"]["metrics"][name]["value"] for p in pairs.values()]
            wins = sum((c < a) if lower else (c > a) for a, c in zip(parent, change))
            # (first-run value, other value) per pair; odd seeds run the parent first
            firsts = [(a, c) if s % 2 else (c, a) for s, a, c in zip(pairs, parent, change)]
            first_wins = sum((f < g) if lower else (f > g) for f, g in firsts)
            pq, cq = _quartiles(parent), _quartiles(change)
            rel = cq[1] / pq[1] - 1.0
            worse = rel if lower else -rel
            if worse > bound:
                verdict = "past bound"
            elif (pq[2] - pq[0]) / pq[1] > bound:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            table[name] = {
                "parent_q1_median_q3": [round(v, 4) for v in pq],
                "change_q1_median_q3": [round(v, 4) for v in cq],
                "change_wins": f"{wins}/{len(pairs)}",
                "first_wins": f"{first_wins}/{len(pairs)}",
                "median_change_rel": round(rel, 4),
                "bound": bound,
                "verdict": verdict,
            }
        if "setup_s" in table:
            for side in ("parent", "change"):
                values = [v for s in setups
                          if s["workload"] == workload and s["seed"] in pairs and s["side"] == side
                          for v in s["setup_s"]]
                if values:
                    table["setup_s"][f"setup_only_{side}_q1_median_q3"] = [round(v, 4) for v in _quartiles(values)]
        summary[workload] = {
            "seeds": list(pairs),
            "all_correct_no_failures": sound,
            "metrics": table,
            "minor_faults_q1_median_q3": {
                side: _quartiles([faults[s][side] for s in pairs]) for side in ("parent", "change")
            },
            "attempted_q1_median_q3": {
                side: _quartiles([p[side]["attempted"] for p in pairs.values()])
                for side in ("parent", "change")
            },
            "peak_rss_mb_per_1000_ops_q1_median_q3": {
                side: [round(v, 4) for v in _quartiles([
                    1000.0 * p[side]["metrics"]["peak_rss_mb"]["value"] / p[side]["attempted"]
                    for p in pairs.values()
                ])]
                for side in ("parent", "change")
            },
        }
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of a checkout of the parent commit")
    ap.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_13.json")
    ap.add_argument("--pairs", type=int, default=5, help="pairs per workload, seeds 1..pairs")
    args = ap.parse_args()
    parent = os.path.abspath(args.parent)
    if not os.path.isfile(os.path.join(parent, "perfbench", "run.py")):
        ap.error(f"no perfbench/run.py under {parent}")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    sides = {"parent": parent, "change": ROOT}
    envs = {side: _worker_env(path) for side, path in sides.items()}
    doc = {
        "description": (
            "perfbench/run.py results for a parent checkout and this change, one run at a "
            "time, written by tools/bench_pairs.py. Pairs alternate which side runs first "
            "(odd seeds: parent first). Before each pair the side that runs first makes one "
            f"discarded {WARMUP_SECONDS} s run of the same workload and seed, kept under warmup "
            "and left out of summary_trace0. summary_trace0 gives per side the quartiles "
            "[q1, median, q3], how many pairs the change won, how many pairs the side that "
            "ran first won (first_wins), and a verdict against each metric's BENCHMARK.json "
            "bound. setup_only holds, per pair and side, the "
            f"setup_s of {SETUP_ONLY} extra perfbench/worker.py --setup-only processes "
            "(sides alternating), whose quartiles summary_trace0 gives next to setup_s. "
            "Each run's minor_faults counts the minor page faults of its process tree; "
            "summary_trace0 gives each side's quartiles of them, of the ops attempted per "
            "run, and of peak_rss_mb per 1000 attempted ops (the worker keeps every op's "
            "output, so peak_rss_mb grows with throughput)."
        ),
        "machine": _machine(),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "src_lines": {side: _src_lines(path) for side, path in sides.items()},
        "summary_trace0": {},
        "runs": [],
        "warmup": [],
        "setup_only": [],
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            result, faults = _run(sides[order[0]], workload, seed, WARMUP_SECONDS)
            doc["warmup"].append({"side": order[0], "workload": workload, "seed": seed,
                                  "minor_faults": faults, "result": result})
            for side in order:
                result, faults = _run(sides[side], workload, seed, seconds)
                doc["runs"].append({"side": side, "workload": workload, "seed": seed, "trace": 0,
                                    "minor_faults": faults, "result": result})
            setup_s = {side: [] for side in order}
            for i in range(SETUP_ONLY):
                for side in (order if i % 2 == 0 else order[::-1]):
                    setup_s[side].append(_setup_only(sides[side], envs[side], workload, seed))
            doc["setup_only"].extend(
                {"side": side, "workload": workload, "seed": seed, "setup_s": values}
                for side, values in setup_s.items()
            )
            doc["summary_trace0"] = summarize(doc["runs"], bench["end_to_end"], doc["setup_only"])
            with open(args.out, "w") as f:
                json.dump(doc, f, indent=1)
                f.write("\n")
            print(f"{workload} seed {seed} done", file=sys.stderr)
    failed = False
    for workload, entry in doc["summary_trace0"].items():
        failed |= not entry["all_correct_no_failures"]
        for name, row in entry["metrics"].items():
            print(f"{workload:14s} {name:12s} {row['parent_q1_median_q3'][1]:10.4g} -> "
                  f"{row['change_q1_median_q3'][1]:10.4g} ({row['median_change_rel']:+.1%}, "
                  f"won {row['change_wins']}, first won {row['first_wins']}): {row['verdict']}")
            if "setup_only_parent_q1_median_q3" in row:
                print(f"{workload:14s} {'set-up only':12s} parent {row['setup_only_parent_q1_median_q3']}, "
                      f"change {row['setup_only_change_q1_median_q3']}")
            failed |= row["verdict"] == "past bound"
        for label, key in (("minor faults", "minor_faults_q1_median_q3"),
                           ("ops", "attempted_q1_median_q3"),
                           ("MB/1000 ops", "peak_rss_mb_per_1000_ops_q1_median_q3")):
            print(f"{workload:14s} {label:12s} parent {entry[key]['parent']}, change {entry[key]['change']}")
    lines = doc["src_lines"]
    print(f"{'src lines':27s} parent {lines['parent']}, change {lines['change']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
