#!/usr/bin/env python3
"""Noise study for the end-to-end benchmark, and bounds from it.

  python3 bench/e2e/noise.py [--launches 5] [--workloads A B ...]
                             [--first-seed 1] [--out N.json]
                             [--write]

Launches run.py once per (launch, workload), interleaving the workloads so
that a slow spell of the host spreads over all of them; launch i uses seed
first_seed + i. For every (workload, metric) of an untraced run it prints
the median, the quartiles and the spread, (Q3 - Q1) / median. Runs of the same
(workload, seed) found in --merge files must have equal digests.

With --write, each end-to-end metric's bound in BENCHMARK.json becomes
3.5 x its largest spread over the workloads and the sets of runs (each
--merge file is one set, this invocation's launches another), so each set's
spread stays under a third of the bound; rounded up to a whole percent, at
least 2%, at most 0.25 (the largest bound BENCHMARK.json admits). A metric
whose largest spread leaves 0.25 less than 1.5x headroom is moved to
per_layer. setup_s, whose bound guards its median rather than its spread,
takes 0.25 and is never moved. The table covers every metric an untraced
run computes, so a metric moved to per_layer on a noisy host can be seen to
have settled on a quieter one.

  python3 bench/e2e/noise.py --tcast-bench PATH [--filter common/run_trials]
                             [--launches 10]

instead launches a tier-1 tcast_bench binary, one process per launch, and
reports each benchmark's items/s with its quartiles: the tool behind the
run_trials verdict in README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402

import benchlib  # noqa: E402

BOUND_FLOOR = 0.02
BOUND_CAP = 0.25
BOUND_FACTOR = 3.5
BOUND_HEADROOM = 1.5


def launch(workload, seed):
    """One run.py process; returns its result record, trimmed."""
    tmp = benchlib.scratch_dir()
    try:
        out = os.path.join(tmp, "run.json")
        cmd = [sys.executable, os.path.join(benchlib.HERE, "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "0",
               "--out", out]
        proc = subprocess.run(cmd, cwd=benchlib.ROOT, capture_output=True,
                              text=True, check=False)
        if not os.path.isfile(out):
            sys.exit(f"noise.py: {workload} seed {seed} failed:\n"
                     f"{proc.stderr}")
        rec = benchlib.load_json(out)["runs"][0]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"workload": workload, "seed": seed, "correct": rec["correct"],
            "digest": rec["digest"], "host": rec["host"],
            "metrics": rec["metrics"]}


def summarize(runs):
    """{(workload, metric): (q1, median, q3, spread, n)}."""
    table = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        for name in sorted({k for r in mine for k in r["metrics"]}):
            values = [r["metrics"][name] for r in mine if name in r["metrics"]]
            q1, q2, q3 = benchlib.quartiles(values)
            table[(workload, name)] = (q1, q2, q3, benchlib.spread(values),
                                       len(values))
    return table


def digest_mismatches(runs):
    seen, bad = {}, []
    for r in runs:
        key = (r["workload"], r["seed"])
        if key in seen and seen[key] != r["digest"]:
            bad.append(key)
        seen.setdefault(key, r["digest"])
    return bad


def write_bounds(spec, sets):
    spreads = {}
    for runs in sets:
        for (_, metric), row in summarize(runs).items():
            spreads[metric] = max(spreads.get(metric, 0.0), row[3])
    keep, demoted = [], []
    for m in spec["end_to_end"]:
        if m["name"] == "setup_s":
            m["bound"] = BOUND_CAP
            keep.append(m)
            continue
        s = spreads.get(m["name"])
        if s is None:
            keep.append(m)
            continue
        if s * BOUND_HEADROOM > BOUND_CAP:
            demoted.append({k: m[k] for k in ("name", "unit", "better")})
            print(f"demoted {m['name']}: spread {s:.4f} leaves {BOUND_CAP} "
                  f"less than {BOUND_HEADROOM}x headroom")
        else:
            m["bound"] = min(BOUND_CAP, max(
                BOUND_FLOOR, math.ceil(BOUND_FACTOR * s * 100) / 100))
            keep.append(m)
    spec["end_to_end"] = keep
    spec["per_layer"] = demoted + spec["per_layer"]
    benchlib.write_json(benchlib.SPEC_PATH, spec)


def tcast_bench_study(binary, bench_filter, launches):
    samples = {}
    tmp = benchlib.scratch_dir()
    try:
        for i in range(launches):
            out = os.path.join(tmp, f"launch{i}.json")
            subprocess.run([binary, "--filter", bench_filter, "--json", out],
                           check=True, stdout=subprocess.DEVNULL)
            for b in benchlib.load_json(out)["benchmarks"]:
                samples.setdefault(b["name"], []).append(b["items_per_s"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{'benchmark':48} {'Q1':>11} {'median':>11} {'Q3':>11} spread")
    for name, values in sorted(samples.items()):
        q1, q2, q3 = benchlib.quartiles(values)
        print(f"{name:48} {q1:11.4g} {q2:11.4g} {q3:11.4g} "
              f"{benchlib.spread(values):.3f}")
    return samples


def main():
    spec = benchlib.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--launches", type=int, default=5)
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", help="write the raw runs here (JSON)")
    p.add_argument("--merge", nargs="*", default=[],
                   help="earlier --out files to include")
    p.add_argument("--write", action="store_true",
                   help="write bounds into BENCHMARK.json")
    p.add_argument("--tcast-bench", help="tier-1 tcast_bench binary")
    p.add_argument("--filter", default="common/run_trials")
    args = p.parse_args()

    if args.tcast_bench:
        samples = tcast_bench_study(os.path.abspath(args.tcast_bench),
                                    args.filter, args.launches)
        if args.out:
            benchlib.write_json(args.out, samples)
        return 0

    sets = [benchlib.load_json(path)["runs"] for path in args.merge]
    new = []
    for i in range(args.launches):
        for workload in args.workloads:
            r = launch(workload, args.first_seed + i)
            new.append(r)
            print(f"launch {i} {workload} seed {r['seed']} "
                  f"correct={r['correct']}", file=sys.stderr)
    if args.out:
        benchlib.write_json(args.out, {"runs": new})
    if new:
        sets.append(new)
    runs = [r for runs_of_set in sets for r in runs_of_set]

    table = summarize(runs)
    print(f"{'workload':16} {'metric':20} {'Q1':>12} {'median':>12} "
          f"{'Q3':>12} {'spread':>7} {'n':>3}")
    for (workload, metric), (q1, q2, q3, s, n) in sorted(table.items()):
        print(f"{workload:16} {metric:20} {q1:12.6g} {q2:12.6g} {q3:12.6g} "
              f"{s:7.4f} {n:3d}")
    bad = digest_mismatches(runs)
    for workload, seed in bad:
        print(f"DIGEST MISMATCH: {workload} seed {seed}")
    incorrect = [r for r in runs if not r["correct"]]
    for r in incorrect:
        print(f"INCORRECT: {r['workload']} seed {r['seed']}")
    if args.write:
        write_bounds(spec, sets)
    return 1 if bad or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
