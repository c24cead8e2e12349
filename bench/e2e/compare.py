#!/usr/bin/env python3
"""Parent-vs-change comparison of end-to-end benchmark result sets.

Collect alternating pairs from two checkouts (pair i runs seed
first_seed + i on both sides; even pairs run the parent first, odd pairs the
change first):

  python3 bench/e2e/compare.py collect --parent-root DIR --change-root DIR
      [--pairs 10] [--workloads A B ...] [--first-seed 1]
      --parent-out P.json --change-out C.json

Compare them:

  python3 bench/e2e/compare.py compare --parent P.json --change C.json
      [--claim WORKLOAD:METRIC ...]

For every (workload, end-to-end metric) the change's median may be worse
than the parent's by at most the metric's bound in BENCHMARK.json. When
either side's spread, (Q3 - Q1) / median, is wider than the bound the row
is "unresolved" — unless every change run is better than every parent run.
A --claim holds only with at least 10 pairs, the change winning at least
9 in 10 of them (ties count for neither), and the medians differing by
more than the parent's own quartile distance. Exit status 1 on any
regression or unmet claim.

  python3 bench/e2e/compare.py selftest

checks the rules on synthetic result sets. Result files hold
{"runs": [{"workload", "seed", "metrics": {name: value}}]}, the format of
noise.py --out.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402

import benchlib  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def by_seed(runs, workload):
    return {r["seed"]: r["metrics"] for r in runs if r["workload"] == workload}


def claim(parent_runs, change_runs, workload, metric, better):
    """(holds, reason) under the pair rule."""
    p, c = by_seed(parent_runs, workload), by_seed(change_runs, workload)
    seeds = sorted(set(p) & set(c))
    if len(seeds) < MIN_PAIRS:
        return False, f"{len(seeds)} pairs < {MIN_PAIRS}"
    wins = sum(1 for s in seeds
               if benchlib.worse_by(better, p[s][metric], c[s][metric]) < 0)
    pq1, pmed, pq3 = benchlib.quartiles(p[s][metric] for s in seeds)
    _, cmed, _ = benchlib.quartiles(c[s][metric] for s in seeds)
    if wins < WIN_SHARE * len(seeds):
        return False, f"change won {wins}/{len(seeds)} pairs"
    if abs(cmed - pmed) <= pq3 - pq1:
        return False, (f"median gap {abs(cmed - pmed):.6g} within the "
                       f"parent's quartile distance {pq3 - pq1:.6g}")
    return True, f"change won {wins}/{len(seeds)} pairs"


def regression_rows(parent_runs, change_runs, spec):
    """[(workload, metric, status, worse_by, parent_median, change_median)]."""
    rows = []
    workloads = sorted({r["workload"] for r in parent_runs} &
                       {r["workload"] for r in change_runs})
    for w in workloads:
        p, c = by_seed(parent_runs, w), by_seed(change_runs, w)
        for m in spec["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            pv = [v[name] for v in p.values() if name in v]
            cv = [v[name] for v in c.values() if name in v]
            if not pv or not cv:
                continue
            pmed, cmed = benchlib.quartiles(pv)[1], benchlib.quartiles(cv)[1]
            worse = benchlib.worse_by(better, pmed, cmed)
            if max(benchlib.spread(pv), benchlib.spread(cv)) > bound:
                all_better = all(benchlib.worse_by(better, a, b) < 0
                                 for a in pv for b in cv)
                status = "better" if all_better else "unresolved"
            elif worse > bound:
                status = "regression"
            elif worse < -bound:
                status = "better"
            else:
                status = "ok"
            rows.append((w, name, status, worse, pmed, cmed))
    return rows


def compare(parent_runs, change_runs, spec, claims, out=sys.stdout):
    defs = benchlib.metric_defs(spec)
    failed = False
    print(f"{'workload':16} {'metric':20} {'parent':>12} {'change':>12} "
          f"{'worse by':>9}  status", file=out)
    for w, name, status, worse, pmed, cmed in regression_rows(
            parent_runs, change_runs, spec):
        print(f"{w:16} {name:20} {pmed:12.6g} {cmed:12.6g} {worse:9.4f}  "
              f"{status}", file=out)
        failed |= status == "regression"
    for item in claims:
        workload, metric = item.split(":", 1)
        holds, reason = claim(parent_runs, change_runs, workload, metric,
                              defs[metric]["better"])
        print(f"claim {workload}:{metric}: "
              f"{'holds' if holds else 'not met'} ({reason})", file=out)
        failed |= not holds
    return 1 if failed else 0


def collect(args, spec):
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    sides = {"parent": (args.parent_root, []), "change": (args.change_root, [])}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in names:
            for side in order:
                root, runs = sides[side]
                runs.append(run_once(root, workload, seed))
                print(f"pair {i} {workload} {side}", file=sys.stderr)
    benchlib.write_json(args.parent_out, {"runs": sides["parent"][1]})
    benchlib.write_json(args.change_out, {"runs": sides["change"][1]})
    return 0


def run_once(root, workload, seed):
    tmp = benchlib.scratch_dir()
    try:
        out = os.path.join(tmp, "run.json")
        subprocess.run([sys.executable, "bench/e2e/run.py", "--workload",
                        workload, "--seed", str(seed), "--trace", "0",
                        "--out", out], cwd=root, check=False,
                       stdout=subprocess.DEVNULL)
        if not os.path.isfile(out):
            sys.exit(f"compare.py: {root}: {workload} seed {seed} failed")
        rec = benchlib.load_json(out)["runs"][0]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"workload": workload, "seed": seed, "correct": rec["correct"],
            "metrics": rec["metrics"]}


def selftest():
    spec = {"end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05},
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.05}],
        "per_layer": []}
    rng = random.Random(7)

    def runs(rate, lat, noise, n=10, workload="w"):
        return [{"workload": workload, "seed": s, "metrics": {
            "rate": rate * (1 + rng.uniform(-noise, noise)),
            "lat": lat * (1 + rng.uniform(-noise, noise))}}
            for s in range(n)]

    def status(parent, change, metric):
        return {r[1]: r[2] for r in regression_rows(parent, change, spec)}[metric]

    base = runs(100.0, 1.0, 0.005)
    checks = [
        ("same code is ok", status(base, runs(100.0, 1.0, 0.005), "rate") == "ok"),
        ("10% slower is a regression",
         status(base, runs(90.0, 1.0, 0.005), "rate") == "regression"),
        ("10% more latency is a regression",
         status(base, runs(100.0, 1.1, 0.005), "lat") == "regression"),
        ("spread wider than the bound is unresolved",
         status(runs(100.0, 1.0, 0.3), runs(97.0, 1.0, 0.3), "rate")
         == "unresolved"),
        ("noisy but every change run better is better",
         status(runs(100.0, 1.0, 0.1), runs(150.0, 1.0, 0.1), "rate")
         == "better"),
        ("clear gain: claim holds",
         claim(base, runs(120.0, 1.0, 0.005), "w", "rate", "higher")[0]),
        ("no gain: claim not met",
         not claim(base, runs(100.0, 1.0, 0.005), "w", "rate", "higher")[0]),
        ("9 pairs: claim not met",
         not claim(runs(100.0, 1.0, 0.005, n=9),
                   runs(120.0, 1.0, 0.005, n=9), "w", "rate", "higher")[0]),
    ]
    # 8 wins in 10 pairs: the gain is real but not 9 in 10.
    mixed = runs(120.0, 1.0, 0.005)
    for r in mixed[:2]:
        r["metrics"]["rate"] = 90.0
    checks.append(("8/10 wins: claim not met",
                   not claim(base, mixed, "w", "rate", "higher")[0]))
    # Gap inside the parent's own quartile distance.
    wide = runs(100.0, 1.0, 0.2)
    shifted = [{"workload": "w", "seed": r["seed"],
                "metrics": {"rate": r["metrics"]["rate"] * 1.01,
                            "lat": r["metrics"]["lat"]}} for r in wide]
    checks.append(("gap within parent IQR: claim not met",
                   not claim(wide, shifted, "w", "rate", "higher")[0]))
    bad = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--parent-root", required=True)
    c.add_argument("--change-root", required=True)
    c.add_argument("--pairs", type=int, default=MIN_PAIRS)
    c.add_argument("--workloads", nargs="+")
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--parent-out", required=True)
    c.add_argument("--change-out", required=True)
    k = sub.add_parser("compare")
    k.add_argument("--parent", required=True)
    k.add_argument("--change", required=True)
    k.add_argument("--claim", nargs="*", default=[],
                   help="WORKLOAD:METRIC the change claims to improve")
    sub.add_parser("selftest")
    args = p.parse_args()

    if args.cmd == "selftest":
        return selftest()
    spec = benchlib.load_spec()
    if args.cmd == "collect":
        return collect(args, spec)
    return compare(benchlib.load_json(args.parent)["runs"],
                   benchlib.load_json(args.change)["runs"], spec, args.claim)


if __name__ == "__main__":
    sys.exit(main())
