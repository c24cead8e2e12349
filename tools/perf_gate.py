#!/usr/bin/env python3
"""Performance gate: a change against its parent, built and run on one machine.

  python3 tools/perf_gate.py --parent-build DIR --change-build DIR
      [--out-dir DIR] [--summary-out PATH]

Each build dir is a Release CMake tree of tcast. The gate launches
`bench/tcast_bench --quick` and then `bench/service_bench --quick` from
each side, alternating which side goes first, for 10 pairs (even pairs
run the parent first). Every benchmark is compared on items_per_s,
higher is better; the service/* rows also on p99_us and p999_us, lower is
better.

A row regresses when the parent beats the change under the claim rule of
bench/e2e/compare.py with the sides swapped: the parent wins at least 9 of
10 pairs (ties count for neither), and the medians differ by more than the
change's own quartile distance. A benchmark that the change's
`tcast_bench --list` registers, but that a change report lacks or reports
with zero throughput, fails the gate too; so does a metric the change
stops reporting. A benchmark only the parent reports is listed as removed,
one only the change reports as new; neither fails. Exit status 1 on any
failure.

--out-dir receives parent.json and change.json, every run in the format of
bench/e2e/compare.py's result files. --summary-out appends the table as
markdown (pass "$GITHUB_STEP_SUMMARY" in CI).

  python3 tools/perf_gate.py --selftest

checks the rules on synthetic reports.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "bench", "e2e"))
import benchlib  # noqa: E402
from compare import MIN_PAIRS, claim  # noqa: E402

TCAST_BENCH = os.path.join("bench", "tcast_bench")
SERVICE_BENCH = os.path.join("bench", "service_bench")
THROUGHPUT = ("items_per_s", "higher")
TAIL_LATENCY = (("p99_us", "lower"), ("p999_us", "lower"))

OK, REGRESSION, MISSING, NEW, REMOVED = (
    "ok", "regression", "missing", "new", "removed")


def gated_metrics(name):
    """[(metric, better)] compared for benchmark `name`."""
    if name.startswith("service/"):
        return [THROUGHPUT, *TAIL_LATENCY]
    return [THROUGHPUT]


def metrics_of(bench):
    metrics = {"items_per_s": bench["items_per_s"]}
    metrics.update(bench.get("percentiles", {}))
    return {m: metrics[m] for m, _ in gated_metrics(bench["name"])
            if m in metrics}


def run_report(cmd, path):
    proc = subprocess.run(cmd + ["--json", path], capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0 or not os.path.isfile(path):
        sys.exit(f"perf_gate.py: {' '.join(cmd)} failed with exit status "
                 f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return benchlib.load_json(path)["benchmarks"]


def launch(build):
    """One quick pass of both benchmark binaries: {name: metrics}."""
    tmp = tempfile.mkdtemp(prefix="perf_gate")
    try:
        benches = []
        for binary in (TCAST_BENCH, SERVICE_BENCH):
            benches += run_report([os.path.join(build, binary), "--quick"],
                                  os.path.join(tmp, "report.json"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {b["name"]: metrics_of(b) for b in benches}


def registered(build):
    """Names the build's tcast_bench --list registers."""
    out = subprocess.run([os.path.join(build, TCAST_BENCH), "--list"],
                         capture_output=True, text=True, check=True).stdout
    return {line.split()[0] for line in out.splitlines() if line.strip()}


def collect(parent, change, launch_fn, progress=sys.stderr):
    """Runs MIN_PAIRS alternating pairs; returns (parent_runs, change_runs)."""
    sides = {"parent": (parent, []), "change": (change, [])}
    for i in range(MIN_PAIRS):
        for side in ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent"):
            build, runs = sides[side]
            for name, metrics in sorted(launch_fn(build).items()):
                runs.append({"workload": name, "seed": i, "metrics": metrics})
        if progress:
            print(f"perf_gate.py: pair {i + 1}/{MIN_PAIRS}", file=progress)
    return sides["parent"][1], sides["change"][1]


def values(runs, name, metric):
    """{pair: value} of one benchmark's metric."""
    return {r["seed"]: r["metrics"][metric] for r in runs
            if r["workload"] == name and metric in r["metrics"]}


def judge(parent_runs, change_runs, names):
    """Rows of (benchmark, metric, status, parent_median, change_median,
    parent_wins, note); medians and wins are None where nothing compares."""
    rows = []
    reported = {r["workload"] for r in change_runs}
    for name in sorted({r["workload"] for r in parent_runs} | reported |
                       set(names)):
        if name not in reported and name not in names:
            p = values(parent_runs, name, THROUGHPUT[0]).values()
            rows.append((name, THROUGHPUT[0], REMOVED,
                         benchlib.quartiles(p)[1], None, None,
                         "only the parent reports it"))
            continue
        for metric, better in gated_metrics(name):
            p = values(parent_runs, name, metric)
            c = values(change_runs, name, metric)
            if metric != THROUGHPUT[0] and not p and not c:
                continue
            if len(c) < MIN_PAIRS or (metric == THROUGHPUT[0] and
                                      min(c.values()) <= 0):
                rows.append((name, metric, MISSING, None, None, None,
                             f"the change reports it in {len(c)} of "
                             f"{MIN_PAIRS} pairs, or with zero throughput"))
                continue
            cmed = benchlib.quartiles(c.values())[1]
            if not p:
                rows.append((name, metric, NEW, None, cmed, None,
                             "only the change reports it"))
                continue
            pmed = benchlib.quartiles(p.values())[1]
            wins = sum(1 for s in set(p) & set(c)
                       if benchlib.worse_by(better, p[s], c[s]) > 0)

            def as_runs(vals):
                return [{"workload": name, "seed": s,
                         "metrics": {metric: v}} for s, v in vals.items()]

            # The parent "claims a gain" over the change: swap the sides.
            beaten, _ = claim(as_runs(c), as_runs(p), name, metric, better)
            rows.append((name, metric, REGRESSION if beaten else OK, pmed,
                         cmed, wins, f"parent won {wins}/{MIN_PAIRS} pairs, "
                         f"median {pmed:.6g} -> {cmed:.6g}"))
    return rows


def failed(rows):
    return [r for r in rows if r[2] in (REGRESSION, MISSING)]


def cells(row):
    """The table cells of one row, as text."""
    name, metric, status, pmed, cmed, wins, _ = row
    ratio = cmed / pmed if pmed and cmed is not None else None
    return (name, metric, *("-" if v is None else format(v, ".4g")
                            for v in (pmed, cmed, ratio)),
            "-" if wins is None else f"{wins}/{MIN_PAIRS}", status)


def render_text(rows):
    width = max([len("benchmark")] + [len(r[0]) for r in rows])
    lines = [f"{'benchmark':{width}} {'metric':11} {'parent':>11} "
             f"{'change':>11} {'ratio':>6} {'parent won':>10}  status"]
    for name, metric, pmed, cmed, ratio, won, status in (
            cells(r) for r in rows):
        lines.append(f"{name:{width}} {metric:11} {pmed:>11} {cmed:>11} "
                     f"{ratio:>6} {won:>10}  {status}")
    return "\n".join(lines)


def render_markdown(rows):
    lines = [f"### Performance gate: change vs parent, {MIN_PAIRS} pairs on "
             "one runner", "",
             "| benchmark | metric | parent median | change median | "
             "change/parent | parent won | status |",
             "|---|---|---:|---:|---:|---:|---|"]
    for name, metric, pmed, cmed, ratio, won, status in (
            cells(r) for r in rows):
        if status in (REGRESSION, MISSING):
            status = f"**{status}**"
        lines.append(f"| `{name}` | {metric} | {pmed} | {cmed} | {ratio} | "
                     f"{won} | {status} |")
    return "\n".join(lines) + "\n"


def report(rows):
    print(render_text(rows))
    bad = failed(rows)
    for name, metric, status, *_, note in bad:
        print(f"perf_gate.py: {status}: {name} {metric}: {note}")
    removed = [r[0] for r in rows if r[2] == REMOVED]
    if removed:
        print(f"perf_gate.py: removed: {', '.join(removed)}")
    print(f"perf_gate.py: {len(bad)} failure(s) over {len(rows)} row(s)")
    return 1 if bad else 0


def selftest():
    names = ["a/steady", "a/hot", "a/skipped", "service/rig"]

    def build(hot=1.0, skip=None, zero=None, tail=1.0, plain=None,
              extra=None):
        """A fake build: build(pair) is its launch in that pair, as
        {name: metrics}. `hot` scales a/hot's throughput, `tail` the
        service p99. The noise, up to 4%, follows the pair and the row but
        not the side, so a row the change leaves alone ties in every pair."""
        def metrics(name, pair):
            m = {"items_per_s": 0.0 if name == zero else
                 100.0 * hot if name == "a/hot" else 100.0}
            if name.startswith("service/") and name != plain:
                m.update(p99_us=400.0 * tail, p999_us=500.0)
            noise = 1 + 0.02 * ((3 * pair + len(name)) % 5 - 2)
            return {k: v * noise for k, v in m.items()}
        shown = [n for n in names + [extra] if n and n != skip]
        return lambda pair: {n: metrics(n, pair) for n in shown}

    def gate(parent, change):
        """({(bench, metric): (status, parent_wins)}, failing keys)."""
        builds, launched = {"P": parent, "C": change}, {"P": 0, "C": 0}

        def launch_fake(side):  # a side's k-th launch is in pair k
            launched[side] += 1
            return builds[side](launched[side] - 1)
        rows = judge(*collect("P", "C", launch_fake, None), names)
        return ({r[:2]: (r[2], r[5]) for r in rows},
                {r[:2] for r in failed(rows)})

    same = gate(build(extra="a/gone"), build())
    skipped = gate(build(), build(skip="a/skipped"))
    new = gate(build(), build(extra="a/new"))
    # 30% slower in pairs 0-7 and 10% faster in pairs 8-9.
    slow, fast = build(hot=0.7), build(hot=1.1)
    eight = gate(build(), lambda pair: (slow if pair < 8 else fast)(pair))
    close = gate(build(), build(hot=0.99))
    checks = [
        ("same code: no failure; a parent-only bench is removed",
         not same[1] and same[0][("a/gone", "items_per_s")][0] == REMOVED),
        ("30% slower on one row: that row alone regresses",
         gate(build(), build(hot=0.7))[1] == {("a/hot", "items_per_s")}),
        ("a registered bench the change skips fails",
         skipped[1] == {("a/skipped", "items_per_s")} and
         skipped[0][("a/skipped", "items_per_s")][0] == MISSING),
        ("zero throughput fails",
         gate(build(), build(zero="a/steady"))[1] ==
         {("a/steady", "items_per_s")}),
        ("30% higher service p99 regresses",
         gate(build(), build(tail=1.3))[1] == {("service/rig", "p99_us")}),
        ("a service row that stops reporting percentiles fails",
         gate(build(), build(plain="service/rig"))[1] ==
         {("service/rig", "p99_us"), ("service/rig", "p999_us")}),
        ("a bench only the change reports is new",
         not new[1] and new[0][("a/new", "items_per_s")][0] == NEW),
        ("parent wins 8 of 10 pairs: not a regression",
         eight[0][("a/hot", "items_per_s")] == (OK, 8)),
        ("parent wins 10 of 10 pairs by 1%, within the change's quartile "
         "distance: not a regression",
         not close[1] and close[0][("a/hot", "items_per_s")] == (OK, 10)),
    ]
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent-build", help="Release build dir of the parent")
    p.add_argument("--change-build", help="Release build dir of the change")
    p.add_argument("--out-dir", help="write parent.json and change.json here")
    p.add_argument("--summary-out", help="append the markdown table here")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if not args.parent_build or not args.change_build:
        p.error("--parent-build and --change-build are required")

    names = registered(args.change_build)
    parent_runs, change_runs = collect(args.parent_build, args.change_build,
                                       launch)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        benchlib.write_json(os.path.join(args.out_dir, "parent.json"),
                            {"runs": parent_runs})
        benchlib.write_json(os.path.join(args.out_dir, "change.json"),
                            {"runs": change_runs})
    rows = judge(parent_runs, change_runs, names)
    if args.summary_out:
        with open(args.summary_out, "a", encoding="utf-8") as f:
            f.write(render_markdown(rows))
    return report(rows)


if __name__ == "__main__":
    sys.exit(main())
