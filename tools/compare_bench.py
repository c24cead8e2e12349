#!/usr/bin/env python3
"""Compare a tcast_bench JSON report against a committed baseline.

Gates CI on performance regressions and reports improvements: for every
benchmark present in both reports, the current median throughput
(items_per_s) is compared against the baseline. A drop of more than
--max-regression fails the gate; a gain of more than --min-improvement is
highlighted (improvements never fail). Benchmarks present only in the
current run are listed as new; benchmarks present only in the baseline are
listed as missing and — with --fail-on-missing — fail the gate, catching
benchmarks that silently stopped being registered or ran.

Benchmarks carrying a `percentiles` object (the service load rigs) are
additionally gated on tail latency: each gated percentile (p99_us,
p999_us) becomes its own comparison row with INVERTED semantics — current
latency more than --max-latency-regression above baseline fails, lower
latency is an improvement. p50 rides along in the report but is not gated
(medians move with machine load; tails are the robustness contract).

A missing baseline file is a soft pass (exit 0): the first PR that adds a
benchmark cannot have a baseline for it yet.

With --summary-out PATH, a GitHub-flavoured markdown table of the
comparison is appended to PATH (pass "$GITHUB_STEP_SUMMARY" in CI).

Usage:
  tools/compare_bench.py --baseline BENCH_tcast.json --current BENCH_ci.json \
      [--max-regression 0.25] [--min-improvement 0.25] [--fail-on-missing] \
      [--summary-out PATH]
"""

import argparse
import json
import os
import sys

# Row statuses, in display order.
STATUS_REGRESSION = "regression"
STATUS_IMPROVED = "improved"
STATUS_OK = "ok"
STATUS_MISSING = "missing"
STATUS_NEW = "new"
STATUS_SKIPPED = "skipped"


def load_report(path):
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)
    if report.get("schema") != "tcast-bench-v1":
        raise ValueError(f"{path}: unexpected schema {report.get('schema')!r}")
    return report


def throughput_by_name(report):
    out = {}
    for bench in report.get("benchmarks", []):
        name = bench.get("name")
        ips = bench.get("items_per_s", 0.0)
        if name and ips > 0.0:
            out[name] = ips
    return out


def bench_names(report):
    return {b.get("name") for b in report.get("benchmarks", [])
            if b.get("name")}


# Tail percentiles gated as latency metrics (p50 is reported, not gated).
GATED_PERCENTILES = ("p99_us", "p999_us")


def latency_by_name(report):
    """Maps "bench [p99_us]"-style metric names to microsecond values for
    every gated percentile a benchmark carries."""
    out = {}
    for bench in report.get("benchmarks", []):
        name = bench.get("name")
        percentiles = bench.get("percentiles") or {}
        if not name:
            continue
        for key in GATED_PERCENTILES:
            value = percentiles.get(key, 0.0)
            if value > 0.0:
                out[f"{name} [{key}]"] = value
    return out


def host_summary(report, label):
    """One line of topology context: scaling benchmarks (sim/parallel/*)
    are meaningless without knowing how many CPUs the run could actually
    schedule on."""
    host = report.get("host") or {}
    threads = int(host.get("hardware_threads", 0))
    affinity = int(host.get("affinity_cpus", 0))
    return (f"  {label}: hardware_threads={threads or '?'} "
            f"affinity_cpus={affinity or '?'}")


def skipped_names(report):
    """Benchmark entries present in the report that contributed no gated
    metric at all — no usable throughput and no gated percentile. These
    must still surface in the summary: a baseline recorded on a machine
    where a bench was skipped (items_per_s == 0) would otherwise make that
    bench invisible forever — no row, no status, nothing to notice."""
    tput = throughput_by_name(report)
    lat = latency_by_name(report)
    out = []
    for name in sorted(bench_names(report)):
        if name in tput:
            continue
        if any(f"{name} [{key}]" in lat for key in GATED_PERCENTILES):
            continue
        out.append(name)
    return out


def compare(base, cur, max_regression, min_improvement):
    """Compares throughput maps; returns rows of
    (name, baseline_ips, current_ips, ratio, status), sorted by name within
    each membership class (shared, then missing, then new). ratio and the
    absent side's throughput are None where not applicable."""
    rows = []
    for name in sorted(base):
        if name not in cur:
            rows.append((name, base[name], None, None, STATUS_MISSING))
            continue
        ratio = cur[name] / base[name]
        if ratio < 1.0 - max_regression:
            status = STATUS_REGRESSION
        elif ratio > 1.0 + min_improvement:
            status = STATUS_IMPROVED
        else:
            status = STATUS_OK
        rows.append((name, base[name], cur[name], ratio, status))
    for name in sorted(set(cur) - set(base)):
        rows.append((name, None, cur[name], None, STATUS_NEW))
    return rows


def compare_latency(base, cur, max_regression, min_improvement):
    """compare() with inverted semantics for latency metrics: the ratio is
    still current/baseline, but a ratio ABOVE 1 + max_regression is the
    regression and one below 1 - min_improvement is the improvement."""
    rows = []
    for name in sorted(base):
        if name not in cur:
            rows.append((name, base[name], None, None, STATUS_MISSING))
            continue
        ratio = cur[name] / base[name]
        if ratio > 1.0 + max_regression:
            status = STATUS_REGRESSION
        elif ratio < 1.0 - min_improvement:
            status = STATUS_IMPROVED
        else:
            status = STATUS_OK
        rows.append((name, base[name], cur[name], ratio, status))
    for name in sorted(set(cur) - set(base)):
        rows.append((name, None, cur[name], None, STATUS_NEW))
    return rows


def render_text(rows, max_regression, min_improvement, unit="items/s"):
    lines = []
    width = max((len(r[0]) for r in rows), default=0)
    for name, base_ips, cur_ips, ratio, status in rows:
        if status == STATUS_MISSING:
            lines.append(f"  {name:<{width}}  (missing from current run)")
        elif status == STATUS_NEW:
            lines.append(f"  {name:<{width}}  (new, no baseline)")
        elif status == STATUS_SKIPPED:
            lines.append(f"  {name:<{width}}  (skipped: baseline has no "
                         "usable metric; not gated)")
        else:
            marker = {
                STATUS_REGRESSION: "  <-- REGRESSION",
                STATUS_IMPROVED: "  <-- improved",
                STATUS_OK: "",
            }[status]
            lines.append(
                f"  {name:<{width}}  {base_ips:12.4g} -> {cur_ips:12.4g} "
                f"{unit}  ({ratio:6.2%}){marker}")
    return "\n".join(lines)


def render_markdown(rows, unit="items/s", title="Benchmark comparison"):
    lines = [
        f"### {title}",
        "",
        f"| benchmark | baseline {unit} | current {unit} | ratio | status |",
        "|---|---:|---:|---:|---|",
    ]
    emoji = {
        STATUS_REGRESSION: ":small_red_triangle_down: regression",
        STATUS_IMPROVED: ":rocket: improved",
        STATUS_OK: "ok",
        STATUS_MISSING: ":warning: missing",
        STATUS_NEW: "new",
        STATUS_SKIPPED: ":fast_forward: skipped (no baseline metric)",
    }
    for name, base_ips, cur_ips, ratio, status in rows:
        base_s = f"{base_ips:.4g}" if base_ips is not None else "—"
        cur_s = f"{cur_ips:.4g}" if cur_ips is not None else "—"
        ratio_s = f"{ratio:.2%}" if ratio is not None else "—"
        lines.append(
            f"| `{name}` | {base_s} | {cur_s} | {ratio_s} | {emoji[status]} |")
    lines.append("")
    return "\n".join(lines)


def gate(rows, fail_on_missing, metric="throughput"):
    """Returns (exit_code, list of failure description lines)."""
    failures = []
    for name, _, _, ratio, status in rows:
        if status == STATUS_REGRESSION:
            failures.append(f"{name}: {ratio:.2%} of baseline {metric}")
        elif status == STATUS_MISSING and fail_on_missing:
            failures.append(f"{name}: registered in baseline but missing "
                            "from the current run")
    return (1 if failures else 0), failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed baseline report (BENCH_tcast.json)")
    parser.add_argument("--current", required=True,
                        help="report from the build under test")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="fail if throughput drops by more than this "
                             "fraction (default 0.25)")
    parser.add_argument("--min-improvement", type=float, default=0.25,
                        help="highlight gains larger than this fraction "
                             "(default 0.25; never fails)")
    parser.add_argument("--max-latency-regression", type=float, default=0.5,
                        help="fail if a gated tail percentile (p99/p999) "
                             "grows by more than this fraction (default "
                             "0.5; tails are noisier than medians)")
    parser.add_argument("--fail-on-missing", action="store_true",
                        help="fail if a baseline benchmark is absent from "
                             "the current run")
    parser.add_argument("--summary-out",
                        help="append a markdown comparison table to this "
                             "file (e.g. $GITHUB_STEP_SUMMARY)")
    args = parser.parse_args(argv)

    if not os.path.exists(args.baseline):
        print(f"compare_bench: no baseline at {args.baseline}; skipping "
              "regression gate (first run for these benchmarks)")
        return 0

    baseline = load_report(args.baseline)
    current = load_report(args.current)

    if baseline.get("quick") != current.get("quick"):
        print(f"compare_bench: WARNING baseline quick={baseline.get('quick')} "
              f"vs current quick={current.get('quick')}; workload sizes "
              "differ, throughput comparison is still scale-free but noisier")

    print("compare_bench: host topology")
    print(host_summary(baseline, "baseline"))
    print(host_summary(current, "current"))

    rows = compare(throughput_by_name(baseline), throughput_by_name(current),
                   args.max_regression, args.min_improvement)
    # Baseline entries with no usable metric get a row UNCONDITIONALLY (in
    # the text output and the markdown summary): a silently-dropped bench
    # is indistinguishable from a healthy one otherwise. Never gated.
    rows += [(name, None, None, None, STATUS_SKIPPED)
             for name in skipped_names(baseline)]
    print(render_text(rows, args.max_regression, args.min_improvement))

    latency_rows = compare_latency(
        latency_by_name(baseline), latency_by_name(current),
        args.max_latency_regression, args.min_improvement)
    if latency_rows:
        print("\n  tail latency (lower is better):")
        print(render_text(latency_rows, args.max_latency_regression,
                          args.min_improvement, unit="us"))

    if args.summary_out:
        with open(args.summary_out, "a", encoding="utf-8") as f:
            f.write(render_markdown(rows) + "\n")
            if latency_rows:
                f.write(render_markdown(latency_rows, unit="us",
                                        title="Tail latency comparison") +
                        "\n")

    improved = sum(1 for r in rows + latency_rows
                   if r[4] == STATUS_IMPROVED)
    code_t, failures = gate(rows, args.fail_on_missing)
    code_l, latency_failures = gate(latency_rows, args.fail_on_missing,
                                    metric="latency (lower is better)")
    failures += latency_failures
    if failures:
        print(f"\ncompare_bench: {len(failures)} failure(s):")
        for line in failures:
            print(f"  {line}")
        return max(code_t, code_l)
    shared = sum(1 for r in rows + latency_rows if r[4] in
                 (STATUS_OK, STATUS_IMPROVED, STATUS_REGRESSION))
    print(f"\ncompare_bench: OK ({shared} compared metric(s), none "
          f"regressed more than {args.max_regression:.0%} throughput / "
          f"{args.max_latency_regression:.0%} tail latency, "
          f"{improved} improved)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
