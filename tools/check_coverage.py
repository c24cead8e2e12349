#!/usr/bin/env python3
"""Line-coverage gate for the core, fault, packet-tier, simulation and service
libraries, built on bare gcov.

Walks a build tree for .gcda files, runs `gcov --json-format --stdout` on
each, and aggregates executable/executed line counts per source file. The
gated subjects are the directories in GATED_PREFIXES. Their combined line
coverage must not drop below the committed baseline
(tools/coverage_baseline.json) by more than --tolerance; a run that *gains*
coverage prints a hint to re-record the baseline but never fails.

No gcovr/lcov dependency — CI containers only carry the compiler, and
gcov's JSON mode (GCC ≥ 9) has everything a line gate needs. Also emits a
small standalone HTML report for the CI artifact.

Usage:
  # gate against the committed baseline (CI):
  tools/check_coverage.py --build-dir build-cov --baseline tools/coverage_baseline.json \
      [--html-out coverage.html] [--tolerance 0.01]

  # record a new baseline after intentionally changing coverage:
  tools/check_coverage.py --build-dir build-cov --baseline tools/coverage_baseline.json --record
"""

import argparse
import json
import os
import subprocess
import sys

# Repo-relative directory prefixes whose combined line coverage is gated.
GATED_PREFIXES = ("src/common/", "src/core/", "src/faults/", "src/chaos/",
                  "src/radio/", "src/rcd/", "src/group/", "src/testbed/",
                  "src/sim/", "src/service/")
GATED_LABEL = " + ".join(p.rstrip("/") for p in GATED_PREFIXES)


def find_gcda(build_dir):
    out = []
    for root, _dirs, files in os.walk(build_dir):
        for name in files:
            if name.endswith(".gcda"):
                out.append(os.path.join(root, name))
    return sorted(out)


def gcov_json(gcda_path):
    """Runs gcov in JSON mode for one .gcda; returns parsed report dicts.
    gcov emits one JSON document per line with --stdout."""
    proc = subprocess.run(
        ["gcov", "--json-format", "--stdout", "-b", gcda_path],
        capture_output=True, text=True,
        cwd=os.path.dirname(gcda_path) or ".")
    if proc.returncode != 0:
        print(f"check_coverage: gcov failed on {gcda_path}: "
              f"{proc.stderr.strip()}", file=sys.stderr)
        return []
    docs = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            docs.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return docs


def repo_relative(path, repo_root):
    """Maps a gcov-reported source path onto a repo-relative one, or None
    for sources outside the repo (system headers, third-party)."""
    if not os.path.isabs(path):
        # gcov reports paths relative to the compilation directory; resolve
        # optimistically against the repo root.
        candidate = os.path.normpath(os.path.join(repo_root, path))
    else:
        candidate = os.path.normpath(path)
    try:
        rel = os.path.relpath(candidate, repo_root)
    except ValueError:
        return None
    if rel.startswith(".."):
        return None
    return rel.replace(os.sep, "/")


def collect(build_dir, repo_root):
    """Aggregates {repo_relative_source: {line_no: max_count}} over every
    .gcda in the tree. max over objects: a line is covered if ANY test
    binary executed it."""
    coverage = {}
    gcdas = find_gcda(build_dir)
    if not gcdas:
        raise SystemExit(
            f"check_coverage: no .gcda files under {build_dir}; build with "
            "--coverage and run the test suite first")
    for gcda in gcdas:
        for doc in gcov_json(gcda):
            for f in doc.get("files", []):
                rel = repo_relative(f.get("file", ""), repo_root)
                if rel is None or not rel.startswith("src/"):
                    continue
                lines = coverage.setdefault(rel, {})
                for ln in f.get("lines", []):
                    no = ln.get("line_number")
                    count = ln.get("count", 0)
                    if no is None:
                        continue
                    lines[no] = max(lines.get(no, 0), count)
    return coverage


def summarize(coverage):
    """Returns {source: (covered, total)} plus the gated aggregate."""
    per_file = {}
    gated_covered = gated_total = 0
    for src in sorted(coverage):
        lines = coverage[src]
        total = len(lines)
        covered = sum(1 for c in lines.values() if c > 0)
        per_file[src] = (covered, total)
        if src.startswith(GATED_PREFIXES):
            gated_covered += covered
            gated_total += total
    return per_file, gated_covered, gated_total


def per_prefix(per_file):
    """{prefix: (covered, total)} over the gated prefixes."""
    out = {p: (0, 0) for p in GATED_PREFIXES}
    for src, (covered, total) in per_file.items():
        for p in GATED_PREFIXES:
            if src.startswith(p):
                c, t = out[p]
                out[p] = (c + covered, t + total)
    return out


def render_html(per_file, gated_covered, gated_total, out_path):
    def pct(c, t):
        return 100.0 * c / t if t else 0.0

    rows = []
    for src, (covered, total) in sorted(per_file.items()):
        gated = src.startswith(GATED_PREFIXES)
        rows.append(
            f"<tr class={'gated' if gated else 'plain'}>"
            f"<td><code>{src}</code>{' *' if gated else ''}</td>"
            f"<td>{covered}/{total}</td>"
            f"<td>{pct(covered, total):.1f}%</td></tr>")
    html = f"""<!doctype html>
<html><head><meta charset="utf-8"><title>tcast line coverage</title>
<style>
 body {{ font-family: sans-serif; margin: 2em; }}
 table {{ border-collapse: collapse; }}
 td, th {{ border: 1px solid #ccc; padding: 4px 10px; text-align: left; }}
 tr.gated {{ background: #eef6ee; }}
 .headline {{ font-size: 1.2em; margin-bottom: 1em; }}
</style></head><body>
<h1>tcast line coverage</h1>
<p class="headline">Gated subjects ({GATED_LABEL}, marked *):
<b>{gated_covered}/{gated_total} lines
({pct(gated_covered, gated_total):.2f}%)</b></p>
<table><tr><th>source</th><th>lines</th><th>coverage</th></tr>
{os.linesep.join(rows)}
</table></body></html>
"""
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(html)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", required=True,
                        help="build tree compiled with --coverage, after a "
                             "test run (contains the .gcda files)")
    parser.add_argument("--baseline", required=True,
                        help="baseline JSON path "
                             "(tools/coverage_baseline.json)")
    parser.add_argument("--record", action="store_true",
                        help="write the measured coverage as the new "
                             "baseline instead of gating")
    parser.add_argument("--tolerance", type=float, default=0.01,
                        help="allowed drop in gated line-coverage fraction "
                             "before failing (default 0.01 = one point)")
    parser.add_argument("--html-out",
                        help="write a standalone HTML report here")
    parser.add_argument("--repo-root", default=None,
                        help="repository root (default: parent of tools/)")
    args = parser.parse_args(argv)

    repo_root = os.path.abspath(
        args.repo_root or
        os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

    coverage = collect(args.build_dir, repo_root)
    per_file, gated_covered, gated_total = summarize(coverage)
    if gated_total == 0:
        raise SystemExit("check_coverage: no gated sources "
                         f"({', '.join(GATED_PREFIXES)}) in the gcov output")

    fraction = gated_covered / gated_total
    for prefix, (covered, total) in per_prefix(per_file).items():
        print(f"check_coverage:   {prefix:14} {covered}/{total}"
              + (f" = {covered / total:.2%}" if total else ""))
    print(f"check_coverage: {GATED_LABEL} line coverage "
          f"{gated_covered}/{gated_total} = {fraction:.2%}")

    if args.html_out:
        render_html(per_file, gated_covered, gated_total, args.html_out)
        print(f"check_coverage: HTML report at {args.html_out}")

    if args.record:
        baseline = {
            "schema": "tcast-coverage-v1",
            "gated_prefixes": list(GATED_PREFIXES),
            "line_fraction": round(fraction, 6),
            "covered": gated_covered,
            "total": gated_total,
        }
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"check_coverage: baseline recorded to {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        print("check_coverage: no baseline committed yet; soft pass "
              "(record one with --record)")
        return 0

    with open(args.baseline, "r", encoding="utf-8") as f:
        baseline = json.load(f)
    want = float(baseline.get("line_fraction", 0.0))
    if fraction + args.tolerance < want:
        print(f"check_coverage: FAIL — gated coverage {fraction:.2%} is "
              f"below the recorded baseline {want:.2%} (tolerance "
              f"{args.tolerance:.0%}). New code needs tests, or re-record "
              "the baseline deliberately with --record.")
        return 1
    # The recorded fraction is rounded to 6 digits; compare past that
    # rounding so an unchanged run doesn't claim coverage "rose".
    if round(fraction, 6) > want:
        print(f"check_coverage: coverage rose above the baseline "
              f"({want:.2%} -> {fraction:.2%}); consider re-recording so "
              "the gate ratchets up")
    print("check_coverage: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
