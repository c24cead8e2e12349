#!/usr/bin/env python3
"""End-to-end benchmark of tcast: build, run, check, report.

One workload (the form BENCHMARK.json's command takes):

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Several workloads, each in its own process:

  python3 bench/e2e/run.py [--workloads A B ...] [--seed N] [--traced]
                           [--smoke] [--out R.json]

The benchmark is built from source first (a Release CMake project in
bench/e2e, under $CARGO_TARGET_DIR/e2e or .bench_build/e2e). Every metric is
printed as `workload metric value unit`; the last line of standard output is
one JSON object {correct, attempted, failed, metrics}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list (and spans.jsonl is written next to the result record). The run fails
(exit 1, correct=false) when any output check fails: a wrong verdict, a
digest that differs from the golden for the default seed, or a traced run
whose digest differs from the untraced one. --smoke runs reduced sizes,
with their own goldens, in about a second of measurement per workload.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import benchlib  # noqa: E402

ROOT = benchlib.ROOT
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds tcast_e2e and tcastd; returns the build
    directory. Build output goes to stderr."""
    for needed in ("src/CMakeLists.txt", "tools/tcastd.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full tcast checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = benchlib.build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", benchlib.HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "tcast_e2e", "tcastd",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return out


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return os.environ.get("TCAST_GIT_SHA", "unknown")
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def host_record(binary_host, load_before):
    nproc = os.cpu_count() or 1
    return {
        "git_sha": git_sha(),
        "compiler": binary_host.get("compiler", "unknown"),
        "build_type": binary_host.get("build_type", "unknown"),
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        # A host already busy before the run measures contention.
        "loaded_host": load_before[0] > nproc / 2,
    }


def run_workload(out, name, seed, seconds, trace, smoke, goldens):
    """Runs one workload in its own process; returns its result record."""
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    run_dir = os.path.join(out, "run", f"{tag}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(out, "tcast_e2e"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--tcastd", os.path.join(out, "tcastd"), "--run-dir", run_dir]
    if trace:
        cmd += ["--spans", os.path.join(results, f"{tag}-spans.jsonl")]
    if smoke:
        cmd.append("--smoke")
    load_before = os.getloadavg()
    # Its own process group, so the daemon it forks is stopped with it even
    # if tcast_e2e dies or hangs.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True,
                            env=dict(os.environ, TMPDIR=run_dir))
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"{name}: no result within {RUN_TIMEOUT_S} s\n"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{name}: tcast_e2e exited {proc.returncode}")
    rec = json.loads(lines[-1])

    problems = list(rec["failures"])
    golden = goldens.get("smoke" if smoke else "full", {}).get(name)
    if seed == goldens.get("seed") and golden and rec["digest"] != golden:
        problems.append(f"digest {rec['digest']} differs from golden {golden}")
    if trace and rec.get("traced_digest") != rec["digest"]:
        problems.append("traced digest differs from untraced digest")
    rec["problems"] = problems
    rec["correct"] = not problems and rec["attempted"] >= 1
    rec["host"] = host_record(rec.get("host", {}), load_before)
    with open(os.path.join(results, f"{tag}.json"), "w",
              encoding="utf-8") as f:
        json.dump(rec, f, indent=2)
    return rec


def selected_metrics(spec, rec, trace):
    """{name: {value, unit}} for the metric list of this mode."""
    defs = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for d in defs:
        value = rec["metrics"].get(d["name"])
        if value is None:
            fail(f"{rec['workload']}: metric {d['name']} missing")
        metrics[d["name"]] = {"value": value, "unit": d["unit"]}
    return metrics


def main():
    spec = benchlib.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--workloads", nargs="+", choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--traced", action="store_true", help="same as --trace 1")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", help="write every result record here as JSON")
    p.add_argument("--update-goldens", action="store_true",
                   help="store this run's digests as the goldens")
    args = p.parse_args()
    trace = bool(args.trace or args.traced)
    seconds = args.seconds or (1 if args.smoke else spec["run_seconds"])
    single = args.workload is not None
    workloads = [args.workload] if single else (args.workloads or names)

    out = build()
    goldens = (benchlib.load_json(benchlib.GOLDENS_PATH)
               if os.path.isfile(benchlib.GOLDENS_PATH) else {})
    if args.update_goldens and (args.seed != 1 or trace):
        fail("goldens are taken from untraced runs of seed 1")
    records = []
    for name in workloads:
        t0 = time.monotonic()
        rec = run_workload(out, name, args.seed, seconds, trace, args.smoke,
                           {} if args.update_goldens else goldens)
        rec["wall_s"] = time.monotonic() - t0
        # Before the metrics: a run stopped by a failed check lacks some.
        for problem in rec["problems"]:
            print(f"{name} CHECK FAILED: {problem}", file=sys.stderr)
        rec["selected"] = selected_metrics(spec, rec, trace)
        records.append(rec)
        for metric, m in rec["selected"].items():
            print(f"{name} {metric} {m['value']!r} {m['unit']}")
        if rec["host"]["loaded_host"]:
            print(f"{name} warning: 1-minute load "
                  f"{rec['host']['loadavg_before'][0]:.2f} above nproc/2 at "
                  "start", file=sys.stderr)

    if args.update_goldens:
        goldens["seed"] = 1
        section = goldens.setdefault("smoke" if args.smoke else "full", {})
        for rec in records:
            section[rec["workload"]] = rec["digest"]
        benchlib.write_json(benchlib.GOLDENS_PATH, goldens)
    if args.out:
        benchlib.write_json(args.out, {"seed": args.seed, "trace": trace,
                                       "smoke": args.smoke,
                                       "seconds": seconds, "runs": records})

    correct = all(r["correct"] for r in records)
    if single:
        metrics = records[0]["selected"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in r["selected"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
