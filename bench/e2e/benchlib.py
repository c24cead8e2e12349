"""Helpers shared by run.py, noise.py and compare.py."""

import json
import os
import statistics
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
GOLDENS_PATH = os.path.join(HERE, "goldens.json")


def build_dir():
    """Where run.py builds the benchmark and keeps its results."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "e2e")


def scratch_dir():
    """A fresh directory under build_dir() (callers remove it)."""
    os.makedirs(build_dir(), exist_ok=True)
    return tempfile.mkdtemp(dir=build_dir())


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def write_json(path, value):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(value, f, indent=2)
        f.write("\n")
    os.replace(tmp, path)


def load_spec():
    return load_json(SPEC_PATH)


def metric_defs(spec):
    """{name: definition} over end_to_end and per_layer metrics."""
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def worse_by(better, parent, change):
    """How much worse `change` is than `parent`, as a share of `parent`
    (negative when it is better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    if better == "lower":
        return (change - parent) / abs(parent)
    return (parent - change) / abs(parent)
