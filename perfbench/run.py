"""Benchmark harness for perfcol.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the directory holding BENCHMARK.json
and src/).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it records
nproc, the Python version and the source revision.

--trace 0 repeats the workload, each repetition in a fresh interpreter,
while another repetition fits in S seconds (at least once), and reports
the medians of the end-to-end metrics.  Times are scaled by the speed of
the machine measured in the same repetition (see REFERENCE_S in rep.py);
the unscaled medians are printed on the line before the result.

--trace 1 runs one untraced repetition of the workload, then one traced
repetition of every workload plus a pair of (4,5) enumerations with one
and two processes, and reports the per-layer metrics; the spans go to
.perfbench/trace-NAME-seedN.json.

Every repetition checks its outputs outside its timed part; a failed
check makes the result incorrect and the exit status 1.

--workload all runs each workload in turn and prints one result line per
workload.  --smoke shrinks the inputs so that the harness test runs in
seconds; its figures are not comparable with full-size ones.

perfbench/README.md lists the workloads, the metrics and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import self_times
from workloads import SIZES

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper", "enum-5x3", "predicates", "search")
RUN_LIMIT_S = 170  # a run must end within 180 s


class RepFailed(Exception):
    pass


def scaled(r: dict, key: str = "wall_s") -> float:
    return r[key] * r["scale"]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PERFCOL_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def rep(argv: list[str], deadline: float) -> dict:
    """Run perfbench/rep.py in a fresh interpreter and return its JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RepFailed("no time left for another repetition")
    proc = subprocess.Popen([sys.executable, str(HERE / "rep.py"), *argv],
                            cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # the group also holds the pool workers of a --threads repetition
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"rep.py {' '.join(argv)} ran out of time") from None
    if proc.returncode != 0:
        raise RepFailed(f"rep.py {' '.join(argv)} exited {proc.returncode}:\n"
                        + err[-2000:])
    return json.loads(out.splitlines()[-1])


def workload_argv(name: str, seed: int, traced: bool, smoke: bool) -> list[str]:
    argv = ["--workload", name, "--seed", str(seed)]
    return argv + ["--trace"] * traced + ["--smoke"] * smoke


# ---------------------------------------------------------------- untraced

def end_to_end(name, seed, seconds, smoke, deadline):
    start = time.monotonic()
    reps, lengths = [], []
    # start another repetition only while one of median length still fits
    while not reps or (time.monotonic() - start
                       + statistics.median(lengths) <= seconds):
        began = time.monotonic()
        reps.append(rep(workload_argv(name, seed, False, smoke), deadline))
        lengths.append(time.monotonic() - began)
    values = {key: statistics.median(scaled(r, key) for r in reps)
              for key in ("wall_s", "setup_s")}
    values["peak_rss_mib"] = statistics.median(r["peak_rss_mib"] for r in reps)
    raw = {key: statistics.median(r[key] for r in reps)
           for key in ("wall_s", "setup_s", "scale")}
    return values, reps, {"repetitions": len(reps), "unscaled_medians": raw}


# ------------------------------------------------------------------ traced

def per_layer(name, seed, smoke, deadline):
    plain = rep(workload_argv(name, seed, False, smoke), deadline)
    tour = {w: rep(workload_argv(w, seed, True, smoke), deadline)
            for w in WORKLOADS}
    one, two = (rep(["--threads", str(n)] + ["--smoke"] * smoke, deadline)
                for n in (1, 2))
    values = layer_values(tour, smoke)
    values["enumeration.enumerate_cams.m4k5.t2_speedup"] = (
        scaled(one) / scaled(two))
    values["trace_overhead_pct"] = 100 * (scaled(tour[name]) / scaled(plain) - 1)
    return values, [plain, *tour.values(), one, two], tour


class Spans:
    """Queries over one traced repetition's spans, in scaled seconds."""

    def __init__(self, rep: dict):
        self.spans = rep["spans"]
        self.scale = rep["scale"]
        by_id = {s["id"]: s for s in self.spans}
        self.phase = {}
        for s in self.spans:
            top = s
            while top["parent"] is not None:
                top = by_id[top["parent"]]
            self.phase[s["id"]] = top["name"]

    def find(self, name, phase="bench.run", **attrs) -> list[dict]:
        return [s for s in self.spans
                if s["name"] == name and self.phase[s["id"]] == phase
                and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def one(self, name, phase="bench.run") -> dict:
        found = self.find(name, phase)
        if len(found) != 1:
            raise RepFailed(f"expected one {name} span in {phase}, "
                            f"found {len(found)}")
        return found[0]

    def seconds(self, spans) -> float:
        return self.scale * sum(s["end"] - s["start"] for s in spans)

    def per_call(self, spans, calls=None) -> float:
        return self.seconds(spans) / (calls or len(spans))

    def each(self, spans) -> list[float]:
        return [self.scale * (s["end"] - s["start"]) for s in spans]


def p95(values) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def layer_values(tour: dict, smoke: bool) -> dict:
    paper, enum, pred, search = (Spans(tour[w]) for w in WORKLOADS)
    v = {}

    for name in ("cam.is_weakly_symmetric", "cam.is_color_connected",
                 "cam.is_consistent", "enumeration.passes_filters"):
        span = pred.one(name)
        v[f"{name}.us_per_call"] = 1e6 * pred.per_call([span],
                                                       span["attrs"]["calls"])

    enum_cams = "enumeration.enumerate_cams"
    for m, k in ((4, 4), (4, 5)):
        v[f"{enum_cams}.m{m}k{k}.s"] = paper.seconds(
            paper.find(enum_cams, m=m, k=k))
    m, k = SIZES[smoke]["enum"]
    v[f"{enum_cams}.m5k3.s"] = enum.seconds(enum.find(enum_cams, m=m, k=k))
    for label, spans in (("m5k3", enum), ("m4k5", paper)):
        span = spans.one("enumeration.canonical_dedup", phase="bench.probe")
        v[f"enumeration.canonical_dedup.{label}.us_per_matrix"] = (
            1e6 * spans.per_call([span], span["attrs"]["n_in"]))
    counts = tour["enum-5x3"]["counts"]
    v["enumeration.survivors.m5k3"] = counts["survivors"]
    v["enumeration.dedup_in.m5k3"] = counts["dedup_in"]
    v["enumeration.dedup_ratio.m5k3"] = counts["survivors"] / counts["dedup_in"]

    root = paper.one("cli.reproduce_paper")
    v["cli.reproduce_paper.self_s"] = (paper.scale
                                       * self_times(paper.spans)[root["id"]])
    v["spectral.char_poly.solids_ms"] = 1e3 * paper.seconds(
        s for s in paper.find("spectral.char_poly") if s["parent"] == root["id"])
    v["spectral.spectral_filter.us_per_call"] = 1e6 * paper.per_call(
        paper.find("spectral.spectral_filter"))
    v["search.platonic_survey.s"] = paper.seconds(
        paper.find("search.platonic_survey"))
    v["golden.load.ms"] = 1e3 * paper.seconds(
        paper.find("golden.load", phase="bench.setup"))

    v["graphs.build_witness.ms_per_call"] = 1e3 * search.per_call(
        search.find("graphs.build_witness"))
    v["graphs.verify_coloring.us_per_call"] = 1e6 * search.per_call(
        search.find("graphs.verify_coloring"))
    first = search.find("search.find_perfect_coloring", mode="first")
    found = [1e3 * t for t in search.each(
        s for s in first if s["attrs"]["realizable"])]
    refuted = [1e3 * t for t in search.each(
        s for s in first if not s["attrs"]["realizable"])]
    counting = search.find("search.find_perfect_coloring", mode="count_all")
    v["search.call.ms_p50"] = statistics.median(found + refuted)
    v["search.call.ms_p95"] = p95(found + refuted)
    v["search.refuted.ms_p50"] = statistics.median(refuted)
    v["search.refuted.ms_p95"] = p95(refuted)
    v["search.found.ms_p50"] = statistics.median(found)
    v["search.count_all.s"] = search.seconds(counting)
    v["search.refuted"] = len(refuted)
    v["search.found"] = len(found)
    v["search.labeled_total"] = sum(s["attrs"]["labeled"] for s in counting)
    return v


# ------------------------------------------------------------------ output

def source_revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = done.stdout.strip() or None
    return {"git_sha": git_sha, "source_sha256": digest.hexdigest()}


def result_line(values: dict, reps: list[dict], declared: list[dict]) -> dict:
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise RepFailed("metrics differ from BENCHMARK.json: missing "
                        f"{sorted(names - set(values))}, extra "
                        f"{sorted(set(values) - names)}")
    checks = [c for r in reps for c in r["checks"]]
    failed = [label for label, ok in checks if not ok]
    for label in failed:
        print(f"check failed: {label}", file=sys.stderr)
    return {"correct": not failed, "attempted": len(checks),
            "failed": len(failed),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def run_one(name, args, spec) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        values, reps, tour = per_layer(name, args.seed, args.smoke, deadline)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{name}-seed{args.seed}.json").write_text(
            json.dumps({w: {"scale": r["scale"], "spans": r["spans"]}
                        for w, r in tour.items()}))
        return result_line(values, reps, spec["per_layer"]), {}
    values, reps, info = end_to_end(name, args.seed, args.seconds, args.smoke,
                                    deadline)
    return result_line(values, reps, spec["end_to_end"]), info


def main() -> int:
    parser = argparse.ArgumentParser(
        description="perfcol benchmark: run one workload, check its outputs, "
                    "print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "perfcol" / "__init__.py").is_file():
        print(f"error: no perfcol sources under {ROOT / 'src'}; run from a "
              "source tree", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = {"nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), **source_revision(),
           "seed": args.seed, "trace": args.trace}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        try:
            result, info = run_one(name, args, spec)
        except RepFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        correct &= result["correct"]
        print(json.dumps({"env": {**env, "workload": name, **info}}))
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
