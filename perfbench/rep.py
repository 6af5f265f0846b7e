"""One repetition of a benchmark workload, run in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/rep.py --workload NAME --seed N [--trace] [--smoke]
    PYTHONPATH=src python3 perfbench/rep.py --threads N [--smoke]

The first form sets the workload up from the seed, times its run, checks
the outputs and prints one JSON object with the set-up time, the timed
wall time, the peak resident memory and the check results; with --trace
it also wraps perfcol's public functions in spans, runs the workload's
probe and adds the spans and counts.  The second form times one (4,5)
enumeration with N processes, for the sharding speed-up.

perfbench/run.py starts these processes; they are not meant to be run by
hand except when debugging a workload.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


# On a virtual machine shared with other tenants the speed of pure Python
# drifts by a third or more over stretches of seconds to minutes (seen on
# a 2-vCPU Xeon guest, where run medians of the same code differed by 70%
# and CPU time tracked wall time).  Each repetition therefore times a fixed
# pure-Python task just before and just after its timed part, and the
# harness scales the repetition's times by REFERENCE_S over that task's
# mean time: the figures are seconds at the speed at which the task takes
# REFERENCE_S.  The harness prints the unscaled medians as well.
#
# The task mixes tuple, dict and sort work with a recursive bitmask
# backtracking search, like the enumeration scan and the coloring search.
# Of the tasks tried, that mix followed the workloads' slowdowns best; a
# tuple-building loop alone over-corrected the search workload.
REFERENCE_S = 0.1


def _queens(n: int) -> int:
    count = 0

    def place(row: int, cols: int, up: int, down: int) -> None:
        nonlocal count
        if row == n:
            count += 1
            return
        for c in range(n):
            if not ((cols >> c) | (up >> (row + c)) | (down >> (row - c + n))) & 1:
                place(row + 1, cols | 1 << c, up | 1 << (row + c),
                      down | 1 << (row - c + n))

    place(0, 0, 0, 0)
    return count


def reference_task() -> float:
    start = perf_counter()
    tally = {}
    x = 1
    for _ in range(12_000):
        word = []
        for _ in range(6):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            word.append(x % 8)
        key = tuple(sorted(word))
        tally[key] = tally.get(key, 0) + sum(w * w for w in word) % 7
    sorted(tally.items())
    _queens(10)
    return perf_counter() - start


def timed(body):
    """Run body between two reference tasks.

    Returns its result, its wall time and the repetition's scale factor.
    """
    before = reference_task()
    start = perf_counter()
    result = body()
    wall_s = perf_counter() - start
    after = reference_task()
    return result, wall_s, 2 * REFERENCE_S / (before + after)


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(args) -> dict:
    setup, run, check, probe = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NullTracer()
    import perfcol
    if args.trace:
        tracer.install(perfcol)
    with tracer.span("bench.setup"):
        inputs = setup(perfcol, args.seed, args.smoke, tracer)
    setup_s = perf_counter() - START

    def body():
        with tracer.span("bench.run"):
            return run(perfcol, inputs, tracer)

    out, wall_s, scale = timed(body)
    rss = peak_rss_mib()

    checks = check(perfcol, inputs, out, args.seed, args.smoke,
                   workloads.EXPECTED)
    counts = {}
    if args.trace and probe is not None:
        with tracer.span("bench.probe"):
            counts, more = probe(perfcol, inputs, args.smoke)
        checks += more
    return {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mib": rss,
            "scale": scale, "checks": checks, "counts": counts,
            "spans": tracer.spans}


def run_threads(args) -> dict:
    import perfcol
    import perfcol.golden as golden
    m, k = workloads.SIZES[args.smoke]["t2"]
    result, wall_s, scale = timed(
        lambda: perfcol.enumerate_cams(m, k, threads=args.threads))
    want = golden.survivor_counts()[str(m)][str(k)]
    return {"wall_s": wall_s, "scale": scale,
            "checks": [(f"({m},{k}) with {args.threads} processes: "
                        f"{want} survivors", len(result.survivors) == want)]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--threads", type=int)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if (args.workload is None) == (args.threads is None):
        parser.error("give exactly one of --workload and --threads")
    doc = run_threads(args) if args.threads else run_workload(args)
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
