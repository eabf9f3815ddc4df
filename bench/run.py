"""loewy benchmark.

    python3 bench/run.py --workload corpus|nakayama-grid|large-prime|all \
        --seed N --seconds S --trace 0|1

Runs whole rounds of one workload until another round would end past S
seconds (at least one round), checks every round's outputs, and prints as
its last line a JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1.  Times are medians over the rounds; setup_s
is the median over SETUP_REPEATS set-ups.  `--workload all` runs each
workload in a fresh process, one after the other.
"""

import os

# One BLAS/OpenMP thread: the matrices are small and a fixed count keeps
# runs comparable.  Set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("corpus", "nakayama-grid", "large-prime")
SETUP_REPEATS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="loewy benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_loewy() -> float:
    """Import loewy from this checkout's src/ and return the time it took."""
    src = ROOT / "src"
    if not (src / "loewy" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'loewy'} not found; run from a loewy checkout")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import loewy
    elapsed = time.perf_counter() - t0
    if Path(loewy.__file__).resolve().parent != src / "loewy":
        sys.exit(f"error: imported loewy from {loewy.__file__}, not from {src}")
    return elapsed


def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        print(name, json.dumps(results[name]))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_s = import_loewy()
    import checks
    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    setup, run_round, check = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = setup(args.seed, workdir)
            setup_times.append(import_s + time.perf_counter() - t0)

        tally = checks.Tally()
        rounds = []
        correct = True
        start = time.perf_counter()
        while True:
            mark = tracer.mark() if tracer else 0
            r0 = time.perf_counter()
            times, outputs = run_round(inputs, args.seed)
            rounds.append(tracer.per_layer(mark, tracer.mark()) if tracer else times)
            round_s = time.perf_counter() - r0
            try:
                check(inputs, outputs, tally)
            except checks.CheckFailure as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False
                break
            del outputs  # so that two rounds' outputs are never alive at once
            print(f"round {len(rounds)}: wall {times['wall_s']:.3f} s, "
                  f"checked in {time.perf_counter() - r0 - round_s:.3f} s", file=sys.stderr)
            if time.perf_counter() - start + round_s > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics = {name: {"value": statistics.median(r[name] for r in rounds),
                          "unit": spans.metric_unit(name)} for name in spans.PER_LAYER}
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"}}
        for name in workloads.PHASES + ("wall_s",):
            metrics[name] = {"value": statistics.median(r[name] for r in rounds), "unit": "s"}
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": rss_kb / 1024, "unit": "MB"}
    print(f"{len(rounds)} round(s); BLAS threads: "
          + ", ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
