"""Benchmark of mflqg: one workload, one process, one caller.

    python3 bench/run.py --workload {ladder,section,suite} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's task list runs in whole rounds, one task
after another (a closed loop with a single caller), while the next
round, at the mean round time so far, still ends within ``--seconds``
(at least one round).  BLAS runs one thread.  Every task checks its
outputs.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Spans and results are written under ``bench/out/``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one BLAS thread, so the single caller is the only load whatever core
# count OpenBLAS sees; set before numpy is first imported, and
# inherited by the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5          # fresh processes timed for setup_s

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in BENCH["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a fresh process that sets up, reports ready and exits: setup_s
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


class _Tally:
    """Operations attempted and failed, and whether outputs were right."""

    def __init__(self, wrong_output):
        self.wrong_output = wrong_output    # the checks' exception type
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, task) -> float:
        """Run one task; returns its wall time, call to checked result."""
        t0 = time.perf_counter()
        try:
            failed = len(task.run())
        except self.wrong_output as exc:
            print(f"bench: {task.name}: wrong output: {exc}", file=sys.stderr)
            self.correct = False
            failed = 0
        except Exception:
            print(f"bench: {task.name} raised:", file=sys.stderr)
            traceback.print_exc()
            failed = task.ops
        elapsed = time.perf_counter() - t0
        self.attempted += task.ops
        self.failed += failed
        return elapsed


def _listed(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, with their units."""
    units = {m["name"]: m["unit"] for m in BENCH[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"{kind} metrics measured {sorted(values)} "
                           f"differ from those listed {sorted(units)}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _rounds(seconds: float, one_round) -> None:
    """Whole rounds while the next one, at the mean so far, ends in time.

    At least one round.  Only the first round, or a round slower than
    the mean of those before it, can end past ``seconds``, so a slow
    machine makes fewer rounds rather than a longer run.
    """
    t0 = time.perf_counter()
    done = 0
    while True:
        one_round()
        done += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / done > seconds:
            return


def _setup_seconds(args) -> float:
    """Median wall time of fresh processes from start to ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _timed(tasks, args, tally) -> dict:
    task_s = []
    peak_mb = []

    def one_round():
        task_s.extend(tally.run(task) for task in tasks)
        if not peak_mb:
            # set-up plus one round: the same work in every run
            peak_mb.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    _rounds(args.seconds, one_round)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    values = {
        "tasks_per_min": 60.0 * len(task_s) / wall,
        "task_s.p50": statistics.median(task_s),
        "cpu_s_per_task": cpu / len(task_s),
        "peak_rss_mb": peak_mb[0],
        "setup_s": _setup_seconds(args),
    }
    return _listed(values, "end_to_end")


def _traced(tasks, args, tally) -> dict:
    import workloads
    from spans import Tracer
    tracer = Tracer()

    def one_round():
        for task in tasks:
            with tracer.installed(workloads), tracer.task(task.name):
                tally.run(task)

    _rounds(args.seconds, one_round)
    n = tracer.tasks
    own = tracer.self_times()
    counts = tracer.counts
    values = {}
    for m in BENCH["per_layer"]:
        # a count per task, or the self time of the span named by the
        # metric without its "_s", per task
        name = m["name"]
        if m["unit"] == "count":
            values[name] = counts[name] / n
        elif m["unit"] == "s":
            values[name] = own[name[:-2]] / n
    rhs = counts["integrate.rhs_calls"]
    values["integrate.us_per_rhs"] = (1e6 * own["integrate.backward"] / rhs
                                      if rhs else 0.0)
    values["trace.overhead_s"] = tracer.overhead() / n
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl",
                 {"workload": args.workload, "seed": args.seed, "tasks": n,
                  "fields": ["name", "start", "end", "parent", "task"]})
    return _listed(values, "per_layer")


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "mflqg" / "__init__.py").is_file():
        print(f"bench: no mflqg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    tasks = workloads.build(args.workload, args.seed)
    if args.setup_probe:
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        os._exit(0)      # skip interpreter teardown: it is not set-up

    tally = _Tally(workloads.CheckFailed)
    metrics = (_traced if args.trace else _timed)(tasks, args, tally)
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
