"""Steadiness check: how far each end-to-end metric spreads over seeds.

    python3 bench/steady.py [--workloads ladder,section,suite]
                            [--seeds 1-10] [--seconds S]

Runs ``bench/run.py`` once per workload and seed, one run after
another, and prints for every end-to-end metric the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to a third of the metric's
bound in ``BENCHMARK.json``.  It also prints each workload's share of
failed operations, which must be the same in every run.  The raw
results go to ``bench/out/steady-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, check=True, capture_output=True, text=True,
                timeout=600)
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        (HERE / "out").mkdir(exist_ok=True)
        (HERE / "out" / f"steady-{workload}.json").write_text(
            json.dumps(runs, indent=1) + "\n")
        shares = {(r["failed"], r["attempted"]) for r in runs}
        fail = {f / a for f, a in shares}
        ok_fail = len(fail) == 1 and all(r["correct"] for r in runs)
        steady &= ok_fail
        print(f"{workload}: failed share {sorted(fail)}, all correct "
              f"{all(r['correct'] for r in runs)}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            print(f"  {name:16s} median {med:10.5g}  q1 {q1:10.5g}  "
                  f"q3 {q3:10.5g}  spread {spread:7.2%}  "
                  f"(bound/3 {bound / 3:.2%}) {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
