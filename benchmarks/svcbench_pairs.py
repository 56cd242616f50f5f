"""Alternating parent/change svcbench pairs, with per-seed figures.

Runs ``python3 svcbench/run.py --workload W --seed S`` once in each of two
checkouts per seed, the parent first on odd seeds and the change first on
even ones, so a drift of host speed over the run order lands on both
sides.  Prints every seed's value of each ``end_to_end`` metric that
``BENCHMARK.json`` declares (the ``per_layer`` metrics with ``--trace 1``),
then each side's median and interquartile range and how many seeds the
change won.  Exits 1 if any run reports ``correct: false`` or a failed
operation.

    python benchmarks/svcbench_pairs.py --parent ../parent --change . \\
        --workload road-trickle --seeds 11-20

(``make svcbench-pairs PARENT=../parent`` runs the same for road-trickle.)
No source file is edited: svcbench writes only under ``svcbench/.work/``
and ``svcbench/out/`` of each checkout, both git-ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    """``"11-20"`` or ``"3"`` as a list of seeds."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_one(checkout: str, workload: str, seed: int, trace: int) -> dict:
    """One svcbench run in ``checkout``; its last stdout line as a dict."""
    cmd = [sys.executable, "svcbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return {"correct": False, "failed": -1, "metrics": {}}


def value(res: dict, name: str) -> float:
    """A run's value of metric ``name`` (NaN when the run lacks it)."""
    return res["metrics"].get(name, {}).get("value", float("nan"))


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and the two quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--change", required=True, help="change checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds, help="A-B")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write every run's result as JSON here")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = bench["per_layer" if args.trace else "end_to_end"]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    runs: dict[str, dict[int, dict]] = {"parent": {}, "change": {}}
    ok = True
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            res = run_one(sides[side], args.workload, seed, args.trace)
            runs[side][seed] = res
            if not res.get("correct") or res.get("failed", 0) != 0:
                ok = False
                print(f"seed {seed} {side}: correct={res.get('correct')} "
                      f"failed={res.get('failed')}", flush=True)
        pair = runs["parent"][seed], runs["change"][seed]
        print(f"seed {seed} ({order[0]} first): " + ", ".join(
            f"{m['name']} {value(pair[0], m['name']):.4g}->{value(pair[1], m['name']):.4g}"
            for m in specs), flush=True)

    print(f"\n{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}: "
          "median [IQR], parent -> change, change wins")
    for m in specs:
        name = m["name"]
        vals = {side: [value(runs[side][s], name) for s in args.seeds] for side in runs}
        if any(math.isnan(v) for side in vals.values() for v in side):
            print(f"  {name}: missing from some runs")
            continue
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
        (pm, p1, p3), (cm, c1, c3) = spread(vals["parent"]), spread(vals["change"])
        rel = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        print(f"  {name} ({m['unit']}): {pm:.4g} [{p1:.4g}, {p3:.4g}] -> "
              f"{cm:.4g} [{c1:.4g}, {c3:.4g}] ({rel}; parent IQR {p3 - p1:.4g}), "
              f"wins {wins}/{len(args.seeds)}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace, "runs": runs},
                      f, indent=1)
    if not ok:
        print("FAIL: a run was incorrect or had failed operations")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
