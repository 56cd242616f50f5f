"""CLI for the scenario catalog: run, score, compare, gate.

The standard sweep substrate (see ``docs/scenarios.md``)::

    # Every bundled spec on one backend, JSONL report to a file:
    python -m repro.workloads.scenarios --catalog --backend columnar-frontier \\
        --out reports.jsonl

    # CI smoke: three fast specs, all backends, hard-fail on any SLO
    # FAIL or cross-backend work-counter divergence:
    python -m repro.workloads.scenarios --catalog \\
        --only fig5-batch-updates,staleness-slo,bipartite-churn \\
        --backend all --smoke --strict

    # One ad-hoc spec file:
    python -m repro.workloads.scenarios --spec my-scenario.json

Exit status: 0 on success; 1 on a hard failure (fault-path oracle
mismatch or FAILED health), and — with ``--strict`` — also on any SLO
FAIL verdict or cross-backend work-counter divergence.  Reports are
byte-deterministic unless ``--timing`` is given.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Sequence

from repro import engines
from repro.workloads.scenarios import report as R
from repro.workloads.scenarios.runner import ScenarioRunResult, run_scenario
from repro.workloads.scenarios.spec import SpecError, load_catalog, load_spec


def _parse_backends(value: str) -> List[str]:
    if value == "all":
        return list(engines.backends())
    names = [b.strip() for b in value.split(",") if b.strip()]
    for name in names:
        if name not in engines.backends():
            raise argparse.ArgumentTypeError(
                f"unknown backend {name!r} "
                f"(available: {', '.join(engines.backends())}, or 'all')"
            )
    return names


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.scenarios",
        description=__doc__.splitlines()[0],
    )
    source = parser.add_mutually_exclusive_group(required=False)
    source.add_argument("--catalog", action="store_true",
                        help="run the bundled scenario catalog")
    source.add_argument("--spec", action="append", default=None,
                        metavar="PATH",
                        help="run a spec file (repeatable)")
    source.add_argument("--list", action="store_true",
                        help="list the bundled catalog and exit")
    parser.add_argument("--only", default=None, metavar="NAMES",
                        help="comma-separated scenario names to keep")
    parser.add_argument("--backend", type=_parse_backends, default=["object"],
                        metavar="B",
                        help="backend name(s), comma-separated, or 'all'")
    parser.add_argument("--smoke", action="store_true",
                        help="truncate every run to its spec's smoke_batches")
    parser.add_argument("--timing", action="store_true",
                        help="record wall-clock read latencies "
                             "(makes reports non-deterministic)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSONL report here")
    parser.add_argument("--table", default=None, metavar="PATH",
                        help="write the comparison table here ('-' = stdout)")
    parser.add_argument("--strict", action="store_true",
                        help="also exit non-zero on SLO FAIL verdicts or "
                             "cross-backend work-counter divergence")
    args = parser.parse_args(argv)

    try:
        if args.spec:
            specs = [load_spec(p) for p in args.spec]
        else:
            specs = load_catalog()
    except (SpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.only:
        wanted = {n.strip() for n in args.only.split(",") if n.strip()}
        unknown = wanted - {s.name for s in specs}
        if unknown:
            print(
                f"error: --only names not in the catalog: {sorted(unknown)}",
                file=sys.stderr,
            )
            return 2
        specs = [s for s in specs if s.name in wanted]

    if args.list:
        for spec in specs:
            faulty = f", {len(spec.faults.events)} faults" if spec.faults else ""
            print(
                f"{spec.name:<24} {spec.graph.shape:<12} "
                f"{spec.traffic.pattern:<14} "
                f"{spec.traffic.batches} batches{faulty} — {spec.description}"
            )
        return 0

    results: List[ScenarioRunResult] = []
    for spec in specs:
        for backend in args.backend:
            result = run_scenario(
                spec, backend=backend, smoke=args.smoke, timing=args.timing
            )
            results.append(result)
            status = result.slo.get("status", "-")
            print(
                f"ran {spec.name:<24} [{backend:>17}] "
                f"updates={result.update_steps:<4} "
                f"reads={result.live_reads + result.epoch_blocks:<5} "
                f"slo={status:<6} ok={'yes' if result.ok else 'NO'}"
            )

    if args.out:
        R.write_jsonl(results, args.out, include_timing=args.timing)
        print(f"wrote {args.out} ({len(results)} rows)")
    table = R.render_table(results)
    if args.table == "-":
        print(table)
    elif args.table:
        with open(args.table, "w") as fh:
            fh.write(table + "\n")
        print(f"wrote {args.table}")
    print(R.summary_line(results))

    hard_failures = [r for r in results if not r.ok]
    diverged = R.work_divergences(results)
    slo_fail = R.slo_failures(results)
    if hard_failures:
        for r in hard_failures:
            print(
                f"FAIL: {r.spec.name}[{r.backend}] "
                f"(slo={r.slo.get('status')}, faults={r.faults})",
                file=sys.stderr,
            )
        return 1
    if args.strict and (diverged or slo_fail):
        if diverged:
            print(f"strict: work-counter divergence: {diverged}",
                  file=sys.stderr)
        if slo_fail:
            print(f"strict: SLO failures: {slo_fail}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
