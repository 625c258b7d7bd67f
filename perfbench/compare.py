#!/usr/bin/env python3
"""Summarise, or compare, sets of saved benchmark runs.

Save each run's standard output to its own file, one directory per set:

    python3 perfbench/run.py --workload proptest --seed 7 --seconds 20 --trace 0 > base/proptest-7.txt

Then, from the repository root:

    python3 perfbench/compare.py base            # median, quartiles, spread
    python3 perfbench/compare.py base head       # and the change of each median

Spread is the distance between the first and third quartile as a share of
the median.  A spread above the metric's bound in BENCHMARK.json, a median
worse than the base's by more than the bound, or two runs of one workload and
seed whose exact-value digests differ, is flagged.  Sets measured on
different rational backends (gmpy2's mpq against fractions.Fraction) are not
compared: the command exits with status 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_run(path: Path) -> dict:
    env, digest = None, None
    lines = path.read_text().splitlines()
    for line in lines:
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif line.startswith("digest: "):
            digest = line.split()[1]
    if env is None or not lines:
        raise SystemExit(f"{path}: not a benchmark run log")
    return {"env": env, "digest": digest, "result": json.loads(lines[-1])}


def load_set(directory: str) -> list:
    runs = [load_run(p) for p in sorted(Path(directory).glob("*.txt"))]
    if not runs:
        raise SystemExit(f"{directory}: no *.txt run logs")
    return runs


def backends(runs) -> set:
    return {r["env"]["rational"] for r in runs}


def summarise(runs) -> dict:
    """(workload, trace) -> metric -> (median, q1, q3, spread, n, unit)."""
    values = defaultdict(lambda: defaultdict(list))
    units = {}
    for r in runs:
        key = (r["env"]["workload"], r["env"]["trace"])
        for name, m in r["result"]["metrics"].items():
            values[key][name].append(m["value"])
            units[name] = m["unit"]
    out = {}
    for key, metrics in values.items():
        out[key] = {}
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            out[key][name] = (med, q1, q3, spread, len(vals), units[name])
    return out


def check_digests(runs) -> list:
    seen, bad = {}, []
    for r in runs:
        if r["digest"] is None:
            continue
        key = (r["env"]["workload"], r["env"]["seed"])
        if seen.setdefault(key, r["digest"]) != r["digest"]:
            bad.append(f"digest differs for {key}: {seen[key]} vs {r['digest']}")
    return bad


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    sets = [load_set(d) for d in argv]
    kinds = set().union(*(backends(s) for s in sets))
    if len(kinds) > 1:
        print(f"refusing to compare runs on different rational backends: {sorted(kinds)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    everything = sum(sets, [])
    flagged = check_digests(everything)
    if any(not r["result"]["correct"] for r in everything):
        flagged.append("a run reports correct = false")
    summaries = [summarise(s) for s in sets]
    for key in sorted(summaries[-1]):
        print(f"== {key[0]} (trace {key[1]})")
        for name, (med, q1, q3, spread, n, unit) in summaries[-1][key].items():
            line = f"  {name:44s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}  n={n}"
            bound, better = bounds.get(name, (None, None))
            if bound is not None and spread > bound:
                flagged.append(f"{key[0]} {name}: spread {spread:.3f} > bound {bound}")
            if len(summaries) == 2 and name in summaries[0].get(key, {}):
                base = summaries[0][key][name][0]
                change = (med - base) / base if base else 0.0
                line += f"  change {change:+.3f}"
                worse = change if better == "lower" else -change
                if bound is not None and worse > bound:
                    flagged.append(f"{key[0]} {name}: median worse by {worse:.3f} > bound {bound}")
            print(line)
    for line in flagged:
        print(f"FLAG {line}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
