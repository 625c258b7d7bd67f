"""Command-line runner: solve, oracle, hedge, counterexample, proptest.

Reports are JSON with sorted keys and CSVs with repr-formatted floats, so a
rerun with the same config and seed is byte-identical; `hedge` writes the
strategy object of hedge.json and the rows of path_slacks.csv straight from
the hedge columns and the slacks, in the bytes `json` and `csv` write.  Wall-clock timings
go to a separate timings.json for that reason: per-stage seconds for
`solve` (dp, oracle, primal) and `hedge` (tree, claim, dp, extract, verify,
write), plus their total.  Exit status is zero iff every gap, tolerance,
and verification check passes.  `solve` formats the result of
`suites.check_duality`, the check that criterion 1 runs on every instance:
gaps must be literally zero under `--exact` and within `market_tree.TOL` in
float mode.  When an oracle scale limit refuses one of `solve`'s LP
cross-checks (the oracle, or the primal LP), the check skips it and warns
with the limit's message, and `solve` says so in its report.  Past
ORACLE_MAX_LEAVES leaves only `--exact` skips, and it skips both LPs, which
read one leaf-law LP.  ORACLE_MAX_CHILDREN reaches the oracle only through
`alive_nodes` after an infeasible LP, and the primal through the
`alive_nodes` flags of its hedge: in float mode at every node that needs a
vertex enumeration, under `--exact` only at the nodes that the certified
optimal law does not charge.  When a limit refuses a step that `solve`
or `hedge` cannot skip (the vertex enumeration behind a polar set past
ORACLE_MAX_CHILDREN children), or one of `solve`'s float LPs fails, the run
prints one `error: <message>` line to stderr and exits 2.  A config that
cannot be read or that the builders reject (a strike or a claim value that
is not a finite number, -inf claim values aside, among them) ends with one
`config ...` line, exit 1.  `--exact` reads a config's numbers as the
decimals they spell (0.1 is 1/10), not as doubles.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from pathlib import Path

from .claims import ClaimError, make_claim
from .counterexample import divergence_demo, phi_limit, phi_trunc
from .dual_dp import backward_value
from .market_tree import NEG_INF, TOL, TreeError, build_tree, value_gap
from .measure_families import MeasureError, family_from_doc, polar_paths
from .primal_hedge import extract_strategy, verify_superhedge
from .simplex import RAT
from . import suites as suites_mod

SCHEMA_VERSION = 1
DEFAULT_SEED = 0


def _load_config(path, exact):
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=RAT if exact else None)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"config parse error in {path}: line {exc.lineno}, {exc.msg}")
    except OSError as exc:
        raise SystemExit(f"config {path}: {exc.strerror}")


def _require(cfg, field, path):
    if field not in cfg:
        raise SystemExit(f"config {path}: missing field {field!r}")
    return cfg[field]


def _instance_from_config(cfg, path, exact, timings=None):
    """(tree, claim, family) of a config; `timings`, when given, receives
    the seconds of the "tree" and "claim" stages.  A spec the builders
    reject ends the run with one `config <path>: <message>` line."""
    timings = {} if timings is None else timings
    try:
        t = time.perf_counter()
        tree = build_tree(_require(cfg, "tree", path))
        timings["tree"] = time.perf_counter() - t
        t = time.perf_counter()
        xi = make_claim(tree, _require(cfg, "claim", path), exact=exact)
        timings["claim"] = time.perf_counter() - t
        fam = family_from_doc(_require(cfg, "family", path), claim=xi)
    except (TreeError, ClaimError, MeasureError) as exc:
        raise SystemExit(f"config {path}: {exc}")
    return tree, xi, fam


def _value_doc(v, exact):
    if v == NEG_INF:
        return "-inf"
    return str(v) if exact else float(v)


def _dump_json(path, doc):
    # one write of the whole text, where json.dump writes it piece by piece
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _json_numbers(values, exact):
    """The JSON text of `_value_doc(v, exact)` for each of `values`: in
    float mode `float.__repr__`, which is what `json` writes for a finite
    float; `json.dumps` of each value in exact mode or when some float is
    not finite."""
    if not exact:
        texts = list(map(float.__repr__, map(float, values)))
        if {"inf", "-inf", "nan"}.isdisjoint(texts):
            return texts
    return [json.dumps(_value_doc(v, exact)) for v in values]


def _hedge_report_text(doc, H, exact):
    """The text of `_dump_json` of `doc` with `H`'s hedge as its "strategy"
    object (node id -> list of coordinates): `doc` goes through
    `json.dumps(indent=2, sort_keys=True)`, and the strategy, whose layout
    is fixed, is written straight from the hedge columns."""
    columns = [_json_numbers(col.values(), exact) for col in H.h.columns]
    # json sorts the node ids as strings and puts each coordinate on a line
    entries = sorted(zip(map(str, H.h), map(",\n      ".join, zip(*columns))))
    body = ",\n".join([f'    "{n}": [\n      {h}\n    ]' for n, h in entries])
    strategy = "{\n" + body + "\n  }" if entries else "{}"
    marker = "\0strategy\0"  # no other value of the report can be this string
    text = json.dumps({**doc, "strategy": marker}, indent=2, sort_keys=True)
    return text.replace(json.dumps(marker), strategy, 1) + "\n"


def _slacks_csv_text(slacks):
    """The rows `csv.writer` writes for the header and each (leaf, repr of
    its slack as a float), ending in \\r\\n: no field needs quoting."""
    rows = [f"{leaf},{v!r}\r\n" for leaf, v in zip(slacks, map(float, slacks.values()))]
    return "leaf,slack\r\n" + "".join(rows)


def _strategy_digest(H):
    doc = {str(n): [repr(float(v)) for v in h] for n, h in sorted(H.h.items())}
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# -- solve ---------------------------------------------------------------


def run_solve(cfg, path, out, exact):
    t0 = time.perf_counter()
    tree, xi, fam = _instance_from_config(cfg, path, exact)
    timings = {}
    check = suites_mod.check_duality(tree, xi, fam, exact, timings)
    dp, lp, pv, rep = check.Y[tree.root], check.lp, check.pv, check.hedge
    if rep is None:  # the value is -inf
        gaps = {"dp_minus_oracle": None, "dp_minus_primal": None}
        X0, digest, verification = "-inf", None, None
        polar = polar_paths(tree, fam, xi)
    else:
        gaps = {
            "dp_minus_oracle": None if lp is None else float(dp - lp),
            "dp_minus_primal": None if pv is None else float(dp - pv),
        }
        X0, digest = _value_doc(dp, exact), _strategy_digest(check.H)
        verification = {
            "ok": rep.ok,
            "min_slack": None if rep.min_slack is None else float(rep.min_slack),
        }
        polar = rep.polar
    ok = check.failure is None
    report = {
        "schema_version": SCHEMA_VERSION,
        "exact": exact,
        "dual_value": _value_doc(dp, exact),
        "oracle_value": None if lp is None else _value_doc(lp, exact),
        "oracle_skipped": lp is None,
        "primal_value": None if pv is None else _value_doc(pv, exact),
        "primal_skipped": pv is None,
        "gaps": gaps,
        "X0": X0,
        "strategy_digest": digest,
        "polar_path_count": len(polar),
        "verification": verification,
        "ok": ok,
    }
    _dump_json(out / "solve_report.json", report)
    timings["total"] = time.perf_counter() - t0
    _dump_json(out / "timings.json", timings)
    print(f"dual={report['dual_value']} oracle={report['oracle_value']} "
          f"primal={report['primal_value']} polar={len(polar)} ok={ok}")
    return 0 if ok else 1


# -- oracle --------------------------------------------------------------


def _oracle_value(v):
    return "-inf" if v == NEG_INF else repr(float(v))


def run_oracle(cfg, out, exact, seed, threads):
    n = int(cfg.get("instances", 100))
    seed = seed if seed is not None else int(cfg.get("seed", DEFAULT_SEED))
    seeds = range(seed, seed + n)
    t0 = time.perf_counter()
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(suites_mod.duality_instance, seeds, repeat(exact), chunksize=4))
    else:
        results = [suites_mod.duality_instance(s, exact) for s in seeds]
    worst = 0.0
    with open(out / "oracle.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seed", "dp_value", "lp_value", "gap"])
        for s, (dp, lp) in zip(seeds, results):
            gap = float(value_gap(dp, lp))
            w.writerow([s, _oracle_value(dp), _oracle_value(lp), repr(gap)])
            worst = max(worst, gap)
    _dump_json(out / "timings.json", {"oracle_suite": time.perf_counter() - t0, "instances": n})
    ok = worst <= (0.0 if exact else TOL)
    print(f"oracle: {n} instances, worst gap {worst!r}, ok={ok}")
    return 0 if ok else 1


# -- hedge ---------------------------------------------------------------


def run_hedge(cfg, path, out, exact):
    t0 = time.perf_counter()
    timings = {}
    tree, xi, fam = _instance_from_config(cfg, path, exact, timings)
    t = time.perf_counter()
    Y = backward_value(tree, xi, fam)
    dp = Y[tree.root]
    timings["dp"] = time.perf_counter() - t
    if dp == NEG_INF:
        t = time.perf_counter()
        polar = len(polar_paths(tree, fam, xi))
        _dump_json(out / "hedge.json", {
            "schema_version": SCHEMA_VERSION,
            "X0": "-inf",
            "strategy": {},
            "verification": {"min_slack": None, "polar_paths": polar},
        })
        timings["write"] = time.perf_counter() - t
        timings["total"] = time.perf_counter() - t0
        _dump_json(out / "timings.json", timings)
        print(f"value is -inf: no hedge; polar={polar}")
        return 0
    t = time.perf_counter()
    H = extract_strategy(tree, Y, fam)
    timings["extract"] = time.perf_counter() - t
    t = time.perf_counter()
    rep = verify_superhedge(tree, dp, H, xi, fam)
    timings["verify"] = time.perf_counter() - t
    t = time.perf_counter()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "X0": _value_doc(dp, exact),
        "verification": {
            "min_slack": None if rep.min_slack is None else float(rep.min_slack),
            "polar_paths": len(rep.polar),
        },
    }
    with open(out / "hedge.json", "w") as fh:
        fh.write(_hedge_report_text(doc, H, exact))
    with open(out / "path_slacks.csv", "w", newline="") as fh:
        fh.write(_slacks_csv_text(rep.slacks))
    timings["write"] = time.perf_counter() - t
    timings["total"] = time.perf_counter() - t0
    _dump_json(out / "timings.json", timings)
    print(f"X0={doc['X0']} min_slack={doc['verification']['min_slack']} "
          f"polar={len(rep.polar)} ok={rep.ok}")
    return 0 if rep.ok else 1


# -- counterexample ------------------------------------------------------


def run_counterexample(cfg, out):
    ce = cfg.get("counterexample", {})
    N = int(ce.get("N", 20))
    t_scale = float(ce.get("t", 1.0))
    rows = divergence_demo(N, t_scale)
    with open(out / "divergence.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "sigma_i", "f_i", "partial_sum"])
        for r in rows:
            w.writerow([r.i, repr(r.sigma), repr(r.f_value), repr(r.partial_sum)])

    phi_cfg = ce.get("phi", {})
    n = float(phi_cfg.get("n", 2.0))
    xs = phi_cfg.get("x", [n - 1.0, n, n + 1e-6, n + 5.0])
    k_max = int(phi_cfg.get("k_max", 30))
    with open(out / "phi_sweep.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "K", "l", "x", "phi_trunc", "phi_limit", "abs_err"])
        for k in range(1, k_max + 1):
            K, l = float(k), 2.0 ** (-k)
            for x in xs:
                val = phi_trunc(float(x), n, K, l)
                lim = phi_limit(float(x), n)
                w.writerow([k, repr(K), repr(l), repr(float(x)),
                            repr(val), repr(lim), repr(abs(val - lim))])
    ok = all(r.f_value >= 1.0 for r in rows)
    total = rows[-1].partial_sum if rows else 0.0
    print(f"counterexample: {N} bands, partial sum {total:.3f}, all f_i >= 1: {ok}")
    return 0 if ok else 1


# -- proptest ------------------------------------------------------------


def run_proptest(cfg, out, seed):
    seed = seed if seed is not None else int(cfg.get("seed", DEFAULT_SEED))
    counts = cfg.get("suites", {})
    results = suites_mod.run_all_suites(seed, counts)
    summary = []
    failed = False
    for r in results:
        line = r.summary_line()
        print(line)
        summary.append({
            "name": r.name,
            "total": r.total,
            "passed": r.passed,
            "failures": r.failures,
        })
        failed = failed or not r.ok
    _dump_json(out / "proptest.json", {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "counts": counts,
        "suites": summary,
    })
    return 1 if failed else 0


# -- entry point ---------------------------------------------------------


# the flags each subcommand reads
COMMAND_FLAGS = {
    "solve": ("--config", "--exact", "--out"),
    "oracle": ("--config", "--exact", "--seed", "--threads", "--out"),
    "hedge": ("--config", "--exact", "--out"),
    "counterexample": ("--config", "--out"),
    "proptest": ("--config", "--seed", "--out"),
}
FLAG_OPTIONS = {
    "--config": {"type": Path, "help": "experiment config (JSON)"},
    "--exact": {"action": "store_true", "help": "rational arithmetic"},
    "--seed": {"type": int, "default": None},
    "--threads": {"type": int, "default": 1, "help": "worker processes"},
    "--out": {"type": Path, "default": Path("out")},
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="robusthedge",
        description="Robust superhedging on finite scenario trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in COMMAND_FLAGS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **FLAG_OPTIONS[flag])
    args = parser.parse_args(argv)

    exact = getattr(args, "exact", False)  # counterexample and proptest have no --exact
    cfg = _load_config(args.config, exact) if args.config else {}
    if args.command in ("solve", "hedge") and not args.config:
        raise SystemExit(f"{args.command} requires --config")
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    if args.command in ("solve", "hedge"):
        run = run_solve if args.command == "solve" else run_hedge
        try:
            return run(cfg, args.config, out, exact)
        except MeasureError as exc:
            # a scale limit or a failed float LP in a step the run cannot skip
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.command == "oracle":
        return run_oracle(cfg, out, exact, args.seed, max(1, args.threads))
    if args.command == "counterexample":
        return run_counterexample(cfg, out)
    return run_proptest(cfg, out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
