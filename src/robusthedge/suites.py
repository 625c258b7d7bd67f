"""Randomized property suites shared by the CLI runner and the test suite.

Every suite is a pure function of its seed and instance count; each returns
a SuiteResult whose failures carry a replayable instance descriptor, so a
red run can be reproduced from the summary alone.

`check_duality` is the one per-instance duality check, which criterion 1
(`duality_suite`) and the CLI's `solve` share.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from .dual_dp import ValueField, backward_value, check_supermartingale, check_tower, one_step_sup
from .market_tree import NEG_INF, TOL, build_tree, value_gap
from .measure_families import (
    ALL,
    MARTINGALE,
    VAR_BOUNDED,
    FamilySpec,
    Kernel,
    TreeMeasure,
    bifurcate,
    conditional_abs_terminal,
    in_family,
    kernel_in_class,
    paste,
    rcpd,
    truncate_kernels,
)
from .oracle_lp import (
    OracleScaleError,
    ess_sup_check,
    global_sup_lp,
    upper_concave_envelope,
    upward_directed_check,
)
from .primal_hedge import HedgeReport, Strategy, extract_strategy, primal_lp, verify_superhedge
from .random_instances import (
    random_claim,
    random_family,
    random_measure,
    random_ordered_stopping_pair,
    random_stopping_time,
    random_tree,
)

@dataclass
class SuiteResult:
    name: str
    total: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> int:
        return self.total - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_line(self) -> str:
        flag = "PASS" if self.ok else "FAIL"
        return f"[{flag}] {self.name}: {self.passed}/{self.total}"


def _record(result, instance, detail):
    result.failures.append({"instance": instance, "detail": detail})


# -- duality / oracle agreement ------------------------------------------


def _draw_instance(seed: int, exact: bool) -> tuple:
    """(tree, xi, fam): the random instance drawn from `seed`."""
    rng = random.Random(seed)
    tree = random_tree(rng)
    xi = random_claim(tree, rng, exact=exact)
    fam = random_family(tree, rng, exact=exact)
    return tree, xi, fam


def duality_instance(seed: int, exact: bool) -> tuple:
    """(DP root value, global-LP value) of the instance drawn from `seed`."""
    tree, xi, fam = _draw_instance(seed, exact)
    lp, _ = global_sup_lp(tree, xi, fam, exact=exact)
    return backward_value(tree, xi, fam)[tree.root], lp


@dataclass
class DualityCheck:
    """One instance's three-way duality check.  `lp` and `pv` are None when
    an oracle scale limit skipped that LP; `H` and `hedge` are None when
    the value is -inf.  `failure` is None when the check passes, else a
    one-line reason."""

    Y: ValueField
    lp: object
    pv: object
    H: Optional[Strategy]
    hedge: Optional[HedgeReport]
    failure: Optional[str]


def check_duality(tree, xi, fam: FamilySpec, exact: bool, timings: Optional[dict] = None) -> DualityCheck:
    """DP root value == global leaf-law LP == primal hedging LP, and the
    DP's hedge superhedges at X0 = Y(root).

    The DP, the oracle and the primal run in that order; `timings`, when
    given, receives their seconds.  An LP that an oracle scale limit
    refuses is skipped with one `warning:` line on stderr, printed at once.
    The values that ran are -inf all together or not at all, and their gap
    is 0 in exact mode, at most TOL in float mode.  A finite value's hedge
    is verified path by path, and must pass for every class but
    VAR_BOUNDED, whose value also needs the variance positions that
    `primal_lp` reads as the leaf-law LP's `<=` row duals (`y_ub`).
    """
    timings = {} if timings is None else timings
    t = time.perf_counter()
    Y = backward_value(tree, xi, fam)
    dp = Y[tree.root]
    timings["dp"] = time.perf_counter() - t
    values = []
    for stage, solve in (("oracle", global_sup_lp), ("primal", primal_lp)):
        t = time.perf_counter()
        try:
            values.append(solve(tree, xi, fam, exact=exact)[0])
        except OracleScaleError as exc:
            values.append(None)
            print(f"warning: {exc}; {stage} cross-check skipped", file=sys.stderr)
        timings[stage] = time.perf_counter() - t
    lp, pv = values
    ran = [v for v in (dp, lp, pv) if v is not None]
    if NEG_INF in ran:
        failure = None if all(v == NEG_INF for v in ran) else f"-inf mismatch dp={dp} lp={lp} primal={pv}"
        return DualityCheck(Y, lp, pv, None, None, failure)
    tol = 0 if exact else TOL
    failure = None if all(abs(dp - v) <= tol for v in ran) else f"gap above {tol}: dp={dp} lp={lp} primal={pv}"
    H = extract_strategy(tree, Y, fam)
    hedge = verify_superhedge(tree, dp, H, xi, fam)
    if failure is None and not hedge.ok and fam.cls != VAR_BOUNDED:
        failure = f"superhedge failed, min slack {hedge.min_slack}"
    return DualityCheck(Y, lp, pv, H, hedge, failure)


def duality_suite(seed: int, n: int = 100, exact: bool = False) -> SuiteResult:
    """`check_duality` on n instances drawn from consecutive seeds."""
    res = SuiteResult("duality", n)
    for i in range(n):
        tree, xi, fam = _draw_instance(seed + i, exact)
        failure = check_duality(tree, xi, fam, exact).failure
        if failure is not None:
            _record(res, {"seed": seed + i, "family": fam.cls, "exact": exact}, failure)
    return res


# -- closure suites ------------------------------------------------------


def _suite_family(rng, tree, cls, exact):
    if cls == VAR_BOUNDED:
        fam = random_family(tree, rng, exact=exact, allow_var=True)
        while fam.cls != VAR_BOUNDED:
            fam = random_family(tree, rng, exact=exact, allow_var=True)
        return fam
    return FamilySpec(cls=cls)


def pasting_closure_suite(seed: int, n: int = 200, cls: str = MARTINGALE) -> SuiteResult:
    res = SuiteResult(f"pasting-closure[{cls}]", n)
    for i in range(n):
        rng = random.Random(seed + i)
        tree = random_tree(rng, max_depth=3, max_branch=3)
        fam = _suite_family(rng, tree, cls, exact=False)
        P = random_measure(tree, rng, fam)
        tau = random_stopping_time(tree, rng)
        nu = {
            m: random_measure(tree, rng, fam, start=m)
            for m in tau
            if not tree.is_leaf(m)
        }
        glued = paste(tree, P, tau, nu)
        ok, why = in_family(tree, glued, fam, tol=TOL)
        if not ok:
            _record(res, {"seed": seed + i, "family": cls}, why)
    return res


def conditioning_closure_suite(seed: int, n: int = 200, cls: str = MARTINGALE) -> SuiteResult:
    """rcpd stays in the family, exhaustively over nodes of small trees."""
    res = SuiteResult(f"conditioning-closure[{cls}]", n)
    for i in range(n):
        rng = random.Random(seed + i)
        tree = random_tree(rng, max_depth=3, max_branch=3)
        while len(tree.nodes) > 40:
            tree = random_tree(rng, max_depth=3, max_branch=3)
        fam = _suite_family(rng, tree, cls, exact=False)
        P = random_measure(tree, rng, fam)
        bad = None
        for nid in tree.internal_nodes:
            piece = rcpd(tree, P, nid)
            for sub_nid, k in piece.kernels.items():
                ok, why = kernel_in_class(tree, k, fam, tol=TOL)
                if not ok:
                    bad = (nid, why)
                    break
            if bad:
                break
        if bad:
            _record(res, {"seed": seed + i, "family": cls}, str(bad))
    return res


def bifurcation_closure_suite(seed: int, n: int = 200, cls: str = MARTINGALE) -> SuiteResult:
    res = SuiteResult(f"bifurcation-closure[{cls}]", n)
    for i in range(n):
        rng = random.Random(seed + i)
        tree = random_tree(rng, max_depth=3, max_branch=3)
        fam = _suite_family(rng, tree, cls, exact=False)
        P1 = random_measure(tree, rng, fam)
        tau = random_stopping_time(tree, rng)
        below = set()
        for m in tau:
            below.update(tree.subtree_nodes(m))
        # P2 agrees with P1 strictly above tau, is redrawn below
        fresh = random_measure(tree, rng, fam)
        P2 = TreeMeasure(
            {
                nid: (fresh.kernels[nid] if nid in below else P1.kernels[nid])
                for nid in P1.kernels
            }
        )
        A = {m for m in tau if rng.random() < 0.5}
        glued = bifurcate(tree, P1, P2, tau, A)
        ok, why = in_family(tree, glued, fam, tol=TOL)
        if not ok:
            _record(res, {"seed": seed + i, "family": cls}, why)
    return res


def truncation_suite(seed: int, n: int = 100) -> SuiteResult:
    """E_n grows with the threshold, exhausts tau at a finite level, and the
    truncated pasting stays in the martingale family at every level."""
    res = SuiteResult("truncation", n)
    fam = FamilySpec(cls=MARTINGALE)
    for i in range(n):
        rng = random.Random(seed + i)
        tree = random_tree(rng, max_depth=3, max_branch=3)
        P = random_measure(tree, rng, fam)
        tau = random_stopping_time(tree, rng)
        nu = {
            m: random_measure(tree, rng, fam, start=m)
            for m in tau
            if not tree.is_leaf(m)
        }
        moments = sorted(
            conditional_abs_terminal(tree, piece, m) for m, piece in nu.items()
        )
        thresholds = [0] + moments + [(moments[-1] + 1) if moments else 1]
        inst = {"seed": seed + i}
        prev = None
        bad = False
        for thr in thresholds:
            nu_n, E_n = truncate_kernels(tree, P, tau, nu, thr)
            if prev is not None and not prev <= E_n:
                _record(res, inst, f"E_n not monotone at threshold {thr}")
                bad = True
                break
            prev = E_n
            glued = paste(tree, P, tau, nu_n)
            ok, why = in_family(tree, glued, fam, tol=TOL)
            if not ok:
                _record(res, inst, f"threshold {thr}: {why}")
                bad = True
                break
        if not bad and prev != set(tau):
            _record(res, inst, "E_n never exhausts tau")
    return res


# -- dynamic-programming property suites ---------------------------------


def tower_suite(seed: int, n: int = 100) -> SuiteResult:
    res = SuiteResult("tower", n)
    for i in range(n):
        rng = random.Random(seed + i)
        tree = random_tree(rng)
        xi = random_claim(tree, rng)
        fam = random_family(tree, rng)
        sigma, tau = random_ordered_stopping_pair(tree, rng)
        if not check_tower(tree, xi, fam, sigma, tau, tol=1e-10):
            _record(res, {"seed": seed + i, "family": fam.cls}, "tower identity failed")
    return res


def supermartingale_suite(seed: int, n: int = 500) -> SuiteResult:
    res = SuiteResult("supermartingale", n)
    for i in range(n):
        rng = random.Random(seed + i)
        tree = random_tree(rng, max_depth=3, max_branch=3)
        xi = random_claim(tree, rng)
        fam = random_family(tree, rng)
        P = random_measure(tree, rng, fam)
        Y = backward_value(tree, xi, fam)
        ok, worst = check_supermartingale(tree, Y, P, fam)
        if not ok:
            _record(res, {"seed": seed + i, "family": fam.cls}, f"worst node {worst}")
    return res


def ess_sup_suite(seed: int, n: int = 100) -> SuiteResult:
    res = SuiteResult("ess-sup", n)
    for i in range(n):
        rng = random.Random(seed + i)
        tree = random_tree(rng, max_depth=3, max_branch=4)
        xi = random_claim(tree, rng)
        fam = random_family(tree, rng)
        tau = random_stopping_time(tree, rng)
        P = random_measure(tree, rng, fam)
        if not ess_sup_check(tree, xi, fam, tau, P):
            _record(res, {"seed": seed + i, "family": fam.cls}, "ess-sup mismatch")
    return res


def upward_directed_suite(seed: int, n: int = 200) -> SuiteResult:
    res = SuiteResult("upward-directed", n)
    for i in range(n):
        rng = random.Random(seed + i)
        tree = random_tree(rng, max_depth=3, max_branch=3)
        xi = random_claim(tree, rng)
        fam = random_family(tree, rng)
        level = rng.randint(0, tree.depth - 1)
        nid = tree.nodes_at(level)[0]
        below = set()
        for m in tree.nodes_at(level):
            below.update(tree.subtree_nodes(m))
        P1 = random_measure(tree, rng, fam)
        fresh = random_measure(tree, rng, fam)
        P2 = TreeMeasure(
            {
                k: (fresh.kernels[k] if k in below else P1.kernels[k])
                for k in P1.kernels
            }
        )
        if not upward_directed_check(tree, xi, fam, nid, P1, P2, tol=TOL):
            _record(res, {"seed": seed + i, "family": fam.cls}, "max identity failed")
    return res


def envelope_suite(seed: int, n: int = 1000) -> SuiteResult:
    """d=1 martingale one-step value == concave envelope at the node spot."""
    res = SuiteResult("envelope", n)
    fam = FamilySpec(cls=MARTINGALE)
    for i in range(n):
        rng = random.Random(seed + i)
        k = rng.randint(2, 6)
        offs = sorted({round(rng.uniform(-3.0, 3.0), 6) for _ in range(k)})
        if len(offs) < 2:
            offs = [-1.0, 1.0]
        tree = build_tree(
            {"dim": 1, "depth": 1, "generator": {"kind": "explicit", "offsets": offs}}
        )
        V = {leaf: rng.uniform(-2.0, 2.0) for leaf in tree.leaves}
        sol = one_step_sup(tree, tree.root, V, fam, exact=False)
        env = upper_concave_envelope(
            [(tree.spot1(leaf), V[leaf]) for leaf in tree.leaves], 0.0
        )
        gap = value_gap(sol.value, env)
        if gap > 1e-10:
            _record(res, {"seed": seed + i}, f"gap {gap}: {sol.value} vs {env}")
    return res


# -- negative control ----------------------------------------------------


def mutated_kernel_control(seed: int = 0) -> SuiteResult:
    """Shifting kernel mass by 0.1 must break martingale membership with a
    pinpointed node; a passing control means the membership test is blind."""
    res = SuiteResult("negative-control", 1)
    rng = random.Random(seed)
    fam = FamilySpec(cls=MARTINGALE)
    tree = random_tree(rng, max_depth=3, max_branch=3)
    P = random_measure(tree, rng, fam)
    nid = tree.internal_nodes[0]
    probs = dict(P.kernels[nid].probs)
    children = sorted(probs)
    lo, hi = children[0], children[-1]
    shift = min(0.1, float(probs[lo]))
    probs[lo] = probs[lo] - shift
    probs[hi] = probs[hi] + shift
    mutated = TreeMeasure({**P.kernels, nid: Kernel(nid, probs)})
    ok, why = in_family(tree, mutated, fam)
    if ok or why is None or str(nid) not in why:
        _record(res, {"seed": seed}, f"mutation not detected: ok={ok} why={why}")
    return res


def run_all_suites(seed: int, counts: Optional[dict] = None) -> list:
    counts = counts or {}
    results = []
    for cls in (ALL, MARTINGALE, VAR_BOUNDED):
        results.append(pasting_closure_suite(seed, counts.get("closure", 200), cls))
        results.append(conditioning_closure_suite(seed + 1, counts.get("closure", 200), cls))
        results.append(bifurcation_closure_suite(seed + 2, counts.get("closure", 200), cls))
    results.append(truncation_suite(seed + 3, counts.get("truncation", 100)))
    results.append(tower_suite(seed + 4, counts.get("tower", 100)))
    results.append(supermartingale_suite(seed + 5, counts.get("supermartingale", 500)))
    results.append(ess_sup_suite(seed + 6, counts.get("ess_sup", 100)))
    results.append(upward_directed_suite(seed + 7, counts.get("upward", 200)))
    results.append(envelope_suite(seed + 8, counts.get("envelope", 1000)))
    control = mutated_kernel_control(seed + 9)
    results.append(control)
    return results
