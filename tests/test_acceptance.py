"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion.
"""

import math
import random
import time

import numpy as np

from plifs import (
    BreakCode,
    alpha,
    associate_from_periodic,
    natural_dimension,
    pressure_at,
    solve_level_root,
)
from plifs.gdifs import (
    DetRecursion,
    GdifsEdge,
    GdifsNode,
    punctured_level,
    q_recursion,
    q_root,
)
from plifs.oracle import (
    CONSISTENT_NULL,
    CONSISTENT_POSITIVE,
    box_dimension,
    chaos_game,
    lebesgue_upper_bound,
    measure_evidence,
)

from helpers import (
    cantor_pair,
    gdifs_of_edges,
    paper_example,
    random_family_instance,
    random_increasing_system,
    random_iosc_affine,
    unit_cover,
)

LOG23 = math.log(2) / math.log(3)

PUNCTURED_PRINTED = (
    0.55122823,
    0.59223721,
    0.60049601,
    0.60242399,
    0.60289492,
    0.60301162,
)
NATURAL_PRINTED = (
    0.57913815,
    0.58216737,
    0.58451333,
    0.58638426,
    0.58791145,
    0.58918180,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_golden_level1_gdifs():
    F = paper_example()
    t0 = time.perf_counter()
    g = associate_from_periodic(F, [BreakCode(0.5, (1,), (2,))])
    value = alpha(g)
    elapsed = time.perf_counter() - t0
    ok = abs(value - 0.60304963) < 1e-6 and elapsed < 1.0
    # confirmation by the independent punctured route: the level-8 value
    # approaches the same limit from below
    t8 = punctured_level(F, 8).value
    ok = ok and t8 <= value and (value - t8) < 1e-3
    _report(
        1,
        ok,
        f"level-1 graph dimension {value:.8f} vs 0.60304963 "
        f"(punctured confirmation t_8 = {t8:.8f}), {elapsed:.3f} s",
    )


def test_criterion_2_punctured_sequence():
    F = paper_example()
    t0 = time.perf_counter()
    values = [punctured_level(F, k).value for k in range(3, 9)]
    elapsed = time.perf_counter() - t0
    err = max(abs(a - b) for a, b in zip(values, PUNCTURED_PRINTED))
    monotone = all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    ok = err < 1e-6 and monotone and elapsed < 30.0
    _report(2, ok, f"t_3..t_8 max err {err:.2e}, monotone {monotone}, {elapsed:.1f} s")


def test_criterion_3_natural_sequence():
    F = paper_example()
    t0 = time.perf_counter()
    est = natural_dimension(F, 6, 11)
    elapsed = time.perf_counter() - t0
    err = max(abs(a - b) for a, b in zip(est.roots, NATURAL_PRINTED))
    ok = err < 1e-6 and elapsed < 60.0
    _report(3, ok, f"s_6..s_11 max err {err:.2e}, {elapsed:.2f} s")


def test_criterion_4_cantor_closed_form():
    C = cantor_pair()
    est = natural_dimension(C, 1, 12)
    errs = [abs(r - LOG23) for r in est.roots]
    errs.append(abs(est.estimate - LOG23))
    g = gdifs_of_edges(
        nodes=(GdifsNode((1,), None, (0.0, 1.0)),),
        edges=(GdifsEdge(0, 0, 1 / 3, 0.0), GdifsEdge(0, 0, 1 / 3, 2 / 3)),
    )
    errs.append(abs(alpha(g) - LOG23))
    ok = max(errs) < 1e-10
    _report(4, ok, f"cantor worst deviation from log2/log3: {max(errs):.2e}")


def test_criterion_5_recursion_equals_determinant():
    rng = random.Random(20240805)
    worst = 0.0
    for m in (3, 4, 5):
        for _ in range(100):
            slopes = tuple(rng.uniform(0.05, 0.95) for _ in range(2 * m - 2))
            d = DetRecursion(slopes)
            for _ in range(10):
                s = rng.uniform(0.0, 2.0)
                dense = float(np.linalg.det(d.matrix(s)))
                worst = max(worst, abs(q_recursion(d, s) - dense))
    ok = worst < 1e-9
    _report(5, ok, f"m in {{3,4,5}}, 100 tuples x 10 s-values, worst |diff| {worst:.2e}")


def test_criterion_6_selfsimilar_consistency():
    rng = random.Random(20240806)
    worst = 0.0
    for _ in range(100):
        r1, r, r4 = (rng.uniform(0.05, 0.6) for _ in range(3))
        root = q_root(DetRecursion((r1, r, r, r4)))

        def sim_sum(s):
            return r1**s + r**s + r4**s - 1.0

        lo, hi = 0.0, 1.0
        while sim_sum(hi) > 0:
            hi *= 2
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if sim_sum(mid) > 0:
                lo = mid
            else:
                hi = mid
        worst = max(worst, abs(root - 0.5 * (lo + hi)))
    ok = worst < 1e-12
    _report(6, ok, f"rho2=rho3 determinant root vs similarity root, worst {worst:.2e}")


def test_criterion_7_three_way_agreement():
    rng = random.Random(20240807)
    worst_root = 0.0
    worst_nat = 0.0
    for _ in range(20):
        fam = random_family_instance(rng)
        a = alpha(fam.graph)
        worst_root = max(worst_root, abs(a - q_root(fam.det)))
        est = natural_dimension(fam.system, 12, 14)
        worst_nat = max(worst_nat, abs(a - est.estimate))
    ok = worst_root < 1e-10 and worst_nat < 5e-3
    _report(
        7,
        ok,
        f"20 instances: worst |alpha - q_root| {worst_root:.2e}, "
        f"worst |alpha - s_14| {worst_nat:.2e}",
    )


def test_criterion_8_pressure_squeeze():
    rng = random.Random(20240808)
    worst = -math.inf
    for _ in range(50):
        F = random_increasing_system(rng, span=True)
        lmin, lmax = math.log(F.min_ratio), math.log(F.max_ratio)
        for _ in range(10):
            n = rng.randint(1, 6)
            s_n = solve_level_root(F, n).root
            s = max(0.0, s_n + rng.uniform(-0.5, 0.5))
            phi = pressure_at(F, s, n)
            t = s - s_n
            lo, hi = min(t * lmin, t * lmax), max(t * lmin, t * lmax)
            worst = max(worst, lo - phi, phi - hi)
    ok = worst <= 1e-9
    _report(8, ok, f"50 systems x 10 (s, n) pairs, worst bound violation {worst:.2e}")


def test_criterion_9_upper_bound_ordering():
    rng = random.Random(20240809)
    checks = []

    cantor_cloud = chaos_game(cantor_pair(), 10**6, seed=101)
    fit = box_dimension(cantor_cloud, [3.0**-j for j in range(2, 10)])
    s_cantor = natural_dimension(cantor_pair(), 1, 8).estimate
    cantor_ok = abs(fit.slope - 0.631) <= 0.02 and fit.slope <= s_cantor + 0.05
    checks.append(cantor_ok)

    F = paper_example()
    cloud = chaos_game(F, 200_000, seed=102)
    fitp = box_dimension(cloud, [3.0**-j for j in range(2, 9)])
    s_paper = natural_dimension(F, 6, 11).estimate
    checks.append(fitp.slope <= s_paper + 0.05)

    worst_margin = -math.inf
    for _ in range(10):
        G = random_iosc_affine(rng)
        cloud = chaos_game(G, 200_000, seed=rng.randrange(2**32))
        lo, hi = G.invariant_interval()
        scales = [(hi - lo) * 3.0**-j for j in range(2, 9)]
        fitr = box_dimension(cloud, scales)
        s_est = natural_dimension(G, 6, 10).estimate
        worst_margin = max(worst_margin, fitr.slope - s_est)
        checks.append(fitr.slope <= s_est + 0.05)

    ok = all(checks)
    _report(
        9,
        ok,
        f"cantor box {fit.slope:.4f} (target 0.631 +- 0.02), paper box "
        f"{fitp.slope:.4f} <= {s_paper:.4f}+0.05, worst random margin {worst_margin:+.4f}",
    )


def test_criterion_10_measure_evidence():
    U = unit_cover()
    s1 = solve_level_root(U, 1).root
    bounds_u = lebesgue_upper_bound(U, 8)
    verdict_u = measure_evidence(bounds_u, s1)
    pos_ok = (
        verdict_u.classification == CONSISTENT_POSITIVE
        and abs(s1 - 1.3569154488) < 1e-6
        and all(abs(b - 1.0) < 1e-12 for b in bounds_u)
    )

    C = cantor_pair()
    bounds_c = lebesgue_upper_bound(C, 20)
    exact = max(abs(b - (2 / 3) ** n) for n, b in enumerate(bounds_c, 1))
    verdict_c = measure_evidence(bounds_c, natural_dimension(C, 1, 6).estimate)
    null_ok = verdict_c.classification == CONSISTENT_NULL and exact < 1e-9
    ok = pos_ok and null_ok
    _report(
        10,
        ok,
        f"overlapping pair {verdict_u.classification} (s_1 = {s1:.6f}), "
        f"cantor {verdict_c.classification} (bound vs (2/3)^n err {exact:.1e})",
    )
