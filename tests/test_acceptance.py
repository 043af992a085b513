"""Acceptance suite: desk-scale property checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they print.  Every expected value here is either asserted
exactly or recomputed by the brute-force oracle; nothing is tuned.
"""

import math
import time
from dataclasses import dataclass

import pytest

from polynull import (
    Fail,
    PolyMatrix,
    RandomPlan,
    kernel_linearized,
    kronecker_indices,
    nullspace,
    nullspace_minimal_vectors,
    pm_mul,
    pm_mul_mod,
    pm_random,
    rank_oracle,
    select_low_rows,
    sigma_basis,
)
from polynull.field import FieldSpec, Poly
from polynull.polymat import _mul_eval_interp, const_rank

from conftest import log2_ceil, make_rng, planted_rank, series_inverse, tdeg_row

FIELD = FieldSpec()  # p = 2^31 - 1


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@dataclass
class CorpusRun:
    m: int
    n: int
    d: int
    matrix: PolyMatrix
    result: object  # NullspaceResult or Fail
    elapsed: float


@pytest.fixture(scope="module")
def corpus():
    """Criterion 1 corpus: 500 fuzzed instances, mixed planted ranks."""
    rng = make_rng(0xACCE97)
    runs = []
    start = time.perf_counter()
    for _ in range(500):
        m = rng.randrange(1, 25)
        n = rng.randrange(1, 17)
        d = rng.randrange(0, 6)
        r = rng.randrange(0, min(m, n) + 1)
        matrix = planted_rank(FIELD, m, n, r, d, rng)
        t0 = time.perf_counter()
        try:
            result = nullspace(matrix, RandomPlan(rng.randrange(2**63)))
        except Fail as exc:
            result = exc
        runs.append(CorpusRun(m, n, d, matrix, result, time.perf_counter() - t0))
    total = time.perf_counter() - start
    return runs, total


def test_criterion_1_exact_annihilation(corpus):
    runs, total = corpus
    rng = make_rng(1)
    bad = 0
    for run in runs:
        if isinstance(run.result, Fail):
            continue
        res = run.result
        if not pm_mul(res.basis, run.matrix).is_zero():
            bad += 1
            continue
        fresh = rng.randrange(1, FIELD.p)
        if const_rank(res.basis.eval(fresh), FIELD.p) != run.m - res.rank:
            bad += 1
    _verdict(
        "criterion 1: exact annihilation and evaluation-rank certificate",
        bad == 0 and total < 60.0,
        f"500 instances, 0 tolerance, corpus built in {total:.1f}s",
    )


def test_criterion_2_rank_matches_oracle(corpus):
    runs, _ = corpus
    bad = sum(
        1
        for run in runs
        if not isinstance(run.result, Fail) and run.result.rank != rank_oracle(run.matrix)
    )
    _verdict("criterion 2: rank equals brute-force oracle rank", bad == 0)


def test_criterion_3_minimal_vector_fidelity():
    rng = make_rng(0x3)
    instances = 0
    bad = 0
    while instances < 200:
        n = rng.randrange(1, 13)
        p_extra = rng.randrange(1, n + 1)
        d = rng.randrange(0, 5)
        m = pm_random(n + p_extra, n, d, FIELD, rng)
        if rank_oracle(m) < n:
            continue
        instances += 1
        profile = kronecker_indices(m)
        for delta in sorted({0, d, 2 * d, n * d}):
            res = nullspace_minimal_vectors(m, delta, RandomPlan(rng.randrange(2**63)))
            want = tuple(i for i in profile.indices if i <= delta)
            if res.kappa != len(want) or res.degrees != want:
                bad += 1
    _verdict(
        "criterion 3: minimal vectors match truncated Kronecker indices",
        bad == 0,
        "200 full column-rank instances, delta swept {0, d, 2d, nd}",
    )


def test_criterion_4_degree_sum_bounds(corpus):
    runs, _ = corpus
    bad = 0
    for run in runs:
        if isinstance(run.result, Fail):
            continue
        res = run.result
        bound = res.rank * run.d * log2_ceil(res.rank) + max(0, run.m - 2 * res.rank) * run.d
        if res.degree_sum > bound:
            bad += 1
    rng = make_rng(0x4)
    for _ in range(40):
        n = rng.randrange(1, 9)
        q = rng.randrange(1, n + 1)
        d = rng.randrange(0, 5)
        m = pm_random(n + q, n, d, FIELD, rng)
        if rank_oracle(m) < n:
            continue
        res = nullspace(m, RandomPlan(rng.randrange(2**63)))
        if res.degree_sum > n * d * log2_ceil(q):
            bad += 1
    _verdict("criterion 4: degree sums within the stacking bounds", bad == 0)


def test_criterion_5_generic_degrees():
    rng = make_rng(0x5)
    bad = 0
    for trial in range(50):
        n = (4, 8)[trial % 2]
        d = (2, 3)[(trial // 2) % 2]
        m = pm_random(2 * n, n, d, FIELD, rng)
        res = nullspace_minimal_vectors(m, d, RandomPlan(rng.randrange(2**63)))
        if res.kappa != n or res.degrees != (d,) * n:
            bad += 1
    _verdict(
        "criterion 5: generic 2n x n inputs yield n vectors of degree exactly d",
        bad == 0,
        "50 uniform instances, n in {4,8}, d in {2,3}",
    )


def test_criterion_6_order_basis_contract():
    rng = make_rng(0x6)
    bad = 0
    for _ in range(200):
        q = rng.randrange(1, 7)
        s = rng.randrange(1, 4)
        order = rng.randrange(1, 41)
        t = [rng.randrange(5) for _ in range(q)]
        g = pm_random(q, s, max(order - 1, 0), FIELD, rng)
        basis = sigma_basis(g, order, t)
        if not pm_mul(basis.L, g).truncate(order).is_zero():
            bad += 1
            continue
        point = rng.randrange(1, FIELD.p)
        if const_rank(basis.L.eval(point), FIELD.p) != q:
            bad += 1
            continue
        _, picked = select_low_rows(basis, math.inf)
        floor = basis.tdegs[picked[0]]
        exact = kernel_linearized(g, 5)
        if any(tdeg_row(exact.row_polys(i), t) < floor for i in range(exact.rows)):
            bad += 1
    _verdict(
        "criterion 6: order-basis annihilation, nonsingularity, minimality floor",
        bad == 0,
        "200 random instances, q <= 6, s <= 3, order <= 40",
    )


def test_criterion_7_series_residual():
    rng = make_rng(0x7)
    checked = 0
    bad = 0
    while checked < 100:
        n = rng.randrange(1, 9)
        d = rng.randrange(0, 5)
        eta = rng.randrange(1, 65)
        a = pm_random(n, n, d, FIELD, rng)
        if const_rank(a.eval(0), FIELD.p) < n:
            continue
        checked += 1
        inv = series_inverse(a, eta)
        if pm_mul_mod(a, inv, eta) != PolyMatrix.identity(FIELD, n):
            bad += 1
    _verdict("criterion 7: series inverse residual is exactly zero", bad == 0, "100 instances")


def test_criterion_8_las_vegas_discipline(corpus):
    runs, _ = corpus
    hard_failures = sum(1 for run in runs if isinstance(run.result, Fail))
    first_attempt_failures = sum(
        1
        for run in runs
        if not isinstance(run.result, Fail) and run.result.retries_used > 0
    ) + hard_failures
    rate = first_attempt_failures / len(runs)
    _verdict(
        "criterion 8: first-attempt failure rate below 5%, no uncertified answers",
        rate < 0.05 and hard_failures == 0,
        f"rate {rate:.3%}, {hard_failures} exhausted-retry failures",
    )


def test_criterion_9_loop_count_bound(harvests):
    rng = make_rng(0x9)
    bad = 0
    checked = 0

    def check(m, q):
        nonlocal bad, checked
        checked += 1
        nullspace(m, RandomPlan(rng.randrange(2**63)))
        if harvests() > log2_ceil(q):
            bad += 1

    for _ in range(50):
        n = rng.randrange(1, 9)
        q = rng.randrange(1, n + 1)
        d = rng.randrange(0, 5)
        m = pm_random(n + q, n, d, FIELD, rng)
        if rank_oracle(m) < n:
            continue
        check(m, q)
    # unbalanced instances that force more than one pass
    x = Poly.x(FIELD)
    one = Poly.one(FIELD)
    z = Poly.zero(FIELD)
    for extra in (1, 2):
        rows = [[x, -one, z], [z, x, -one], [z, z, x], [one, z, z]]
        rows += [[z, z, z]] * extra
        check(PolyMatrix.from_polys(rows), 1 + extra)
    _verdict(
        "criterion 9: full column rank with q <= n extra rows: at most ceil(log2 q) harvests",
        bad == 0,
        f"{checked} runs including unbalanced-index instances",
    )

    # the general case: ceil(max(0, m - 2r) / r) row blocks, then at most
    # ceil(log2 min(r, m - r)) halving passes, one minimal-vectors call each
    bad = 0
    ok = 0
    for field in (FIELD, FieldSpec(1009)):
        for _ in range(40):
            m_rows = rng.randrange(2, 13)
            n_cols = rng.randrange(1, 7)
            r = rng.randrange(1, min(m_rows - 1, n_cols) + 1)
            m = planted_rank(field, m_rows, n_cols, r, rng.randrange(4), rng)
            try:
                res = nullspace(m, RandomPlan(rng.randrange(2**63), max_retries=0))
            except Fail:
                continue
            r = res.rank
            if not 0 < r < m_rows:
                continue
            ok += 1
            bound = math.ceil(max(0, m_rows - 2 * r) / r) + log2_ceil(min(r, m_rows - r))
            bad += harvests() > bound
    _verdict(
        "criterion 9: at most ceil(max(0, m-2r)/r) + ceil(log2 min(r, m-r)) harvests per call",
        bad == 0 and ok >= 60,
        f"{ok} successful first attempts at p = 2^31-1 and 1009",
    )


def test_criterion_10_multiplication_crossover():
    rng = make_rng(0xA)
    bad = 0
    for _ in range(100):
        m = rng.randrange(1, 7)
        k = rng.randrange(1, 7)
        n = rng.randrange(1, 7)
        d = rng.randrange(0, 6)
        a = pm_random(m, k, d, FIELD, rng)
        b = pm_random(k, n, d, FIELD, rng)
        if a.is_zero() or b.is_zero():
            continue
        if _mul_eval_interp(a, b) != pm_mul_mod(a, b, 2 * d + 1):
            bad += 1
    a = pm_random(64, 64, 32, FIELD, rng)
    b = pm_random(64, 64, 32, FIELD, rng)
    t0 = time.perf_counter()
    fast = _mul_eval_interp(a, b)
    t_eval = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow = pm_mul_mod(a, b, 2 * 32 + 1)
    t_conv = time.perf_counter() - t0
    _verdict(
        "criterion 10: evaluation/interpolation exact and faster at n=64 d=32",
        bad == 0 and fast == slow and t_eval < t_conv,
        f"eval {t_eval * 1000:.0f} ms vs convolution {t_conv * 1000:.0f} ms",
    )
