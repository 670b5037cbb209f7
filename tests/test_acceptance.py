"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Each criterion is asserted at its stated tolerance, on the domain
where the documented closed form holds:

* 04 checks the norm sandwich for n = 2..4096.  At n = 1 the closed-form
  upper bound is 0.929, below the attained norm 1, so there the test checks
  the attained values instead and asserts that the upper formula is below 1.
* 11 checks that ``contcount compare`` crosses over at the octave that an
  independent evaluation of the two documented curves gives, 2^18, by a
  margin far above rounding.  The quoted figure's 2^19 is printed beside it.
"""

import math
import time
from fractions import Fraction

import numpy as np

import contcount as cc
from contcount.cli import main as cli_main
from contcount.linalg import schatten1, singular_values

BUDGET = cc.PrivacyBudget(1.0, 1e-10)
C2 = BUDGET.noise_multiplier**2


def check(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_factorization_exactness():
    worst = 0.0
    for n in range(1, 513):
        worst = max(worst, cc.residual(cc.sqrt_factorization(n)) / (1e-10 * n))
    binary_exact = True
    for k in range(1, 11):
        fact = cc.binary_factorization(2**k)
        binary_exact &= np.array_equal(fact.left @ fact.right, cc.counting_matrix(2**k))
    check(
        1,
        worst <= 1.0 and binary_exact,
        f"sqrt residual at most {worst:.3g} of the 1e-10*n budget (n=1..512); "
        f"binary exact at powers up to 1024: {binary_exact}",
    )


def test_criterion_02_coefficient_identity():
    coeffs = cc.sqrt_coefficients(10_001)
    worst_rel = 0.0
    for k in range(201):
        exact = cc.double_factorial_ratio(k)
        worst_rel = max(worst_rel, abs(coeffs[k] - float(exact)) / float(exact))

    # Chen-Qi sandwich on the exact rational ratio: exact integer arithmetic
    # up to k=256 (covers the equality case k=1), then float arithmetic with
    # an explicit error-budget guard.
    sandwich_ok = True
    num, den = 1, 1
    for k in range(1, 257):
        num *= 2 * k - 1
        den *= 2 * k
        q = Fraction(den * den, num * num)  # 1 / f(k)^2
        if not (q <= Fraction(math.pi * (k - 1) + 4.0)):
            sandwich_ok = False
        if not (Fraction(math.pi * (k + 0.25)) < q):
            sandwich_ok = False
    for k in range(257, 10_001):
        q = 1.0 / (coeffs[k] * coeffs[k])
        rho = (4.0 * k + 8.0) * 2.0**-53  # conservative accumulated rounding
        if not (q * (1 + rho) <= math.pi * (k - 1) + 4.0):
            sandwich_ok = False
        if not (math.pi * (k + 0.25) < q * (1 - rho)):
            sandwich_ok = False

    check(
        2,
        worst_rel <= 1e-14 and sandwich_ok,
        f"f(k) vs exact rational worst rel {worst_rel:.2e} (k<=200); "
        f"double-factorial sandwich holds for k in [1, 10000]: {sandwich_ok}",
    )


def test_criterion_03_spectrum():
    worst = 0.0
    for n in range(1, 257):
        closed = cc.counting_singular_values(n)
        numeric = singular_values(cc.counting_matrix(n))
        worst = max(worst, float(np.max(np.abs(closed - numeric) / numeric)))
    pair_ok = abs(cc.counting_singular_value(2, 1) - 1.61803) <= 5e-6 and abs(
        cc.counting_singular_value(2, 2) - 0.61803
    ) <= 5e-6
    check(
        3,
        worst <= 1e-8 and pair_ok,
        f"closed-form csc spectrum vs SVD worst rel {worst:.2e} (n=1..256); "
        f"n=2 golden pair: {pair_ok}",
    )


def test_criterion_04_gamma_sandwich():
    # The closed-form upper bound is documented as valid from n = 2 on.
    violations = []
    worst_lower, worst_upper = math.inf, math.inf
    for n in range(2, 4097):
        if n <= 256:
            mid = schatten1(cc.counting_matrix(n)) / math.sqrt(n)
        else:
            mid = cc.counting_schatten1(n) / math.sqrt(n)
        lower, upper = cc.gamma_lower_bound_count(n), cc.gamma_upper_bound_count(n)
        worst_lower = min(worst_lower, mid - lower)
        worst_upper = min(worst_upper, upper - mid)
        if not lower <= mid <= upper:
            violations.append(n)

    # n = 1: the attained values.  ||M_1||_1 = 1 and the sqrt factorization
    # attains norm 1; the upper formula is vacuous there (below 1).
    trace1 = schatten1(cc.counting_matrix(1))
    attained1 = math.sqrt(1 * cc.expected_mse(cc.sqrt_factorization(1), BUDGET) / C2)
    lower1, upper1 = cc.gamma_lower_bound_count(1), cc.gamma_upper_bound_count(1)
    n1_ok = lower1 <= trace1 == 1.0 and math.isclose(attained1, 1.0, rel_tol=1e-12) and upper1 < 1.0

    check(
        4,
        not violations and n1_ok,
        f"sandwich over n=2..4096, violations at n={violations}, smallest slack "
        f"{worst_lower:.3g} below / {worst_upper:.3g} above; n=1: lower {lower1:.5f} "
        f"<= ||M_1||_1 = {trace1:.17g}, sqrt-factorization norm {attained1:.17g}, "
        f"closed-form upper {upper1:.5f} < 1 (vacuous at n=1)",
    )


def test_criterion_05_gap_claim():
    worst = 0.0
    for k in (10, 20, 24, 30):
        n = 2**k
        gap = cc.err_upper_bound(n, BUDGET) - cc.err_lower_bound_matrix_mech(n, BUDGET)
        worst = max(worst, gap / C2)
    check(5, worst <= 10.0, f"worst additive gap {worst:.4f} C^2 <= 10 C^2")


def test_criterion_06_monte_carlo_error():
    trials = 100_000
    est2, se2 = cc.monte_carlo_mse("factorization", 2, trials, BUDGET, seed=11)
    closed2 = cc.expected_mse(cc.sqrt_factorization(2), BUDGET)  # 1.40625 C^2
    ok2 = abs(est2 - closed2) <= 3 * se2

    est8, se8 = cc.monte_carlo_mse("factorization", 8, trials, BUDGET, seed=22)
    closed8 = cc.expected_mse(cc.sqrt_factorization(8), BUDGET)
    ok8 = abs(est8 - closed8) <= 3 * se8

    estb, seb = cc.monte_carlo_mse("binary", 8, trials, BUDGET, seed=33)
    okb = abs(estb - 6.5 * C2) <= 3 * seb

    check(
        6,
        ok2 and ok8 and okb,
        f"sqrt n=2: {est2 / C2:.4f} C^2 vs closed {closed2 / C2:.5f} C^2 (3se {3 * se2 / C2:.4f}); "
        f"sqrt n=8: {est8 / C2:.4f} vs {closed8 / C2:.4f}; "
        f"binary n=8: {estb / C2:.4f} vs 6.5",
    )


def test_criterion_07_binary_norms_and_ratio():
    norms_ok = True
    for k in range(1, 11):
        n = 2**k
        fact = cc.binary_factorization(n)
        norms_ok &= float(np.max(np.sum(fact.right**2, axis=0))) == 1.0 + k
        norms_ok &= float(np.sum(fact.left**2)) == n * k / 2 + 1

    ratio = cc.suboptimality_ratio(2**20)
    # formula evaluation gives 7.359749599743628 (the stated 7.361 rounds it
    # past its own +-0.001 window; asserted against the formula value)
    ratio_ok = abs(ratio - 7.359749599743628) <= 1e-3

    limit = math.pi**2 / (2 * math.log(2) ** 2)
    values = [cc.suboptimality_ratio(2**k) for k in range(2, 61)]
    mono_ok = all(a <= b for a, b in zip(values, values[1:])) and values[-1] < limit
    approach_ok = abs(limit - 10.27) <= 5e-3

    check(
        7,
        norms_ok and ratio_ok and mono_ok and approach_ok,
        f"exact binary norms at powers <= 1024: {norms_ok}; ratio(2^20)={ratio:.6f}; "
        f"nondecreasing toward {limit:.4f}: {mono_ok}",
    )


def test_criterion_08_honaker():
    ok = True
    worst_res = 0.0
    for n in range(2, 257):
        hon = cc.honaker_left(n)
        res = cc.residual(hon)
        worst_res = max(worst_res, res)
        ok &= res <= 1e-8
        bin_fro = float(np.sum(cc.binary_factorization(n).left ** 2))
        ok &= float(np.sum(hon.left**2)) <= bin_fro + 1e-12
    check(8, ok, f"n=2..256: worst residual {worst_res:.2e} <= 1e-8, Frobenius never above binary")


def test_criterion_09_certificates():
    rng = np.random.default_rng(2024)
    svd_ok = True
    for _ in range(200):
        n, m = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        a = rng.normal(size=(n, m))
        cert = cc.build_svd_certificate(a)
        feasible, objective = cc.verify_certificate(a, cert)
        svd_ok &= feasible
        svd_ok &= abs(objective - cc.gamma_lower(a)) <= 1e-9 * (1 + abs(objective))

    diag_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 13))
        d = np.diag(rng.normal(size=n) + np.sign(rng.normal(size=n)) * 0.1)
        cert = cc.build_diagonal_certificate(d)
        feasible, objective = cc.verify_diagonal_certificate(d, cert)
        diag_ok &= feasible
        upper = cc.gamma_upper(d)
        diag_ok &= abs(objective - upper) <= 1e-9 * (1 + upper)

    check(
        9,
        svd_ok and diag_ok,
        f"200 SVD certificates feasible with trace-norm objective: {svd_ok}; "
        f"200 diagonal certificates pinch to the Frobenius bound: {diag_ok}",
    )


def test_criterion_10_parity():
    spectra_ok = True
    closed_ok = True
    for d in range(1, 11):
        for w in range(1, d + 1):
            mat = cc.parity_workload(d, w)
            s = singular_values(mat)
            target = 2.0 ** (d / 2.0)
            spectra_ok &= bool(np.all(np.abs(s - target) <= 1e-9 * target))
            closed_ok &= cc.parity_gamma_lower(d, w) == float(math.comb(d, w))
    check(
        10,
        spectra_ok and closed_ok,
        f"flat 2^(d/2) spectra for d <= 10: {spectra_ok}; closed form equals C(d,w): {closed_ok}",
    )


QUOTED_CROSSOVER = 2**19  # the figure's octave as quoted; the figure is not in the repo


def _noise_multiplier_sq(eps: float, delta: float) -> float:
    """C(eps, delta)^2 with C = (2/eps) sqrt(4/9 + ln(sqrt(2/pi)/delta))."""
    return ((2.0 / eps) * math.sqrt(4.0 / 9.0 + math.log(math.sqrt(2.0 / math.pi) / delta))) ** 2


def _crossover_oracle(n_max: int, eps_fact: float, eps_bin: float, delta: float):
    """Both ``compare`` curves at n = 2, 4, ..., n_max, written out from the
    formulas without importing contcount.

    Factorization: C(eps_fact)^2 (1 + ln(4n/5)/pi)^2.  Binary: every leaf
    lies under 1 + log2(n) tree nodes, so each node gets variance
    C(eps_bin)^2 (1 + log2 n), and round t sums popcount(t) nodes; the MSE is
    that variance times sum_{t<=n} popcount(t) / n, with the popcount sum an
    exact integer.
    """
    t = np.arange(1, n_max + 1, dtype=np.uint32)
    popcount_sums = np.cumsum(np.bitwise_count(t), dtype=np.int64)
    curves = {}
    for m in range(1, n_max.bit_length()):
        n = 2**m
        fact = _noise_multiplier_sq(eps_fact, delta) * (1.0 + math.log(4.0 * n / 5.0) / math.pi) ** 2
        binary = _noise_multiplier_sq(eps_bin, delta) * (1 + m) * int(popcount_sums[n - 1]) / n
        curves[n] = (fact, binary)
    return curves


def _octave(n) -> str:
    return "none" if n is None else f"2^{n.bit_length() - 1}"


def test_criterion_11_figure_crossover(tmp_path):
    n_max, eps_fact, eps_bin, delta = 2**22, 0.3, 0.8, 1e-10
    out = tmp_path / "compare.csv"
    code = cli_main(
        [
            "compare",
            "--n-max",
            str(n_max),
            "--eps-fact",
            str(eps_fact),
            "--eps-bin",
            str(eps_bin),
            "--delta",
            str(delta),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    crossover = None
    for line in out.read_text().splitlines()[1:]:
        fields = line.split(",")
        n, fact, binary = int(fields[0]), float(fields[4]), float(fields[6])
        if crossover is None and fact < binary:
            crossover = n

    curves = _crossover_oracle(n_max, eps_fact, eps_bin, delta)
    expected = next(n for n, (fact, binary) in curves.items() if fact < binary)
    fact_at, bin_at = curves[expected]
    fact_before, bin_before = curves[expected // 2]
    margin_at = (bin_at - fact_at) / bin_at
    margin_before = (fact_before - bin_before) / fact_before
    unit = _noise_multiplier_sq(eps_bin, delta)
    check(
        11,
        crossover == expected and min(margin_at, margin_before) > 1e-9,
        f"first power of two with factorization below binary: CLI {_octave(crossover)}, "
        f"closed forms {_octave(expected)} (quoted: {_octave(QUOTED_CROSSOVER)}); in C(0.8)^2 "
        f"units, at {_octave(expected // 2)}: fact {fact_before / unit:.2f} vs binary "
        f"{bin_before / unit:.2f} (margin {margin_before:.2%}); at {_octave(expected)}: "
        f"fact {fact_at / unit:.2f} vs binary {bin_at / unit:.2f} (margin {margin_at:.2%})",
    )


def test_criterion_12_dp_ftrl():
    t0 = time.time()
    budget = cc.PrivacyBudget(1.0, 1e-6)
    bound = cc.regret_bound(2048, 1.0, 5, budget, 1.0)
    regrets = []
    for i in range(20):
        seed = 1000 + i
        task = cc.logistic_task(2048, 5, seed)
        rep = cc.run_dp_ftrl_logistic(task, budget, seed + 2**32)
        regrets.append(rep.regret)
    mean_regret = float(np.mean(regrets))
    mean_ok = mean_regret <= bound
    per_seed_ok = max(regrets) <= 1.5 * bound

    # noise disabled: DP-FTRL must reproduce classical FTRL iterate-for-iterate
    off = cc.PrivacyBudget(math.inf, 1e-6)
    task = cc.logistic_task(256, 5, seed=1)
    lam = cc.lambda_star(256, 1.0, 5, budget, 1.0)
    learner = cc.DpFtrlLearner(256, 5, off, seed=2, lam=lam)
    theta_ref = np.zeros(5)
    prefix = np.zeros(5)
    noise_off_ok = True
    for i in range(256):
        noise_off_ok &= float(np.max(np.abs(learner.theta - theta_ref))) <= 1e-12
        g = task.point_grad(learner.theta, i)
        learner.step_gradient(g)
        ref = task.point_grad(theta_ref, i)
        nn = np.linalg.norm(ref)
        if nn > 1.0:
            ref = ref / nn
        prefix = prefix + ref
        theta_ref = prefix * (-1.0 / lam)
        if np.linalg.norm(theta_ref) > 1.0:
            theta_ref = theta_ref / np.linalg.norm(theta_ref)
    elapsed = time.time() - t0
    check(
        12,
        mean_ok and per_seed_ok and noise_off_ok and elapsed < 60,
        f"mean regret {mean_regret:.4f} <= bound {bound:.4f} over 20 seeds; "
        f"max {max(regrets):.4f} <= 1.5x bound; noise-off matches classical FTRL: "
        f"{noise_off_ok}; runtime {elapsed:.1f}s",
    )


def test_criterion_13_streaming_performance():
    n = 1_000_000
    t0 = time.time()
    counter = cc.StreamingCounter(n, BUDGET, seed=5)
    preprocess = time.time() - t0

    t0 = time.time()
    for _ in range(n // 2):
        counter.step(1)
    first_half = time.time() - t0
    t0 = time.time()
    for _ in range(n // 2):
        counter.step(0)
    second_half = time.time() - t0

    constant_step = second_half <= 3.0 * first_half and first_half <= 3.0 * second_half
    fast_enough = preprocess < 30.0 and first_half + second_half < 60.0

    dense_guarded = False
    try:
        cc.sqrt_factorization(4097)
    except ValueError:
        dense_guarded = True

    check(
        13,
        constant_step and fast_enough and dense_guarded,
        f"1e6 steps: halves {first_half:.2f}s/{second_half:.2f}s (t-independent), "
        f"preprocessing {preprocess:.2f}s via the coefficient path; dense builds "
        f"refused past 4096: {dense_guarded}",
    )
