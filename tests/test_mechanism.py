import copy
import dataclasses
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from contcount import mechanism
from contcount.factorization import (
    DENSE_LIMIT,
    binary_factorization,
    binary_right_factor,
    expected_mse,
    honaker_left,
    sqrt_coefficients,
    sqrt_factorization,
)
from contcount.linalg import col_norm_1to2, lower_toeplitz, toeplitz_lower_matvec
from contcount.mechanism import (
    MECHANISM_KINDS,
    PrivacyBudget,
    StreamingCounter,
    matrix_mechanism_run,
    monte_carlo_mse,
    noise_multiplier,
    release,
    _generator,
)
from contcount.workload import counting_matrix

BUDGET = PrivacyBudget(1.0, 1e-10)
NOISE_OFF = PrivacyBudget(math.inf, 1e-10)
C2 = BUDGET.noise_multiplier**2


def test_noise_multiplier_inverse_point():
    # delta chosen so that 4/9 + ln((1/delta) sqrt(2/pi)) = 1, eps = 2 => C = 1
    delta = math.sqrt(2 / math.pi) * math.exp(-(1 - 4 / 9))
    assert noise_multiplier(2.0, delta) == pytest.approx(1.0, rel=1e-12)


def test_noise_multiplier_values():
    assert noise_multiplier(1.0, 1e-10) == pytest.approx(9.642510880831853, rel=1e-12)
    assert noise_multiplier(0.5, 1e-10) == pytest.approx(
        2 * noise_multiplier(1.0, 1e-10), rel=1e-15
    )


def test_noise_multiplier_domain():
    with pytest.raises(ValueError):
        noise_multiplier(0.0, 1e-10)
    with pytest.raises(ValueError):
        noise_multiplier(math.nan, 1e-10)
    with pytest.raises(ValueError):
        noise_multiplier(1.0, 0.0)
    with pytest.raises(ValueError):
        noise_multiplier(1.0, 1.0)


def test_privacy_budget_validation():
    # one epsilon policy: every epsilon > 0 is accepted, beyond 1 too
    assert [f.name for f in dataclasses.fields(PrivacyBudget)] == ["epsilon", "delta"]
    assert PrivacyBudget(1.5, 1e-10).noise_multiplier > 0
    assert PrivacyBudget(math.inf, 1e-10).noise_multiplier == 0.0
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 0.0)
    with pytest.raises(ValueError):
        PrivacyBudget(math.nan, 1e-10)
    assert NOISE_OFF.noise_multiplier == 0.0


def test_privacy_budget_computes_its_multiplier_once(monkeypatch):
    calls, original = [], mechanism.noise_multiplier

    def counted(epsilon, delta):
        calls.append((epsilon, delta))
        return original(epsilon, delta)

    monkeypatch.setattr(mechanism, "noise_multiplier", counted)
    budget = PrivacyBudget(0.5, 1e-8)
    assert [budget.noise_multiplier for _ in range(3)] == [budget.noise_multiplier] * 3
    assert calls == [(0.5, 1e-8)]
    # the cached value is not a field: equality and hashing see (epsilon, delta)
    assert budget == PrivacyBudget(0.5, 1e-8) and hash(budget) == hash(PrivacyBudget(0.5, 1e-8))


def test_infinite_epsilon_is_the_only_noise_free_budget():
    assert PrivacyBudget(math.inf, 1e-6).noise_multiplier == 0.0
    with pytest.raises(ValueError, match="delta"):
        PrivacyBudget(math.inf, 0.0)
    # a budget cannot claim an epsilon and add another noise level
    with pytest.raises(TypeError):
        PrivacyBudget(1.0, 1e-6, override_noise_multiplier=0.0)


def test_streaming_counter_noise_off_exact():
    counter = StreamingCounter(3, NOISE_OFF, seed=7)
    assert [counter.step(b) for b in (1, 0, 1)] == [1.0, 1.0, 2.0]


def test_streaming_counter_zero_stream_returns_noise():
    counter = StreamingCounter(16, BUDGET, seed=11)
    outputs = np.array([counter.step(0) for _ in range(16)])
    assert np.array_equal(outputs, counter.noise)


def test_streaming_counter_deterministic():
    a = StreamingCounter(64, BUDGET, seed=123)
    b = StreamingCounter(64, BUDGET, seed=123)
    assert np.array_equal(a.noise, b.noise)
    c = StreamingCounter(64, BUDGET, seed=124)
    assert not np.array_equal(a.noise, c.noise)


def test_streaming_counter_errors():
    counter = StreamingCounter(2, NOISE_OFF, seed=0)
    with pytest.raises(ValueError, match="bits"):
        counter.step(2)
    counter.step(1)
    counter.step(0)
    with pytest.raises(ValueError, match="horizon"):
        counter.step(1)
    with pytest.raises(ValueError):
        StreamingCounter(0, BUDGET, seed=0)


def test_streaming_step_accepts_bit_like_values_only():
    # the bits the step accepts and refuses are those of `x_t in (0, 1)`
    bits = [1, True, np.int64(1), 1.0, np.float64(0.0), 0, False, np.uint8(1)]
    counter = StreamingCounter(len(bits), BUDGET, seed=4)
    reference = StreamingCounter(len(bits), BUDGET, seed=4)
    for bit in bits:
        for bad in (2, -1, 0.5, "1", None, math.nan):
            with pytest.raises(ValueError, match=f"must be bits, got {bad!r}"):
                counter.step(bad)
        got = counter.step(bit)
        assert type(got) is float and type(counter.running_sum) is int
        assert got == reference.step(int(bit))
    assert counter.t == len(bits) and counter.running_sum == 5


def test_pickled_and_copied_counters_resume_byte_for_byte():
    bits = [1, 0, 1, 1, 0, 0, 1, 0] * 8
    counter = StreamingCounter(len(bits), BUDGET, seed=9)
    reference = StreamingCounter(len(bits), BUDGET, seed=9)
    want = np.array([reference.step(bit) for bit in bits])
    half = len(bits) // 2
    first = [counter.step(bit) for bit in bits[:half]]
    for resumed in (pickle.loads(pickle.dumps(counter)), copy.deepcopy(counter), counter):
        assert resumed.t == half and resumed.noise.tobytes() == counter.noise.tobytes()
        rest = [resumed.step(bit) for bit in bits[half:]]
        assert np.array(first + rest).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="horizon"):
            resumed.step(0)


def test_streaming_matches_dense_path():
    n = 64
    seed = 42
    counter = StreamingCounter(n, BUDGET, seed)
    x = (np.arange(n) % 3 == 0).astype(int)
    outputs = np.array([counter.step(int(v)) for v in x])

    coeffs = sqrt_coefficients(n)
    scale = BUDGET.noise_multiplier * math.sqrt(np.sum(coeffs**2))
    g = _generator(seed).standard_normal(n) * scale
    dense = counting_matrix(n) @ x + lower_toeplitz(coeffs) @ g
    assert np.max(np.abs(outputs - dense)) <= 1e-9


def test_streaming_noise_variance():
    # noise[t] is a linear form in iid normals: var = C^2 ||R||^2 ||L[t,:]||^2
    n, reps = 4, 100_000
    samples = np.empty((reps, n))
    for i in range(reps):
        samples[i] = StreamingCounter(n, BUDGET, seed=50_000 + i).noise
    got = samples.var(axis=0)
    coeffs = sqrt_coefficients(n)
    col_sq = float(np.sum(coeffs**2))
    want = C2 * col_sq * np.cumsum(coeffs**2)
    assert np.all(np.abs(got - want) <= 0.05 * want)


def test_binary_mechanism_noise_off():
    x = np.array([1, 0, 1, 1, 0, 1, 1, 1])
    out = release("binary", x, NOISE_OFF, seed=3)
    assert np.array_equal(out, np.cumsum(x))


def test_binary_mechanism_matches_dense_oracle():
    from contcount.factorization import binary_factorization

    for n, seed in ((4, 5), (8, 9), (13, 2)):
        x = (np.arange(n) % 2).astype(int)
        out = release("binary", x, BUDGET, seed)
        full = 1 << max(0, (n - 1).bit_length())
        sigma = BUDGET.noise_multiplier * math.sqrt(1 + math.log2(full))
        y = _generator(seed).standard_normal(2 * full - 1) * sigma
        fact = binary_factorization(n)
        dense = fact.left @ (fact.right @ x + y)
        assert np.max(np.abs(out - dense)) <= 1e-9


def _binary_noise_loop(n, budget, seed):
    """Round-by-round binary-mechanism noise, each round's node noise added
    left to right: the reference for the level-by-level one."""
    from tree_oracles import dyadic_decomposition, postorder_index

    full = 1 << max(0, (n - 1).bit_length())
    sigma = budget.noise_multiplier * math.sqrt(1.0 + math.log2(full))
    y = _generator(seed).standard_normal(2 * full - 1) * sigma
    out = np.empty(n)
    for t in range(1, n + 1):
        acc = 0.0
        for a, b in dyadic_decomposition(t):
            acc += y[postorder_index(a, b, full)]
        out[t - 1] = acc
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 100, 255, 256, 257, 768, 1000, 2**14])
def test_binary_mechanism_bit_identical_to_loop(n):
    for seed in (0, 17, 2**32 + 5):
        x = _generator(seed + n).integers(0, 2, n)
        assert np.array_equal(
            release("binary", x, BUDGET, seed), _binary_noise_loop(n, BUDGET, seed) + np.cumsum(x)
        )


@pytest.mark.parametrize("n", [2**20 - 1, 2**20, 2**20 + 1, 10**6])
def test_binary_mechanism_bit_identical_to_tiles_at_large_n(n):
    from tree_oracles import binary_noise_by_tiles

    width = 2 * (1 << (n - 1).bit_length()) - 1
    for seed in (0, 17, 2**32 + 5):
        x = _generator(seed + n).integers(0, 2, n)
        z = _generator(seed).standard_normal((1, width))
        want = binary_noise_by_tiles(z, BUDGET.noise_multiplier, n)[0] + np.cumsum(x)
        assert np.array_equal(release("binary", x, BUDGET, seed), want)


def test_binary_block_bit_identical_to_tiles():
    from tree_oracles import binary_noise_by_tiles

    n = 5000
    z = mechanism._normals(9, 3, 2 * 8192 - 1)
    want = binary_noise_by_tiles(z, BUDGET.noise_multiplier, n)
    assert np.array_equal(mechanism._binary_noise(z, BUDGET.noise_multiplier, n), want)


def test_binary_mechanism_accepts_bool_and_float_bits():
    x = np.array([1, 0, 1, 1, 0, 1, 1])
    want = release("binary", x, BUDGET, seed=8)
    assert np.array_equal(release("binary", x.astype(bool), BUDGET, seed=8), want)
    assert np.array_equal(release("binary", x.astype(float), BUDGET, seed=8), want)


@pytest.mark.parametrize("kind", MECHANISM_KINDS)
@pytest.mark.parametrize("n", [1, 7, 512, 513, 4097])
def test_release_bytes_do_not_depend_on_bit_dtype(kind, n):
    """int8 streams (what the CLI reader returns), uint8, bool and int64
    streams release the same bytes, with the prefix sums taken in int64."""
    x = _generator(n).integers(0, 2, n)
    want = release(kind, x.astype(np.int64), BUDGET, 21).tobytes()
    for dtype in (np.int8, np.uint8, bool):
        assert release(kind, x.astype(dtype), BUDGET, 21).tobytes() == want, dtype
        prefix, noisy = mechanism._release_with_prefix(kind, x.astype(dtype), BUDGET, 21)
        assert prefix.dtype == np.int64 and np.array_equal(prefix, np.cumsum(x))
        assert noisy.tobytes() == want


def test_binary_mechanism_rejects_non_bits():
    with pytest.raises(ValueError):
        release("binary", np.array([0, 2]), BUDGET, seed=0)


def test_matrix_mechanism_noise_off_exact():
    fact = sqrt_factorization(8)
    x = np.arange(8.0) % 2
    out = matrix_mechanism_run(fact, x, NOISE_OFF, seed=1)
    assert np.max(np.abs(out - counting_matrix(8) @ x)) <= 1e-12


def test_matrix_mechanism_agrees_with_streaming():
    # same seed => same standard normals => identical realized outputs
    n, seed = 64, 77
    x = (np.arange(n) % 5 == 1).astype(float)
    fact = sqrt_factorization(n)
    dense_out = matrix_mechanism_run(fact, x, BUDGET, seed)
    counter = StreamingCounter(n, BUDGET, seed)
    stream_out = np.array([counter.step(int(v)) for v in x])
    assert np.max(np.abs(dense_out - stream_out)) <= 1e-9


def test_matrix_mechanism_honaker_smoke():
    out = matrix_mechanism_run(honaker_left(8), np.ones(8), BUDGET, seed=4)
    assert out.shape == (8,) and np.all(np.isfinite(out))


def test_matrix_mechanism_dimension_mismatch():
    with pytest.raises(ValueError):
        matrix_mechanism_run(sqrt_factorization(4), np.ones(5), BUDGET, seed=0)


def test_monte_carlo_degenerate():
    assert monte_carlo_mse("factorization", 4, 1, NOISE_OFF, seed=0) == (0.0, 0.0)


def test_monte_carlo_deterministic():
    a = monte_carlo_mse("factorization", 8, 50, BUDGET, seed=5)
    b = monte_carlo_mse("factorization", 8, 50, BUDGET, seed=5)
    assert a == b


def test_monte_carlo_matches_closed_forms():
    est, se = monte_carlo_mse("factorization", 2, 20_000, BUDGET, seed=101)
    assert abs(est - 1.40625 * C2) <= 3 * se
    est, se = monte_carlo_mse("binary", 8, 20_000, BUDGET, seed=202)
    assert abs(est - 6.5 * C2) <= 3 * se
    fact = honaker_left(4)
    est, se = monte_carlo_mse("honaker", 4, 20_000, BUDGET, seed=303, fact=fact)
    assert abs(est - expected_mse(fact, BUDGET)) <= 3 * se


@pytest.mark.parametrize("n", [5, 100, 257, 1000])
def test_monte_carlo_binary_matches_dense_at_non_powers_of_two(n):
    # the ragged tree of ``_binary_noise``: the rounds past the last full subtree
    from contcount.factorization import binary_factorization

    est, se = monte_carlo_mse("binary", n, 4000, BUDGET, seed=n)
    assert abs(est - expected_mse(binary_factorization(n), BUDGET)) <= 4 * se


def test_monte_carlo_binary_vs_sqrt_ratio():
    from contcount.factorization import suboptimality_ratio

    n, trials = 1024, 400
    bin_est, bin_se = monte_carlo_mse("binary", n, trials, BUDGET, seed=11)
    fac_est, fac_se = monte_carlo_mse("factorization", n, trials, BUDGET, seed=12)
    ratio = bin_est / fac_est
    combined = ratio * math.sqrt((bin_se / bin_est) ** 2 + (fac_se / fac_est) ** 2)
    assert ratio >= suboptimality_ratio(n) - 3 * combined


def test_monte_carlo_rejects_bad_kind():
    with pytest.raises(ValueError):
        monte_carlo_mse("laplace", 4, 10, BUDGET, seed=0)


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("n", [1, 2, 7, 4096, 4097, 5000, 2**17, 512, 513, 1024])
def test_release_factorization_equals_step_loop(n, seed):
    bits = np.random.default_rng(n).integers(0, 2, size=n)
    counter = StreamingCounter(n, BUDGET, seed)
    stepped = np.array([counter.step(int(b)) for b in bits])
    assert np.array_equal(release("factorization", bits, BUDGET, seed), stepped)


@pytest.mark.parametrize("kind", MECHANISM_KINDS)
@pytest.mark.parametrize("bits", [[0, 2, 1], [0.5, 1.0], np.zeros((2, 2)), []])
def test_release_rejects_bad_streams(kind, bits):
    with pytest.raises(ValueError):
        release(kind, bits, BUDGET, seed=0)


def test_release_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        release("laplace", [0, 1], BUDGET, seed=0)


def test_mechanism_kinds_are_the_dispatch_table():
    assert MECHANISM_KINDS == ("factorization", "binary", "honaker")
    assert MECHANISM_KINDS == tuple(mechanism._MECHANISMS)


def test_mechanism_records_match_dense_factorizations():
    """Each record's ||R||_{1->2} and exact MSE against the dense factor
    matrices: the trees bit for bit, the square root to rounding."""
    records = mechanism._MECHANISMS
    for n in [*range(1, 301), 513, 1024, 1025]:
        tree = col_norm_1to2(binary_right_factor(n))
        assert records["binary"].sensitivity(n) == records["honaker"].sensitivity(n) == tree
        sqrt = sqrt_factorization(n)
        assert math.isclose(records["factorization"].sensitivity(n), col_norm_1to2(sqrt.right), rel_tol=1e-13)
        assert math.isclose(records["factorization"].expected_mse(n, BUDGET), expected_mse(sqrt, BUDGET), rel_tol=1e-12)
        if n & (n - 1):
            with pytest.raises(ValueError, match=f"n must be a power of two, got {n}"):
                records["binary"].expected_mse(n, BUDGET)
        else:
            dense = expected_mse(binary_factorization(n), BUDGET)
            assert math.isclose(records["binary"].expected_mse(n, BUDGET), dense, rel_tol=1e-12)
        with pytest.raises(ValueError, match=r"Honaker's mechanism has no closed-form expected MSE"):
            records["honaker"].expected_mse(n, BUDGET)


def test_honaker_release_owns_n_values():
    # the leaf sums are computed over the next power of two, 2^17 here
    n = 2**16 + 1
    out = release("honaker", np.zeros(n, dtype=np.int8), BUDGET, seed=3)
    while out.base is not None:
        out = out.base
    assert out.size == n


@pytest.mark.parametrize("kind", ["laplace", "Binary", "", None, ["binary"]])
def test_unknown_kind_gets_one_error_from_release_and_monte_carlo(kind):
    want = f"kind must be one of {MECHANISM_KINDS}, got {kind!r}"
    with pytest.raises(ValueError) as from_release:
        release(kind, [0, 1], BUDGET, seed=0)
    with pytest.raises(ValueError) as from_monte_carlo:
        monte_carlo_mse(kind, 2, 3, BUDGET, seed=0)
    assert str(from_release.value) == str(from_monte_carlo.value) == want


def test_release_takes_no_factorization():
    # the dense mechanism is matrix_mechanism_run alone
    with pytest.raises(TypeError):
        release("honaker", [0, 1, 1, 0], BUDGET, 0, honaker_left(4))


@pytest.mark.parametrize("kind", ["factorization", "binary"])
def test_release_refuses_fact_it_would_ignore(kind):
    fact = honaker_left(4)
    with pytest.raises(ValueError, match="factorization"):
        monte_carlo_mse(kind, 4, 2, BUDGET, seed=0, fact=fact)


def _honaker_gap(n):
    """Largest gap, in units of the per-round noise std, between the
    structured Honaker release and the dense ``honaker_left`` oracle."""
    fact = honaker_left(n)
    std = BUDGET.noise_multiplier * fact.sensitivity * np.sqrt(
        np.einsum("ij,ij->i", fact.left, fact.left)
    )
    zeros = np.zeros(n, dtype=np.int64)
    worst = 0.0
    for seed in (0, 1, 2**40 + 7):
        dense = matrix_mechanism_run(fact, zeros, BUDGET, seed)
        structured = release("honaker", zeros, BUDGET, seed)
        worst = max(worst, float(np.max(np.abs(structured - dense) / std)))
    return worst


def test_honaker_release_matches_dense_oracle_small():
    assert max(_honaker_gap(n) for n in range(1, 301)) <= 1e-9


@pytest.mark.parametrize("n", [511, 512, 513, 768, 1000, 1023, 1024, 1025, 3000, 4096])
def test_honaker_release_matches_dense_oracle(n):
    assert _honaker_gap(n) <= 1e-9


def _postorder_tree(full):
    """(level, block) of every node of the tree over ``full`` leaves, in
    post-order, built as left subtree, right subtree, root."""
    levels = np.zeros(1, dtype=np.int64)
    blocks = np.zeros(1, dtype=np.int64)
    for k in range(1, full.bit_length()):
        right = blocks + (1 << (k - 1 - levels))
        levels = np.concatenate((levels, levels, [k]))
        blocks = np.concatenate((blocks, right, [0]))
    return levels, blocks


def _gram_apply(w, full):
    """R^T R w, one tree level at a time: each node's leaf sum is added
    back to its leaves."""
    n = w.shape[0]
    padded = np.zeros(full)
    padded[:n] = w
    out = np.zeros(n)
    for k in range(full.bit_length()):
        sums = padded.reshape(-1, 1 << k).sum(axis=1)
        out += np.repeat(sums, 1 << k)[:n]
    return out


@pytest.mark.parametrize("n", [4097, 2**17 + 3])
def test_honaker_release_solves_normal_equations_beyond_dense_limit(n):
    full = 1 << (n - 1).bit_length()
    seed = 31
    z = _generator(seed).standard_normal(2 * full - 1)
    levels, blocks = _postorder_tree(full)
    rtz = np.zeros(n)
    for k in range(full.bit_length()):
        at_level = np.zeros(full >> k)
        at_level[blocks[levels == k]] = z[levels == k]
        rtz += np.repeat(at_level, 1 << k)[:n]
    sigma = BUDGET.noise_multiplier * math.sqrt(full.bit_length())
    e = release("honaker", np.zeros(n, dtype=np.int64), BUDGET, seed) / sigma
    w = np.diff(e, prepend=0.0)
    assert np.linalg.norm(_gram_apply(w, full) - rtz) <= 1e-9 * np.linalg.norm(rtz)


@pytest.mark.parametrize("n, seed", [(8, 404), (100, 505)])
def test_monte_carlo_honaker_structured_matches_closed_form(n, seed):
    est, se = monte_carlo_mse("honaker", n, 4000, BUDGET, seed)
    assert abs(est - expected_mse(honaker_left(n), BUDGET)) <= 4 * se


# The one-trial releases as they were before the mechanisms took a batch of
# draws: ``release`` must still give their bytes.  (The binary one is
# ``_binary_noise_loop`` plus the prefix sums.)
def _sqrt_release_1d(x, budget, seed):
    n = x.shape[0]
    coeffs = sqrt_coefficients(n)
    g = _generator(seed).standard_normal((n, 1))
    g[:, 0] = toeplitz_lower_matvec(coeffs, g[:, 0])
    g *= budget.noise_multiplier * math.sqrt(float(np.sum(coeffs**2)))
    noise = g[:, 0]
    noise += np.cumsum(x)
    return noise


def _honaker_release_1d(x, budget, seed):
    n = x.shape[0]
    full = 1 << max(0, (n - 1).bit_length())
    levels = full.bit_length()
    tree = _generator(seed).standard_normal(2 * full - 1)[None, :]
    w = tree[:, -1]
    while tree.shape[1] > 1:
        tree = tree[:, :-1].reshape(-1, tree.shape[1] // 2)
        w = np.repeat(w, 2) + tree[:, -1]
    w = w[:n]
    u = np.empty(0)
    for k in range(1, levels):
        size = 1 << k
        start = (n >> k) << k
        if start:
            blocks = w[:start].reshape(-1, size)
            blocks -= blocks.sum(axis=1, keepdims=True) / (2 * size - 1)
        if start < n:
            full_children = ((n >> (k - 1)) << (k - 1)) - start
            u = np.concatenate((np.full(full_children, 1.0 / (size - 1)), u))
            scale = 1.0 + u.sum()
            w[start:] -= u * (w[start:].sum() / scale)
            u /= scale
    np.cumsum(w, out=w)
    w *= budget.noise_multiplier * math.sqrt(levels)
    w += np.cumsum(x)
    return w


def _matrix_release_1d(fact, x, budget, seed):
    x = np.asarray(x, dtype=np.float64)
    z = _generator(seed).standard_normal(fact.right.shape[0]) * (budget.noise_multiplier * fact.sensitivity)
    return fact.left @ (fact.right @ x + z)


@pytest.mark.parametrize("n", [1, 768, 4097, 2**14])
def test_release_bytes_match_one_trial_references(n):
    seed = 2**40 + 7
    x = _generator(n).integers(0, 2, n)
    refs = {
        "factorization": _sqrt_release_1d(x, BUDGET, seed),
        "binary": _binary_noise_loop(n, BUDGET, seed) + np.cumsum(x),
        "honaker": _honaker_release_1d(x, BUDGET, seed),
    }
    for kind, want in refs.items():
        assert release(kind, x, BUDGET, seed).tobytes() == want.tobytes(), kind
    if n <= DENSE_LIMIT:
        fact = honaker_left(n)
        want = _matrix_release_1d(fact, x, BUDGET, seed)
        assert matrix_mechanism_run(fact, x, BUDGET, seed).tobytes() == want.tobytes()


def _monte_carlo_reference(kind, n, trials, budget, seed, fact=None):
    """Per-trial squared errors, one ``release`` per trial seed seed + i, or
    one ``matrix_mechanism_run`` with ``fact``."""
    zeros = np.zeros(n, dtype=np.int64)
    if fact is None:
        runs = (release(kind, zeros, budget, seed + i) for i in range(trials))
    else:
        runs = (matrix_mechanism_run(fact, zeros, budget, seed + i) for i in range(trials))
    return np.array([np.mean(out**2) for out in runs])


def _estimate(per_trial):
    """``monte_carlo_mse``'s statistics of the per-trial squared errors."""
    estimate = float(np.mean(per_trial))
    if len(per_trial) == 1:
        return estimate, 0.0
    return estimate, float(np.std(per_trial, ddof=1) / math.sqrt(len(per_trial)))


@pytest.mark.parametrize(
    "kind, n",
    [
        (kind, n)
        for kind in ("factorization", "binary", "honaker", "honaker-dense")
        for n in (1, 2, 3, 255, 256, 257, 1024, 4097)
        if kind != "honaker-dense" or n <= DENSE_LIMIT
    ],
)
def test_monte_carlo_blocks_match_per_trial_loop(monkeypatch, kind, n):
    fact = None
    if kind == "honaker-dense":
        kind, fact = "honaker", honaker_left(n)
    width = mechanism._MECHANISMS[kind][0](n) if fact is None else fact.right.shape[0]
    if n < 1024:
        # at the module cap a block holds 257 to 2^18 of these narrower trials;
        # a cap of 100 rows puts the block edges within reach of the reference loop
        monkeypatch.setattr(mechanism, "_BLOCK_VALUES", 100 * width + width // 2)
    block = mechanism._BLOCK_VALUES // width
    trials = sorted({1, 2, block - 1, block, block + 1} - {0})
    for seed in (0, 2**40 + 7, 2**70):
        per_trial = _monte_carlo_reference(kind, n, trials[-1], BUDGET, seed, fact)
        for t in trials:
            assert monte_carlo_mse(kind, n, t, BUDGET, seed, fact) == _estimate(per_trial[:t])


# FFT lengths 1, 3, 5, 16, 32, 48, 640, 1024, 1280, 2048, 8192 and 10240:
# every length family at small n, and the seams at 512 / 513 and 4096 / 4097
FFT_EDGES = [1, 2, 3, 7, 16, 24, 300, 512, 513, 1024, 4096, 4097]


@pytest.mark.parametrize("n", FFT_EDGES)
def test_sqrt_noise_block_equals_rows(n):
    block = mechanism._normals(2**40 + 3, 5, n)
    rows = [mechanism._sqrt_noise(row[None, :].copy(), 1.5, n)[0] for row in block]
    assert mechanism._sqrt_noise(block, 1.5, n).tobytes() == np.array(rows).tobytes()


@pytest.mark.parametrize("n", FFT_EDGES)
def test_monte_carlo_factorization_trials_equal_releases_at_fft_edges(monkeypatch, n):
    # three trials per block, so four and seven trials cross block edges
    monkeypatch.setattr(mechanism, "_BLOCK_VALUES", 3 * n + n // 2)
    per_trial = _monte_carlo_reference("factorization", n, 7, BUDGET, 2**40 + 7)
    for trials in (1, 3, 4, 7):
        got = monte_carlo_mse("factorization", n, trials, BUDGET, 2**40 + 7)
        assert got == _estimate(per_trial[:trials])


def test_monte_carlo_blocks_stay_under_cap(monkeypatch):
    shapes = []
    normals = mechanism._normals

    def recording(seed, rows, width):
        shapes.append((rows, width))
        return normals(seed, rows, width)

    monkeypatch.setattr(mechanism, "_normals", recording)
    for kind, n, trials in (("factorization", 1000, 600), ("binary", 300, 600), ("honaker", 5000, 40)):
        shapes.clear()
        monte_carlo_mse(kind, n, trials, BUDGET, seed=1)
        assert sum(rows for rows, _ in shapes) == trials
        assert all(rows * width <= max(mechanism._BLOCK_VALUES, width) for rows, width in shapes)


@pytest.mark.parametrize(
    "args, match",
    [
        (("honaker", 5, 10, "fact"), "does not match"),
        (("factorization", 4, 0, None), "trials"),
        (("binary", 4, -1, None), "trials"),
        (("factorization", 0, 10, None), "horizon"),
        (("honaker", -1, 10, None), "horizon"),
    ],
)
def test_monte_carlo_refusals(args, match):
    kind, n, trials, fact = args
    fact = honaker_left(4) if fact else None
    with pytest.raises(ValueError, match=match):
        monte_carlo_mse(kind, n, trials, BUDGET, seed=0, fact=fact)


def _per_row_normals(seed, rows, width):
    """The randomness contract's draw, written out: one generator per row,
    built from ``PCG64(seed + i)``."""
    z = np.empty((rows, width))
    for i, row in enumerate(z):
        np.random.Generator(np.random.PCG64(seed + i)).standard_normal(out=row)
    return z


# empty, one-row, few-row, wide and many-row blocks
@pytest.mark.parametrize("rows, width", [(0, 3), (1, 1), (2, 1), (3, 7), (250, 1024), (500, 511), (2049, 2)])
def test_normals_equal_per_row_generators(rows, width):
    for seed in (0, 12345, 2**40 + 7):
        got = mechanism._normals(seed, rows, width)
        assert got.tobytes() == _per_row_normals(seed, rows, width).tobytes()


@pytest.mark.parametrize("edge", [2**32, 2**64, 2**96, 2**128, 2**160])
def test_normals_blocks_straddling_word_edges(edge):
    # the rows on either side of the edge have seeds of different word counts
    for seed, rows in ((edge - 3, 7), (edge - 1, 2), (edge - 5, 5), (edge, 4)):
        got = mechanism._normals(seed, rows, 9)
        assert got.tobytes() == _per_row_normals(seed, rows, 9).tobytes()


def test_narrow_block_memory_does_not_grow_with_rows():
    # one block of 2^14 one-value rows; a PCG64 state dict held per row
    # (about 0.8 KB each) made the peak about 13 MiB
    tracemalloc.start()
    try:
        monte_carlo_mse("factorization", 1, 2**14, PrivacyBudget(1.0, 1e-10), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("seed", [7.9, 7.0, "7", None, np.float64(3.0), [1]])
def test_non_integral_seeds_are_refused(seed):
    x = np.array([1, 0, 1])
    for call in (
        lambda: release("factorization", x, BUDGET, seed),
        lambda: monte_carlo_mse("binary", 4, 2, BUDGET, seed),
        lambda: StreamingCounter(4, BUDGET, seed),
        lambda: matrix_mechanism_run(honaker_left(3), x, BUDGET, seed),
    ):
        with pytest.raises(TypeError, match=f"seed must be an integer, got {re.escape(repr(seed))}"):
            call()


def test_negative_seeds_are_refused():
    with pytest.raises(ValueError, match="non-negative"):
        release("binary", [1, 0], BUDGET, -1)
    with pytest.raises(ValueError, match="non-negative"):
        monte_carlo_mse("factorization", 4, 3, BUDGET, -2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [np.uint64(2**64 - 2), np.int64(2**63 - 1), np.uint32(2**32 - 1)])
def test_numpy_integer_seeds_count_on_in_python_ints(seed):
    # trial i draws from seed + i as a Python int: no wrap to 0, no overflow
    want = _estimate(_monte_carlo_reference("factorization", 6, 3, BUDGET, int(seed)))
    assert monte_carlo_mse("factorization", 6, 3, BUDGET, seed) == want
    x = np.array([0, 1, 1, 0])
    assert release("honaker", x, BUDGET, seed).tobytes() == release("honaker", x, BUDGET, int(seed)).tobytes()
    counter = StreamingCounter(5, BUDGET, seed)
    assert counter.seed == int(seed) and type(counter.seed) is int
    assert counter.noise.tobytes() == StreamingCounter(5, BUDGET, int(seed)).noise.tobytes()
