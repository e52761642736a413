"""Schedules and spectral diagnostics."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from krlslab import (
    ContractError,
    ModelParams,
    b_quantity,
    brownian,
    effective_dimension,
    effective_dimension_from_spectrum,
    effective_dimension_sum_check,
    gram,
    l_schedule,
    lambda_schedule,
    local_dimension_diagnostic,
    m_schedule,
    n0_sufficient,
    rate_exponent,
)

HALF = ModelParams(r=0.5, gamma=0.5)


def test_dyadic_schedule_values_exact():
    # n = 1024, r = 1/2, gamma = 1/2: every exponent is a multiple of 1/2.5
    # times 10, so the values are dyadic and must come out exactly
    assert lambda_schedule(1024, HALF) == 0.0625
    assert m_schedule(1024, HALF) == 16
    assert l_schedule(1024, HALF) == 64
    assert rate_exponent(HALF) == 0.8


def test_schedule_base_cases():
    assert lambda_schedule(1, HALF) == 1.0
    assert m_schedule(1, HALF) == 1
    assert l_schedule(1, HALF) == 1


def test_schedule_closed_forms():
    p = ModelParams(r=0.5, gamma=1.0)  # denominator 3
    assert math.isclose(lambda_schedule(1000, p), 0.1, rel_tol=1e-14)
    assert m_schedule(4096, p) == 16
    assert l_schedule(4096, p) == 256
    assert rate_exponent(p) == 2.0 / 3.0

    # oracle recomputation on a non-dyadic n
    n = 777
    den = 2 * 0.5 + 1 + 1.0
    assert math.isclose(lambda_schedule(n, p), n ** (-1 / den), rel_tol=1e-12)
    assert m_schedule(n, p) == math.floor(n ** (1 / den) + 1e-9)
    assert l_schedule(n, p) == math.ceil(n ** (2 / den) - 1e-9)


def test_schedule_monotonicity():
    p = ModelParams(r=0.3, gamma=0.7)
    ns = [2**k for k in range(1, 16)]
    lams = [lambda_schedule(n, p) for n in ns]
    ms = [m_schedule(n, p) for n in ns]
    ls = [l_schedule(n, p) for n in ns]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    assert all(a <= b for a, b in zip(ms, ms[1:]))
    assert all(a <= b for a, b in zip(ls, ls[1:]))
    assert all(lam <= 1 for lam in lams)


def test_smoothness_resolution_order():
    # every schedule reads params.r; another smoothness is a replaced record
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["r", "gamma", "R", "sigma"]
    for schedule in (lambda_schedule, m_schedule, l_schedule, rate_exponent):
        assert "r" not in inspect.signature(schedule).parameters
    pair = ModelParams(r=0.4, gamma=0.5)
    assert dataclasses.replace(pair, r=0.2).r == 0.2
    assert HALF.r == 0.5
    with pytest.raises(ContractError, match=r"r=0\.6 must lie in \(0, 1/2\]"):
        dataclasses.replace(pair, r=0.6)
    # the replaced r threads through the schedules
    assert lambda_schedule(1024, dataclasses.replace(HALF, r=0.5)) == lambda_schedule(1024, HALF)
    assert m_schedule(1024, dataclasses.replace(pair, r=0.5)) == 16


def test_noise_scaled_lambda():
    p_eq = ModelParams(r=0.5, gamma=0.5, R=1.0, sigma=1.0)
    assert lambda_schedule(1024, p_eq, noise_scaled=True) == lambda_schedule(
        1024, p_eq
    )
    p2 = ModelParams(r=0.5, gamma=0.5, R=1.0, sigma=2.0)
    expected = (4.0 / 1024) ** (1 / 2.5)
    assert math.isclose(
        lambda_schedule(1024, p2, noise_scaled=True), expected, rel_tol=1e-14
    )
    # still capped at 1
    p_loud = ModelParams(r=0.5, gamma=0.5, R=0.01, sigma=10.0)
    assert lambda_schedule(2, p_loud, noise_scaled=True) == 1.0


def test_params_validation():
    with pytest.raises(ContractError):
        ModelParams(r=0.0, gamma=0.5)
    with pytest.raises(ContractError):
        ModelParams(r=0.6, gamma=0.5)
    with pytest.raises(ContractError):
        ModelParams(r=0.5, gamma=0.0)
    with pytest.raises(ContractError):
        ModelParams(r=0.5, gamma=1.5)
    with pytest.raises(ContractError):
        ModelParams(r=0.5, gamma=0.5, R=0.0)
    with pytest.raises(ContractError):
        lambda_schedule(0, HALF)


def test_effective_dimension_identity_matrix():
    # K = I_10 and n = 10 gives operator eigenvalues 0.1; at lam = 0.1
    # every summand is exactly 1/2
    assert effective_dimension(np.eye(10), 0.1) == 5.0
    assert effective_dimension_from_spectrum(np.full(10, 0.1), 0.1) == 5.0


def test_effective_dimension_bounds_and_monotonicity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((40, 8))
    k = a @ a.T  # rank 8 PSD
    lams = [1e-3, 1e-2, 1e-1, 1.0]
    vals = [effective_dimension(k, lam) for lam in lams]
    assert all(u > v for u, v in zip(vals, vals[1:]))  # decreasing in lam
    assert vals[0] <= 8 + 1e-9  # bounded by rank
    # large-lam linearization: N(lam) <= trace(K/n)/lam
    big = 1e12
    assert effective_dimension(k, big) <= np.trace(k / 40) / big + 1e-18


def test_effective_dimension_kappa_normalization():
    k = 4.0 * np.eye(10)
    # dividing by kappa^2 = 4 recovers the identity-matrix case
    assert effective_dimension(k, 0.1, kappa_sq=4.0) == 5.0
    with pytest.raises(ContractError):
        effective_dimension(k, 0.1, kappa_sq=0.0)
    with pytest.raises(ContractError):
        effective_dimension(k, 0.0)


def test_effective_dimension_capacity_slope():
    # min(x, z) has eigenvalues decaying like k^{-2}, so the effective
    # dimension grows like lam^{-1/2}; check the log-log slope loosely
    x = (np.arange(512) + 0.5) / 512
    k = gram(brownian(), x)
    lams = np.logspace(-4, -2, 6)
    dims = np.array([effective_dimension(k, lam) for lam in lams])
    slope = np.polyfit(np.log(lams), np.log(dims), 1)[0]
    assert -0.6 < slope < -0.4


def test_b_quantity_values():
    # zero effective dimension leaves only the 2/(n lam) term
    assert b_quantity(10, 0.2, 0.0) == 1.0 + 1.0
    val = b_quantity(100, 0.1, 5.0)
    t = 2.0 / 10.0 + math.sqrt(5.0 / 10.0)
    assert val == 1.0 + t * t
    assert b_quantity(10**9, 1.0, 3.0) < 1.0 + 1e-3
    for n, lam, nd in ((5, 0.5, 1.0), (50, 0.01, 10.0), (7, 2.0, 0.0)):
        assert b_quantity(n, lam, nd) >= 1.0
    with pytest.raises(ContractError):
        b_quantity(0, 0.1, 1.0)
    with pytest.raises(ContractError):
        b_quantity(10, 0.1, -1.0)


def test_n0_sufficient_values():
    # r = 1/2, gamma = 1, R = sigma: exponent (2r+gamma+1)/(2r) = 3 and the
    # max() collapses to 1 when p_max * C_gamma <= 1, leaving (4m)^3
    p = ModelParams(r=0.5, gamma=1.0, R=1.0, sigma=1.0)
    assert n0_sufficient(1, p, p_max=1.0, c_gamma=1.0) == 64
    assert n0_sufficient(2, p, p_max=1.0, c_gamma=1.0) == 512  # doubling: 2^3
    # the answer depends on R and sigma only through their ratio
    p_scaled = ModelParams(r=0.5, gamma=1.0, R=3.0, sigma=3.0)
    assert n0_sufficient(1, p_scaled, p_max=1.0, c_gamma=1.0) == 64
    with pytest.raises(ContractError):
        n0_sufficient(0, p, 1.0, 1.0)
    with pytest.raises(ContractError):
        n0_sufficient(1, p, 0.0, 1.0)


@pytest.mark.parametrize("m, params, p_max", [
    (1, HALF, 1e300),  # a power out of range
    (1, ModelParams(0.5, 0.5, R=1e300, sigma=1e-300), 1.0),  # an infinite product
    (10**200, HALF, 1.0),
], ids=["p_max", "ratio", "m"])
def test_n0_sufficient_beyond_the_float_range_is_a_contract_error(m, params, p_max):
    with pytest.raises(ContractError, match="exceeds the float range"):
        n0_sufficient(m, params, p_max, 1.0)


def test_sum_check_hand_example():
    # two cells with weight 1/2 and a single unit eigenvalue each, lam = 1:
    # lhs = 2 * 1/(1 + 0.5) = 4/3, global spectrum {2, 2} gives the same
    lhs, rhs, gap = effective_dimension_sum_check([[1.0], [1.0]], [0.5, 0.5], 1.0)
    assert math.isclose(lhs, 4.0 / 3.0, rel_tol=1e-15)
    assert math.isclose(rhs, 4.0 / 3.0, rel_tol=1e-15)
    assert gap == 0.0


def test_sum_check_single_cell_trivial():
    mu = [0.9, 0.3, 0.01]
    lhs, rhs, gap = effective_dimension_sum_check([mu], [1.0], 0.05)
    assert lhs == effective_dimension_from_spectrum(mu, 0.05)
    assert gap <= 1e-15


def test_sum_check_random_draws():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        raw = rng.random(m) + 0.1
        p = raw / raw.sum()
        p[-1] = 1.0 - p[:-1].sum()
        spectra = [rng.random(int(rng.integers(1, 8))) for _ in range(m)]
        lam = float(rng.uniform(0.01, 2.0))
        _, _, gap = effective_dimension_sum_check(spectra, p, lam)
        assert gap <= 1e-12


def test_sum_check_validation():
    with pytest.raises(ContractError):
        effective_dimension_sum_check([[1.0]], [0.5, 0.5], 1.0)
    with pytest.raises(ContractError):
        effective_dimension_sum_check([[1.0], [1.0]], [0.7, 0.7], 1.0)
    with pytest.raises(ContractError):
        effective_dimension_sum_check([[1.0], [1.0]], [1.0, 0.0], 1.0)


def test_sum_check_rejects_nan_weights():
    with pytest.raises(ContractError, match="weights must be positive"):
        effective_dimension_sum_check([[1.0], [1.0]], [1.0, math.nan], 1.0)


def test_local_dimension_diagnostic_smoke():
    rng = np.random.default_rng(2)
    grams = []
    for nj in (30, 50):
        a = rng.standard_normal((nj, 5))
        grams.append(a @ a.T)
    lhs, rhs = local_dimension_diagnostic(grams, [0.4, 0.6], 0.1)
    assert math.isfinite(lhs) and lhs > 0
    assert math.isfinite(rhs) and rhs > 0
    with pytest.raises(ContractError):
        local_dimension_diagnostic(grams, [1.0], 0.1)
