"""Contracts of the symmetric solvers: ordering, residuals, truncation."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import blas, lapack

from krlslab import (
    ContractError,
    EmptyInputError,
    IllConditionedError,
    eigh,
    linalg,
    pinv_solve,
    spd_solve,
)


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


def _random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _packed(a):
    """The symmetric matrix a in float32 RFP storage (TRANSR = 'T', UPLO =
    'L'), shaped (m + 1, m / 2); an odd order is padded to m = n + 1 by a
    decoupled last row and column with 1 on the diagonal."""
    n = a.shape[0]
    m = n + n % 2
    full = np.zeros((m, m), dtype=np.float32, order="F")
    full[:n, :n] = a
    full[n:, n:] = 1.0
    packed, info = lapack.strttf(full, transr="T", uplo="L")
    assert info == 0
    return packed.reshape(m + 1, m // 2)


def _unpacked_lower(packed):
    """The lower triangle of the matrix that packed holds, in float64."""
    m = 2 * packed.shape[1]
    full, info = lapack.stfttr(m, packed.reshape(-1), transr="T", uplo="L")
    assert info == 0
    return np.tril(full).astype(float)


def test_eigh_diagonal():
    dec = eigh(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0])


def test_eigh_classic_2x2():
    dec = eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-14)
    # eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2 up to sign
    v = dec.eigenvectors
    assert abs(abs(v[0, 0]) - 1 / np.sqrt(2)) < 1e-12
    assert np.sign(v[0, 0]) == np.sign(v[1, 0])
    assert np.sign(v[0, 1]) == -np.sign(v[1, 1])


def test_eigh_reconstruction_and_trace():
    rng = np.random.default_rng(0)
    for n in (2, 8, 25):
        a = _random_symmetric(rng, n)
        dec = eigh(a)
        assert np.all(np.diff(dec.eigenvalues) <= 0)
        rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        norm = np.linalg.norm(a)
        assert np.linalg.norm(rebuilt - a) <= 1e-8 * norm
        assert abs(dec.eigenvalues.sum() - np.trace(a)) <= 1e-8 * max(norm, 1)


def test_eigh_rejects_asymmetric():
    a = np.array([[1.0, 0.5], [0.5 + 1e-4, 1.0]])
    with pytest.raises(ContractError):
        eigh(a)


def test_eigh_rejects_nonsquare():
    with pytest.raises(ContractError):
        eigh(np.zeros((2, 3)))


def test_spd_solve_identity_shift():
    x = spd_solve(np.eye(2), 1.0, np.array([2.0, 4.0]))
    np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-14)


def test_spd_solve_diagonal():
    x = spd_solve(np.diag([2.0, 2.0]), 0.0, np.array([4.0, 6.0]))
    np.testing.assert_allclose(x, [2.0, 3.0], atol=1e-14)


def test_spd_solve_hand_inverted():
    # [[2,1],[1,2]] + I = [[3,1],[1,3]]; inverse times (1,1) is (1/4, 1/4)
    x = spd_solve(np.array([[2.0, 1.0], [1.0, 2.0]]), 1.0, np.array([1.0, 1.0]))
    np.testing.assert_allclose(x, [0.25, 0.25], atol=1e-14)


def test_spd_solve_residual_contract():
    rng = np.random.default_rng(1)
    for n in (5, 40):
        a = _random_spd(rng, n)
        b = rng.standard_normal(n)
        x = spd_solve(a, 0.5, b)
        res = np.linalg.norm((a + 0.5 * np.eye(n)) @ x - b)
        assert res <= 1e-10 * np.linalg.norm(b)


def test_spd_solve_matrix_rhs():
    rng = np.random.default_rng(2)
    a = _random_spd(rng, 6)
    b = rng.standard_normal((6, 3))
    x = spd_solve(a, 1.0, b)
    np.testing.assert_allclose((a + np.eye(6)) @ x, b, atol=1e-10)


def test_spd_solve_jitter_rescues_singular():
    # rank-1 PSD with zero shift: plain Cholesky fails, the jitter retry works
    v = np.array([1.0, 2.0, 3.0])
    a = np.outer(v, v)
    b = a @ np.array([1.0, 1.0, 1.0])
    x = spd_solve(a, 0.0, b)
    jitter = 1e-12 * np.trace(a) / 3
    res = np.linalg.norm((a + jitter * np.eye(3)) @ x - b)
    assert res <= 1e-10 * np.linalg.norm(b)


def test_spd_solve_indefinite_raises_with_jitter():
    a = np.diag([2.0, -1.0])
    with pytest.raises(IllConditionedError) as err:
        spd_solve(a, 0.0, np.array([1.0, 1.0]))
    assert err.value.jitter == pytest.approx(1e-12 * 1.0 / 2)


def test_spd_solve_rejects_negative_shift_and_asymmetry():
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ContractError, match="shift"):
            spd_solve(np.eye(2), bad, np.ones(2))
    with pytest.raises(ContractError):
        spd_solve(np.array([[1.0, 0.2], [0.1, 1.0]]), 1.0, np.ones(2))


def test_spd_solve_rejects_non_finite_rhs():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ContractError, match="finite"):
            spd_solve(np.eye(3), 0.0, np.array([1.0, bad, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "solver",
    [eigh, lambda a: pinv_solve(a, np.ones(2)), lambda a: spd_solve(a, 0.0, np.ones(2))],
    ids=["eigh", "pinv_solve", "spd_solve"],
)
def test_non_finite_matrix_rejected(solver, bad):
    # a NaN asymmetry gap compares False against the tolerance; the norm catches it
    with pytest.raises(ContractError, match="finite matrix"):
        solver(np.array([[1.0, bad], [bad, 1.0]]))


def test_cholesky_attempt_fails_on_nan_residual():
    # the factorization succeeds, but inf - inf makes the residual NaN
    a = np.eye(3)
    with pytest.raises(np.linalg.LinAlgError):
        linalg._cholesky_solve(a, 0.0, np.array([1.0, np.inf, 0.0]), linalg._lower_product(a))


def test_spd_solve_leaves_matrix_unchanged():
    rng = np.random.default_rng(6)
    a = _random_spd(rng, 30)
    kept = a.copy()
    spd_solve(a, 0.5, rng.standard_normal(30))
    np.testing.assert_array_equal(a, kept)
    # rank-1 with zero shift: the first attempt fails, the jitter retry holds
    v = np.array([1.0, 2.0, 3.0])
    a = np.outer(v, v)
    kept = a.copy()
    spd_solve(a, 0.0, a @ np.ones(3))
    np.testing.assert_array_equal(a, kept)


def test_spd_solve_rejects_empty_matrix():
    with pytest.raises(EmptyInputError):
        spd_solve(np.zeros((0, 0)), 1.0, np.zeros(0))


def test_cholesky_solve_factors_in_place_and_keeps_lower_triangle():
    # a matrix right-hand side, so the residual goes through symm
    rng = np.random.default_rng(7)
    n = 600
    a = _random_spd(rng, n)
    kept = a.copy()
    b = rng.standard_normal((n, 2))
    x = linalg._cholesky_solve(a, 0.5, b, linalg._lower_product(a))
    shifted = kept + 0.5 * np.eye(n)
    np.testing.assert_allclose(shifted @ x, b, atol=1e-10)
    # the factor overwrote the upper triangle; the residual read the lower one
    upper = np.triu(a)
    np.testing.assert_allclose(upper.T @ upper, shifted, rtol=1e-12, atol=1e-9)
    np.testing.assert_array_equal(np.tril(a, -1), np.tril(kept, -1))


@pytest.mark.parametrize("cols", [None, 2], ids=["vector", "matrix"])
def test_residual_check_catches_wrong_solve(monkeypatch, cols):
    # a finite x off by 1e-6 relative leaves a residual of 1e-6 * |b|
    real_solve = linalg._triangular_solve
    monkeypatch.setattr(
        linalg, "_triangular_solve", lambda *args: real_solve(*args) * (1 + 1e-6)
    )
    rng = np.random.default_rng(8)
    a = _random_spd(rng, 40)
    b = rng.standard_normal(40 if cols is None else (40, cols))
    k = a.copy()
    with pytest.raises(np.linalg.LinAlgError, match="residual"):
        linalg._cholesky_solve(k, 0.5, b, linalg._lower_product(k))
    with pytest.raises(IllConditionedError):
        spd_solve(a, 0.5, b)


@pytest.mark.parametrize("cols", [None, 2], ids=["vector", "matrix"])
def test_cholesky_solve_copies_no_matrix(cols):
    # scipy's BLAS copies a matrix it gets in C order (8 MB here); the solve
    # hands it Fortran-ordered views of the one buffer it consumes
    rng = np.random.default_rng(9)
    n = 1024
    a = _random_spd(rng, n)
    b = rng.standard_normal(n if cols is None else (n, cols))
    tracemalloc.start()
    try:
        linalg._cholesky_solve(a, 0.5, b, linalg._lower_product(a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


def test_refined_solve_factors_float32_in_place_and_refines_in_float64():
    # a min-kernel Gram: entrywise positive, as the stopping rule assumes
    rng = np.random.default_rng(10)
    for n in (300, 301):
        t = rng.uniform(0, 1, n)
        a = np.minimum.outer(t, t)
        a32 = _packed(a)
        b = rng.standard_normal(n)
        shifted = a + 0.5 * np.eye(n)
        x = linalg._cholesky_solve(a32, 0.5, b, lambda v: a @ v)
        expected = np.linalg.solve(shifted, b)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
        # spftrf wrote the factor over the one packed buffer; a padded
        # system has the shift on its decoupled diagonal too
        lower = _unpacked_lower(a32)
        want = 1.5 * np.eye(lower.shape[0])
        want[:n, :n] = shifted
        np.testing.assert_allclose(lower @ lower.T, want, rtol=0, atol=1e-5)
        # refined against the wrong product, the float32 factor cannot
        # halve the residual in a step
        with pytest.raises(np.linalg.LinAlgError, match="refinement stalled"):
            linalg._cholesky_solve(_packed(a), 0.5, b, lambda v: 2 * a @ v)
        with pytest.raises(np.linalg.LinAlgError, match="spftrf failed"):
            linalg._cholesky_solve(_packed(-a), 0.0, b, lambda v: -a @ v)


def test_refined_solve_reads_and_writes_only_the_upper_triangle():
    # the strict lower triangle of a C-ordered float64 buffer is neither
    # read nor written: NaN there changes nothing and stays NaN
    rng = np.random.default_rng(11)
    n = 300
    t = rng.uniform(0, 1, n)
    a = np.minimum.outer(t, t)
    b = rng.standard_normal(n)
    lower = np.tri(n, k=-1, dtype=bool)
    k = a.copy()
    k[lower] = np.nan
    x = linalg._cholesky_solve(k, 0.5, b, lambda v: a @ v)
    expected = linalg._cholesky_solve(a.copy(), 0.5, b, lambda v: a @ v)
    np.testing.assert_array_equal(x, expected)
    assert np.isnan(k[lower]).all()


@pytest.mark.parametrize("n", [300, 301, 2048, 2049])
def test_packed_triangular_solve_copies_no_block(n):
    # the packed factor's three blocks reach BLAS as Fortran-ordered views:
    # the solve allocates its vectors, never a block (at n = 2048, 4 MB)
    rng = np.random.default_rng(15)
    t = rng.uniform(0, 1, n)
    factor = _packed(np.minimum.outer(t, t) + np.eye(n))
    half = factor.shape[1]
    _, info = lapack.spftrf(2 * half, factor.reshape(-1), transr="T", uplo="L",
                            overwrite_a=1)
    assert info == 0
    b = rng.standard_normal(n)
    tracemalloc.start()
    try:
        x = linalg._triangular_solve(factor, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n + 1024
    lower = _unpacked_lower(factor)[:n, :n]
    expected = np.linalg.solve(lower @ lower.T, b)
    assert np.linalg.norm(x - expected) <= 1e-4 * np.linalg.norm(expected)


@pytest.mark.parametrize("n", [301, 2049])
def test_padded_entry_solves_to_exactly_zero(n):
    # with the decoupled point's right-hand side 0, its entry of x is 0,
    # and the others are bitwise those of the solve without it
    rng = np.random.default_rng(16)
    t = rng.uniform(0, 1, n)
    factor = _packed(np.minimum.outer(t, t) + 0.5 * np.eye(n))
    half = factor.shape[1]
    _, info = lapack.spftrf(2 * half, factor.reshape(-1), transr="T", uplo="L",
                            overwrite_a=1)
    assert info == 0
    b = rng.standard_normal(n)
    padded = linalg._triangular_solve(factor, np.append(b, 0.0))
    assert padded.shape == (n + 1,) and padded[n] == 0.0
    np.testing.assert_array_equal(padded[:n], linalg._triangular_solve(factor, b))


@pytest.mark.parametrize("cols", [None, 2], ids=["vector", "matrix"])
def test_cholesky_solve_uses_triangular_solves(cols, monkeypatch):
    # two trsv for a vector, two trsm for a matrix, on the factor in place
    def refused(*args, **kwargs):
        raise AssertionError("cho_solve called")

    monkeypatch.setattr(scipy.linalg, "cho_solve", refused)
    rng = np.random.default_rng(12)
    a = _random_spd(rng, 50)
    b = rng.standard_normal(50 if cols is None else (50, cols))
    x = spd_solve(a, 0.5, b)
    expected = np.linalg.solve(a + 0.5 * np.eye(50), b)
    np.testing.assert_allclose(x, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_refined_solve_factors_float64_by_dpotrf():
    # a float64 triangle is factored by dpotrf and solved by dtrsv; its
    # strict lower triangle is neither read nor written
    rng = np.random.default_rng(13)
    n = 200
    t = rng.uniform(0, 1, n)
    a = np.minimum.outer(t, t)
    b = rng.standard_normal(n)
    k = a.copy()
    k[np.tri(n, k=-1, dtype=bool)] = np.nan
    x = linalg._cholesky_solve(k, 0.5, b, lambda v: a @ v)
    expected = np.linalg.solve(a + 0.5 * np.eye(n), b)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
    assert np.isnan(k[np.tri(n, k=-1, dtype=bool)]).all()
    upper = np.triu(k)
    np.testing.assert_allclose(upper.T @ upper, a + 0.5 * np.eye(n), rtol=0, atol=1e-12)
    with pytest.raises(np.linalg.LinAlgError, match="dpotrf failed"):
        linalg._cholesky_solve(-a, 0.0, b, lambda v: -a @ v)


def test_cholesky_solve_refines_only_a_float32_factor(monkeypatch):
    # a float64 factor takes one pair of triangular solves and one product;
    # the wrong product that stalls the float32 refinement fails the
    # float64 residual check
    rng = np.random.default_rng(14)
    n = 200
    t = rng.uniform(0, 1, n)
    a = np.minimum.outer(t, t)
    b = rng.standard_normal(n)
    calls = []
    real_dtrsv = blas.dtrsv

    def counting_dtrsv(*args, **kwargs):
        calls.append("dtrsv")
        return real_dtrsv(*args, **kwargs)

    def apply(v):
        calls.append("apply")
        return a @ v

    monkeypatch.setattr(blas, "dtrsv", counting_dtrsv)
    x = linalg._cholesky_solve(a.copy(), 0.5, b, apply)
    assert calls == ["dtrsv", "dtrsv", "apply"]
    expected = np.linalg.solve(a + 0.5 * np.eye(n), b)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
    with pytest.raises(np.linalg.LinAlgError, match="refinement stalled"):
        linalg._cholesky_solve(_packed(a), 0.5, b, lambda v: 2 * a @ v)
    with pytest.raises(np.linalg.LinAlgError, match="residual above tolerance"):
        linalg._cholesky_solve(a.copy(), 0.5, b, lambda v: 2 * a @ v)


def test_pinv_checks_rhs_before_eigh(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh ran before the right-hand side check")

    monkeypatch.setattr(scipy.linalg, "eigh", no_eigh)
    with pytest.raises(ContractError, match="finite"):
        pinv_solve(np.eye(3), np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ContractError, match="length"):
        pinv_solve(np.eye(3), np.ones(2))
    # both solves share the right-hand side contract
    for bad in (np.ones((3, 2, 2)), np.ones((3, 0))):
        for solve in (pinv_solve, lambda a, b: spd_solve(a, 0.1, b)):
            with pytest.raises(ContractError, match="vector or a matrix"):
                solve(np.eye(3), bad)


def test_pinv_identity():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((4, 2))
    np.testing.assert_allclose(pinv_solve(np.eye(4), b), b, atol=1e-12)


def test_pinv_drops_null_and_tiny_directions():
    np.testing.assert_allclose(
        pinv_solve(np.diag([1.0, 0.0]), np.array([1.0, 1.0])), [1.0, 0.0], atol=1e-14
    )
    np.testing.assert_allclose(
        pinv_solve(np.diag([1.0, 1e-16]), np.array([1.0, 1.0])), [1.0, 0.0], atol=1e-14
    )


def test_pinv_zero_matrix_returns_zero():
    out = pinv_solve(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(out, np.zeros(3))


def test_pinv_matches_dense_solve_when_well_conditioned():
    rng = np.random.default_rng(4)
    a = _random_spd(rng, 12)
    b = rng.standard_normal(12)
    np.testing.assert_allclose(pinv_solve(a, b), np.linalg.solve(a, b), atol=1e-9)


def test_pinv_idempotent_on_range():
    # B in range(A): A (A^+ B) must reproduce B
    rng = np.random.default_rng(5)
    v = rng.standard_normal((6, 2))
    a = v @ v.T  # rank 2 PSD
    b = a @ rng.standard_normal(6)
    x = pinv_solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_private_pinv_reads_only_the_upper_triangle():
    # NaN below the diagonal changes no bit: the private solve is the public
    # one on the mirrored matrix, less its checks
    rng = np.random.default_rng(6)
    v = rng.standard_normal((6, 3))
    a = v @ v.T  # rank 3
    mirrored = np.triu(a) + np.triu(a, 1).T
    a[np.tri(6, k=-1, dtype=bool)] = np.nan
    for b in (rng.standard_normal(6), rng.standard_normal((6, 2))):
        np.testing.assert_array_equal(linalg._pinv_solve(a, b), pinv_solve(mirrored, b))


def test_pinv_rejects_bad_tolerance():
    with pytest.raises(ContractError):
        pinv_solve(np.eye(2), np.ones(2), rel_tol=0.0)
