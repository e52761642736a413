"""Landmark subsampling and the reduced-space solve."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import blas, lapack

from krlslab import (
    ContractError,
    DomainError,
    EmptyInputError,
    brownian,
    build_grid_partition,
    fit_krls,
    fit_localized_nystrom,
    fit_nystrom,
    gaussian,
    gram,
    cross_gram,
    laplacian,
    kernels,
    krls,
    linalg,
    nystrom,
    polynomial,
    sample_landmarks,
)


def test_landmarks_distinct_in_range_deterministic():
    idx = sample_landmarks(100, 10, seed=42)
    assert len(idx) == 10
    assert len(set(idx.tolist())) == 10
    assert idx.min() >= 0 and idx.max() < 100
    np.testing.assert_array_equal(idx, sample_landmarks(100, 10, seed=42))


def test_landmarks_full_draw_is_permutation():
    idx = sample_landmarks(12, 12, seed=0)
    assert sorted(idx.tolist()) == list(range(12))


def test_landmark_count_errors():
    with pytest.raises(ContractError):
        sample_landmarks(10, 0, seed=0)
    with pytest.raises(ContractError):
        sample_landmarks(10, 11, seed=0)
    with pytest.raises(EmptyInputError):
        sample_landmarks(0, 1, seed=0)


def test_landmark_frequencies_uniform():
    # multinomial oracle: l=1 from n=50 over many trials. Expected count per
    # index is trials/50; allow 5 sigma of Binomial(trials, 1/50).
    n, trials = 50, 20000
    counts = np.zeros(n)
    for seed in range(trials):
        counts[sample_landmarks(n, 1, seed=seed)[0]] += 1
    expected = trials / n
    sigma = np.sqrt(trials * (1 / n) * (1 - 1 / n))
    assert np.all(np.abs(counts - expected) <= 5 * sigma)


def test_full_landmark_set_matches_krls():
    # l = n with a numerically positive definite system: the reduced space
    # is the whole span, so predictions coincide with exact KRLS.
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 1, 120)
    y = np.sin(4 * x) + 0.1 * rng.standard_normal(120)
    lam = 1e-3
    spec = polynomial(3, 1.0)
    krls = fit_krls(x, y, lam, spec)
    nys = fit_nystrom(x, y, lam, 120, seed=5, spec=spec)
    xt = rng.uniform(0, 1, 100)
    assert np.max(np.abs(krls.predict(xt) - nys.predict(xt))) <= 1e-8


def test_zero_labels_zero_alpha():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, 50)
    model = fit_nystrom(x, np.zeros(50), 1e-2, 10, seed=1, spec=brownian())
    np.testing.assert_allclose(model.alpha, np.zeros(10), atol=1e-15)


def test_duplicate_coordinates_stay_solvable():
    # duplicated coordinates make K_ll rank-deficient; the whitened solve
    # gives a duplicate's zero column of W a zero coefficient, which keeps
    # the normal equations satisfied
    x = np.array([0.2, 0.2, 0.2, 0.5, 0.8, 0.8, 0.35, 0.65])
    rng = np.random.default_rng(10)
    y = rng.standard_normal(len(x))
    lam = 1e-3
    model = fit_nystrom(x, y, lam, len(x), seed=3, spec=brownian())
    assert np.all(np.isfinite(model.alpha))
    k_nl = cross_gram(brownian(), x, model.landmarks)
    k_ll = gram(brownian(), model.landmarks)
    b = k_nl.T @ k_nl + len(x) * lam * k_ll
    rhs = k_nl.T @ y
    assert np.linalg.norm(b @ model.alpha - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_landmarks_are_training_points():
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 1, 30)
    model = fit_nystrom(x, rng.standard_normal(30), 1e-2, 7, seed=2, spec=brownian())
    np.testing.assert_array_equal(model.landmarks[:, 0], x[model.landmark_indices])


def test_single_landmark_prediction_form():
    model = fit_nystrom([0.5], [2.0], 1.0, 1, seed=0, spec=gaussian(1.0))
    # one landmark at 0.5: prediction there is alpha * K(0.5, 0.5) = alpha
    assert model.predict(0.5) == pytest.approx(float(model.alpha[0]), abs=1e-14)
    manual = float(model.alpha[0]) * np.exp(-((0.5 - 0.2) ** 2) / 2)
    assert model.predict(0.2) == pytest.approx(manual, abs=1e-14)


def _objective(pred_train, y, alpha, k_pts, lam):
    return float(np.mean((pred_train - y) ** 2) + lam * alpha @ k_pts @ alpha)


def test_training_objective_gap_shrinks_with_more_landmarks():
    rng = np.random.default_rng(12)
    n = 160
    x = rng.uniform(0, 1, n)
    y = np.sin(5 * x) + 0.2 * rng.standard_normal(n)
    lam = 1e-3
    spec = polynomial(3, 1.0)
    krls = fit_krls(x, y, lam, spec)
    k_full = gram(spec, x)
    base = _objective(krls.predict(x), y, krls.alpha, k_full, lam)
    gaps = []
    for l in (n // 8, n // 4, n // 2, n):
        model = fit_nystrom(x, y, lam, l, seed=21, spec=spec)
        k_land = gram(spec, model.landmarks)
        obj = _objective(model.predict(x), y, model.alpha, k_land, lam)
        gaps.append(obj - base)
    assert all(g >= -1e-12 for g in gaps)
    assert gaps[-1] <= 1e-8
    assert gaps[-1] <= gaps[0] + 1e-12


def test_fit_is_bitwise_deterministic():
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 1, 80)
    y = rng.standard_normal(80)
    a = fit_nystrom(x, y, 1e-2, 20, seed=7, spec=brownian())
    b = fit_nystrom(x, y, 1e-2, 20, seed=7, spec=brownian())
    np.testing.assert_array_equal(a.alpha, b.alpha)
    np.testing.assert_array_equal(a.landmark_indices, b.landmark_indices)


def test_normal_equations_accumulate_in_place(monkeypatch):
    # From one block's cross_gram return to the next call, syrk and gemv
    # update b and rhs in place: k.T @ k would add a second l x l matrix
    # (512 KB here) per block, and a C-ordered operand a copy of its own.
    rng = np.random.default_rng(16)
    n, l, rows = 2048, 256, 128
    x = rng.uniform(0, 1, n)
    y = rng.standard_normal(n)
    monkeypatch.setattr(krls, "_BLOCK_ENTRIES", rows * l)
    marks, peaks = [], []
    real_cross_gram = kernels.cross_gram

    def measured_cross_gram(spec, a, b):
        if marks:
            peaks.append(tracemalloc.get_traced_memory()[1] - marks[-1])
        k = real_cross_gram(spec, a, b)
        tracemalloc.reset_peak()
        marks.append(tracemalloc.get_traced_memory()[0])
        return k

    monkeypatch.setattr(kernels, "cross_gram", measured_cross_gram)
    tracemalloc.start()
    try:
        fit_nystrom(x, y, 1e-3, l, seed=5, spec=laplacian(0.5))
    finally:
        tracemalloc.stop()
    assert len(peaks) == n // rows - 1
    assert max(peaks) < l * l * 8 / 4


def test_normal_equations_hold_one_block(monkeypatch):
    # Each block of K_nl is let go before the next one is built, so the
    # fit never holds two of them (256 KB each here).
    rng = np.random.default_rng(18)
    n, l, rows = 2048, 256, 128
    x = rng.uniform(0, 1, n)
    y = rng.standard_normal(n)
    monkeypatch.setattr(krls, "_BLOCK_ENTRIES", rows * l)
    held = []
    real_cross_gram = kernels.cross_gram

    def measured_cross_gram(spec, a, b):
        held.append(tracemalloc.get_traced_memory()[0])
        return real_cross_gram(spec, a, b)

    monkeypatch.setattr(kernels, "cross_gram", measured_cross_gram)
    tracemalloc.start()
    try:
        fit_nystrom(x, y, 1e-3, l, seed=5, spec=laplacian(0.5))
    finally:
        tracemalloc.stop()
    assert len(held) == n // rows
    assert max(held[1:]) - held[0] < rows * l * 8 / 4


def test_normal_equations_mirror_in_place(monkeypatch):
    # No mirror any more: after the last syrk, b reaches the solve as syrk
    # left it, with no l x l temporary (512 KB here) in between, and its
    # strict lower triangle still holds n * lam * K_ll alone.
    rng = np.random.default_rng(17)
    n, l, lam = 1024, 256, 1e-3
    x = rng.uniform(0, 1, n)
    y = rng.standard_normal(n)
    marks, peaks, systems = [], [], []
    real_dsyrk = blas.dsyrk

    def marked_dsyrk(*args, **kwargs):
        c = real_dsyrk(*args, **kwargs)
        tracemalloc.reset_peak()
        marks.append(tracemalloc.get_traced_memory()[0])
        return c

    def capturing_solve(build, rhs, apply):
        systems.append(build())
        return linalg._psd_solve(build, rhs, apply)

    class MeasuredLinalg:
        # nystrom looks up linalg._psd_solve before it evaluates the
        # arguments handed to it, so the peak read here ends at the solve
        def __getattr__(self, name):
            if name == "_psd_solve":
                peaks.append(tracemalloc.get_traced_memory()[1] - marks[-1])
                return capturing_solve
            return getattr(linalg, name)

    monkeypatch.setattr(blas, "dsyrk", marked_dsyrk)
    monkeypatch.setattr(nystrom, "linalg", MeasuredLinalg())
    tracemalloc.start()
    try:
        model = fit_nystrom(x, y, lam, l, seed=5, spec=laplacian(0.5))
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1
    assert peaks[0] < l * l * 8 / 4
    k_ll = gram(laplacian(0.5), model.landmarks)
    k_ll *= n * lam
    np.testing.assert_array_equal(np.tril(systems[0], -1), np.tril(k_ll, -1))


def test_min_kernel_fit_skips_cross_gram_and_syrk(monkeypatch):
    # The prefix-sum build holds O(n) sorted inputs and sums, then b and the
    # Cholesky solve: 1.6 MB here, against a bound of four l x l matrices
    # (2 MB) plus eight n-vectors (2 MB). One row block of K_nl alone is 8 MB.
    rng = np.random.default_rng(19)
    n, l = 32768, 256
    x = rng.uniform(0, 1, n)
    y = rng.standard_normal(n)
    calls = []

    def refused(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(name)
        return call

    monkeypatch.setattr(kernels, "cross_gram", refused("cross_gram"))
    monkeypatch.setattr(blas, "dsyrk", refused("dsyrk"))
    tracemalloc.start()
    try:
        fit_nystrom(x, y, 1e-3, l, seed=5, spec=brownian())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 4 * 8 * l * l + 8 * 8 * n


def _min_case(name):
    rng = np.random.default_rng(23)
    if name == "duplicates":
        x = np.repeat(rng.uniform(0, 1, 20), 3)
        return x, 30
    if name == "endpoints":
        x = rng.uniform(0, 1, 50)
        x[7], x[31] = 0.0, 1.0
        return x, 50
    n, l = {"uniform": (300, 40), "one_landmark": (60, 1), "all_landmarks": (64, 64)}[name]
    return rng.uniform(0, 1, n), l


def _symmetric(b):
    """The symmetric matrix whose upper triangle b holds."""
    return np.triu(b) + np.triu(b, 1).T


def _sorted_factor(z):
    """The closed-form Cholesky factor L = E diag(s) of the min-kernel Gram
    of the ascending points z, K_ll = L L^T."""
    return np.tril(np.ones((z.size, z.size))) * np.sqrt(np.diff(z, prepend=0.0))


def _outcome(solve, *args):
    """What solve(*args) returns, or the message of the LinAlgError it raises."""
    try:
        return solve(*args)
    except np.linalg.LinAlgError as error:
        return str(error)


@pytest.mark.parametrize(
    "case", ["uniform", "duplicates", "endpoints", "one_landmark", "all_landmarks"]
)
def test_min_normal_equations_match_blocked_build(case, monkeypatch):
    x, l = _min_case(case)
    n, lam = x.size, 1e-2
    y = np.sin(6 * x) + np.random.default_rng(24).standard_normal(n)
    spec = brownian()
    systems = []
    real_solve = linalg._cholesky_solve

    def capturing_solve(b, shift, rhs, apply):
        system = (b.copy(), apply, shift, rhs.copy())
        outcome = _outcome(real_solve, b, shift, rhs, apply)
        systems.append(system + (outcome,))
        if isinstance(outcome, str):
            raise np.linalg.LinAlgError(outcome)
        return outcome

    monkeypatch.setattr(linalg, "_cholesky_solve", capturing_solve)
    model = fit_nystrom(x, y, lam, l, seed=4, spec=spec)
    (b, apply, shift, rhs, outcome), = systems
    draw = model.landmarks[:, 0]
    if l > 1:
        assert not np.all(np.diff(draw) >= 0)  # the draw is unsorted
    # the whitened system is solved in ascending landmark order, from the
    # upper triangle of b alone; through K_ll's closed-form Cholesky factor
    # L it is the blocked normal equations: L (M + shift I) L^T = b_ref and
    # L rhs = rhs_ref
    order = np.argsort(draw, kind="stable")
    b_ref, rhs_ref = nystrom._blocked_normal_equations(
        spec, x[:, None], y, model.landmarks[order], n * lam
    )
    assert shift == n * lam
    factor = _sorted_factor(draw[order])
    system = _symmetric(b) + shift * np.eye(l)
    gap = np.abs(np.triu(factor @ system @ factor.T - b_ref)).max()
    assert gap <= 1e-13 * np.abs(b_ref).max()
    assert np.abs(factor @ rhs - rhs_ref).max() <= 1e-13 * np.abs(rhs_ref).max()
    # nothing below the diagonal is read: NaN there changes no bit of the
    # float64 solve
    b_nan = b.copy()
    b_nan[np.tri(l, k=-1, dtype=bool)] = np.nan
    again = _outcome(real_solve, b_nan, shift, rhs, apply)
    if isinstance(outcome, str):
        assert again == outcome
    else:
        np.testing.assert_array_equal(again, outcome)
        # alpha = L^-T beta
        gap = np.abs(factor.T @ model.alpha[order] - outcome).max()
        assert gap <= 1e-13 * np.abs(outcome).max()
    # the O(l) product is M's
    v = np.random.default_rng(25).standard_normal(l)
    gap = np.abs(apply(v) - _symmetric(b) @ v).max()
    assert gap <= 1e-13 * np.abs(b).max() * np.abs(v).max()
    # alpha comes back in draw order: it solves the draw-ordered system
    b_draw, rhs_draw = nystrom._blocked_normal_equations(
        spec, x[:, None], y, model.landmarks, n * lam
    )
    residual = _symmetric(b_draw) @ model.alpha - rhs_draw
    assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs_draw)


@pytest.mark.parametrize("lam, bound", [(1e-9, 1e-7), (1e-6, 1e-10)])
def test_min_nystrom_predictions_match_stacked_qr(lam, bound):
    # The normal equations square the condition number; the whitened solve
    # keeps the predictions of a QR solve of the stacked least-squares
    # problem [K_nl; sqrt(n lam) L^T] alpha ~ [y; 0] at small lam.
    rng = np.random.default_rng(27)
    n, l = 2000, 600
    x = rng.uniform(0, 1, n)
    y = np.sin(6 * x) + 0.15 * rng.standard_normal(n)
    model = fit_nystrom(x, y, lam, l, seed=8, spec=brownian())
    z = np.sort(model.landmarks[:, 0])
    stacked = np.vstack((np.minimum.outer(x, z), np.sqrt(n * lam) * _sorted_factor(z).T))
    q, r = np.linalg.qr(stacked)
    alpha = scipy.linalg.solve_triangular(r, q[:n].T @ y)
    xt = rng.uniform(0, 1, 1000)
    assert np.abs(model.predict(xt) - np.minimum.outer(xt, z) @ alpha).max() <= bound


def _zero_step_case(name):
    """x, y, l and lam of a fit whose sorted landmarks have a zero step."""
    if name == "duplicates":
        return _duplicates()
    rng = np.random.default_rng(28)
    if name == "landmark_at_zero":
        x = np.concatenate(([0.0], rng.uniform(0, 1, 11)))
        return x, np.sin(6 * x) + rng.standard_normal(12), 12, 1e-3
    x = rng.uniform(0, 1, 60)
    return x, np.sin(6 * x), 1, 1e-2


@pytest.mark.parametrize("case", ["duplicates", "landmark_at_zero", "one_landmark"])
def test_min_nystrom_zero_steps_match_pseudo_inverse_fit(case, monkeypatch):
    # a duplicate landmark, or one at 0, makes K_ll singular: its column of
    # W is zero and its beta 0, so the fit predicts as the pseudo-inverse of
    # the normal equations does, without either fallback solve; so does the
    # smallest system, one landmark
    x, y, l, lam = _zero_step_case(case)
    rng = np.random.default_rng(29)
    seed = 3
    landmarks = x[sample_landmarks(x.size, l, seed), None]
    b, rhs = nystrom._blocked_normal_equations(brownian(), x[:, None], y, landmarks,
                                               x.size * lam)
    reference = linalg.pinv_solve(_symmetric(b), rhs)

    def refused(*args):
        raise AssertionError("a fallback solve was called")

    monkeypatch.setattr(linalg, "_psd_solve", refused)
    monkeypatch.setattr(linalg, "_pinv_solve", refused)
    model = fit_nystrom(x, y, lam, l, seed=seed, spec=brownian())
    xt = rng.uniform(0, 1, 200)
    expected = np.minimum.outer(xt, landmarks[:, 0]) @ reference
    assert np.abs(model.predict(xt) - expected).max() <= 1e-10


def test_min_nystrom_cell_refines_a_float32_factor(monkeypatch):
    # a cell like the localized Nystrom benchmark's: 540 points in a cell
    # of width 1/640 on [0.9, 1], 512 landmarks, lam = 1/64. The whitened
    # system factors in float32 and refines in at most 3 corrections.
    rng = np.random.default_rng(30)
    n, l = 540, 512
    x = rng.uniform(0.95, 0.95 + 1 / 640, n)
    y = np.sin(6 * x) + 0.15 * rng.standard_normal(n)
    solves, factors = [], []
    real_solve, real_triangular = linalg._cholesky_solve, linalg._triangular_solve

    def recording_solve(k, *args):
        solves.append(k.dtype)
        return real_solve(k, *args)

    def counting_triangular(factor, b):
        factors.append(factor.dtype)
        return real_triangular(factor, b)

    monkeypatch.setattr(linalg, "_cholesky_solve", recording_solve)
    monkeypatch.setattr(linalg, "_triangular_solve", counting_triangular)
    model = fit_nystrom(x, y, 1 / 64, l, seed=9, spec=brownian())
    assert l >= krls._FLOAT32_MIN_N
    assert solves == [np.float32]
    assert set(factors) == {np.dtype(np.float32)} and len(factors) - 1 <= 3
    b, rhs = nystrom._blocked_normal_equations(brownian(), x[:, None], y, model.landmarks,
                                               n / 64)
    residual = _symmetric(b) @ model.alpha - rhs
    assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)


def test_whitened_fit_falls_back_to_float64_bitwise(monkeypatch):
    # no natural draw was found on which the float32 whitened solve fails,
    # so the failure is injected: the fit then solves the float64 upper
    # triangle, bit for bit as a fit below the crossover does
    rng = np.random.default_rng(32)
    n, l = 1024, 480
    x = rng.uniform(0.9, 1.0, n)
    y = np.sin(6 * x) + 0.15 * rng.standard_normal(n)
    real = linalg._cholesky_solve
    attempts = []

    def failing_float32(k, *args):
        attempts.append(k.dtype)
        if k.dtype == np.float32:
            raise np.linalg.LinAlgError("spftrf failed")
        return real(k, *args)

    monkeypatch.setattr(linalg, "_cholesky_solve", failing_float32)
    model = fit_nystrom(x, y, n ** -0.4, l, seed=11, spec=brownian())
    assert attempts == [np.float32, np.float64]
    monkeypatch.setattr(linalg, "_cholesky_solve", real)
    monkeypatch.setattr(krls, "_FLOAT32_MIN_N", l + 1)
    expected = fit_nystrom(x, y, n ** -0.4, l, seed=11, spec=brownian())
    np.testing.assert_array_equal(model.alpha, expected.alpha)


@pytest.mark.parametrize("l", [448, 449])
def test_whitened_system_packs_and_solves_like_its_upper_triangle(l, monkeypatch):
    # the float32 whitened matrix comes from the RFP writer of the KRLS
    # Gram: it holds M rounded to float32, padded at odd l by a decoupled
    # point, and its refined solve gives the float64 solve's beta to rounding
    rng = np.random.default_rng(31)
    n = 1024
    x = rng.uniform(0.9, 1.0, n)
    y = np.sin(6 * x) + 0.15 * rng.standard_normal(n)
    systems = []
    real = krls._min_solve

    def capturing(system, shift, b, dense):
        systems.append((system, shift, b.copy(), dense))
        return real(system, shift, b, dense)

    monkeypatch.setattr(krls, "_min_solve", capturing)
    fit_nystrom(x, y, n ** -0.4, l, seed=10, spec=brownian())
    (system, shift, rhs, dense), = systems
    packed, apply = system()
    m = l + l % 2
    assert packed.dtype == np.float32 and packed.shape == (m + 1, m // 2)
    full, info = lapack.stfttr(m, packed.reshape(-1), transr="T", uplo="L")
    assert info == 0
    whitened = np.column_stack([apply(e) for e in np.eye(l)])  # exact products
    lower = np.tril(full[:l, :l]).astype(float)
    assert np.all(np.abs(lower - np.tril(whitened)) <= 2.0**-22 * np.abs(np.tril(whitened)))
    if m > l:
        assert not full[l, :l].any() and full[l, l] == 1.0
    beta = linalg._cholesky_solve(packed, shift, rhs, apply)
    expected = dense()
    assert np.linalg.norm(beta - expected) <= 1e-12 * np.linalg.norm(expected)


def test_min_kernel_fit_solves_without_mirror_or_cho(monkeypatch):
    # distinct landmarks: the upper triangle goes to the float64 Cholesky
    # solve, which factors it by dpotrf, solves by two dtrsv and checks the
    # residual once against the O(l) product, with no scipy.linalg call
    calls = []

    def refused(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(name)
        return call

    rng = np.random.default_rng(26)
    n, l = 2048, 98
    x = rng.uniform(0.9, 1.0, n)
    y = np.sin(6 * x) + rng.standard_normal(n)
    lam = n ** -0.4
    b, rhs = nystrom._blocked_normal_equations(
        brownian(), x[:, None], y, x[sample_landmarks(n, l, 6), None], n * lam
    )
    monkeypatch.setattr(scipy.linalg, "cho_factor", refused("cho_factor"))
    monkeypatch.setattr(scipy.linalg, "cho_solve", refused("cho_solve"))
    model = fit_nystrom(x, y, lam, l, seed=6, spec=brownian())
    assert calls == []
    residual = _symmetric(b) @ model.alpha - rhs
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("outside", [1.5, -0.1, np.nan])
def test_min_kernel_fit_checks_the_domain_first(outside, monkeypatch):
    x = np.random.default_rng(22).uniform(0, 1, 256)
    x[100] = outside
    assert 100 not in sample_landmarks(256, 8, seed=5)  # not a landmark
    solves = []
    for name in ("_cholesky_solve", "_pinv_solve"):
        monkeypatch.setattr(linalg, name, lambda *args, name=name: solves.append(name))
    with pytest.raises(DomainError):
        fit_nystrom(x, np.zeros(x.size), 1e-3, 8, seed=5, spec=brownian())
    assert solves == []


def test_blocked_normal_equations_match_one_block(monkeypatch):
    # Compared through the system handed to the solver: alpha itself moves
    # with the conditioning (1e-8 relative here for a 1e-16 change in b).
    rng = np.random.default_rng(15)
    x = rng.uniform(0, 1, 100)
    y = rng.standard_normal(100)
    spec = gaussian(0.3)
    systems = []
    real_solve = linalg._cholesky_solve

    def capturing_solve(b, shift, rhs, apply):
        systems.append((b.copy(), rhs.copy()))
        return real_solve(b, shift, rhs, apply)

    monkeypatch.setattr(linalg, "_cholesky_solve", capturing_solve)
    whole = fit_nystrom(x, y, 1e-3, 20, seed=4, spec=spec)
    # one block is bitwise the unblocked formula
    k_nl = cross_gram(spec, x, whole.landmarks)
    b_one, rhs_one = systems[0]
    k_ll = 100 * 1e-3 * gram(spec, whole.landmarks)
    np.testing.assert_array_equal(np.triu(b_one), np.triu(k_nl.T @ k_nl + k_ll))
    np.testing.assert_array_equal(np.tril(b_one, -1), np.tril(k_ll, -1))
    np.testing.assert_array_equal(rhs_one, k_nl.T @ y)
    # 20 * 30 entries per block: 30 rows, so 100 points take 4 blocks
    monkeypatch.setattr(krls, "_BLOCK_ENTRIES", 20 * 30)
    blocks = []
    real_cross_gram = kernels.cross_gram

    def counting_cross_gram(spec, a, b):
        blocks.append(len(a))
        return real_cross_gram(spec, a, b)

    monkeypatch.setattr(kernels, "cross_gram", counting_cross_gram)
    blocked = fit_nystrom(x, y, 1e-3, 20, seed=4, spec=spec)
    assert blocks == [30, 30, 30, 10]
    np.testing.assert_array_equal(blocked.landmark_indices, whole.landmark_indices)
    b_blocked, rhs_blocked = systems[1]
    np.testing.assert_array_equal(np.tril(b_blocked, -1), np.tril(b_one, -1))
    np.testing.assert_allclose(b_blocked, b_one, rtol=1e-12, atol=0)
    scale = np.abs(rhs_one).max()
    np.testing.assert_allclose(rhs_blocked, rhs_one, rtol=1e-12, atol=1e-12 * scale)


def test_fit_contract_errors():
    with pytest.raises(ContractError):
        fit_nystrom([0.1, 0.2], [1.0, 2.0], 0.0, 1, seed=0, spec=brownian())
    with pytest.raises(ContractError, match="finite"):
        fit_nystrom([0.1, 0.2], [1.0, 2.0], np.inf, 1, seed=0, spec=brownian())
    with pytest.raises(ContractError):
        fit_nystrom([0.1, 0.2], [1.0], 1e-2, 1, seed=0, spec=brownian())
    with pytest.raises(ContractError):
        fit_nystrom([0.1, 0.2], [1.0, 2.0], 1e-2, 3, seed=0, spec=brownian())


def test_non_finite_labels_rejected():
    for bad in (np.nan, -np.inf):
        with pytest.raises(ContractError, match="finite"):
            fit_nystrom(
                [0.1, 0.5, 0.9], [1.0, bad, 0.0], 1e-2, 2, seed=0, spec=brownian()
            )


def test_pinv_fallback_only_for_rank_deficient_landmarks(monkeypatch):
    calls = []
    real_pinv = linalg._pinv_solve

    def counting_pinv(a, b):
        calls.append(a.shape[0])
        return real_pinv(a, b)

    monkeypatch.setattr(linalg, "_pinv_solve", counting_pinv)
    rng = np.random.default_rng(14)
    # distinct landmarks: the Cholesky solve holds
    x = rng.uniform(0, 1, 200)
    fit_nystrom(x, rng.standard_normal(200), 1e-3, 40, seed=2, spec=brownian())
    assert calls == []
    # duplicated landmarks make the normal equations singular; a brownian
    # fit solves the whitened system instead, which its shift keeps
    # positive definite, and a gaussian one falls back
    x = np.array([0.2, 0.2, 0.2, 0.5, 0.8, 0.8, 0.35, 0.65])
    y = rng.standard_normal(8)
    fit_nystrom(x, y, 1e-3, 8, seed=3, spec=brownian())
    assert calls == []
    fit_nystrom(x, y, 1e-3, 8, seed=3, spec=gaussian(0.2))
    assert calls == [8]


def test_gaussian_fallback_reads_no_strict_lower_entry(monkeypatch):
    # NaN below the diagonal of the normal equations changes no bit of
    # alpha, through the failed Cholesky attempt, its product and the
    # pseudo-inverse that takes over
    rng = np.random.default_rng(14)
    x = rng.uniform(0, 1, 200)
    y = rng.standard_normal(200)
    spec = gaussian(0.2)
    clean = fit_nystrom(x, y, 1e-3, 40, seed=2, spec=spec)
    real_build = nystrom._blocked_normal_equations
    calls = []
    real_pinv = linalg._pinv_solve

    def poisoned_build(*args):
        b, rhs = real_build(*args)
        b[np.tri(b.shape[0], k=-1, dtype=bool)] = np.nan
        return b, rhs

    def counting_pinv(a, b):
        calls.append(a.shape[0])
        return real_pinv(a, b)

    monkeypatch.setattr(nystrom, "_blocked_normal_equations", poisoned_build)
    monkeypatch.setattr(linalg, "_pinv_solve", counting_pinv)
    poisoned = fit_nystrom(x, y, 1e-3, 40, seed=2, spec=spec)
    assert calls == [40]
    np.testing.assert_array_equal(poisoned.alpha, clean.alpha)


def _duplicates():
    x = np.array([0.2, 0.2, 0.2, 0.5, 0.8, 0.8, 0.35, 0.65])
    return x, np.random.default_rng(14).standard_normal(8), 8, 1e-3


def _distinct(n=200):
    rng = np.random.default_rng(14)
    return rng.uniform(0, 1, n), rng.standard_normal(n)


@pytest.mark.parametrize("localized", [False, True], ids=["global", "localized"])
@pytest.mark.parametrize(
    "spec, case, falls_back",
    [
        (brownian(), lambda: _distinct() + (40, 1e-3), False),
        (brownian(), _duplicates, False),  # the whitened system needs no fallback
        (gaussian(0.2), lambda: _distinct() + (5, 1e-3), False),
        (gaussian(0.2), lambda: _distinct() + (40, 1e-3), True),
    ],
    ids=["brownian", "brownian_fallback", "gaussian", "gaussian_fallback"],
)
def test_nystrom_fits_never_recheck_symmetry(spec, case, falls_back, localized, monkeypatch):
    # the normal equations are symmetric by construction: neither the
    # Cholesky solve nor its fallback checks them again. Brownian duplicates
    # no longer reach the fallback; the gaussian cases still do.
    def refused(*args):
        raise AssertionError("_require_symmetric")

    fallbacks = []
    real_pinv = linalg._pinv_solve

    def counting_pinv(a, b):
        fallbacks.append(a.shape[0])
        return real_pinv(a, b)

    monkeypatch.setattr(linalg, "_require_symmetric", refused)
    monkeypatch.setattr(linalg, "_pinv_solve", counting_pinv)
    x, y, l, lam = case()
    if localized:
        part = build_grid_partition(((0.0, 1.0),), 2)
        fit_localized_nystrom(x, y, part, lam, l, 2, spec)
    else:
        fit_nystrom(x, y, lam, l, seed=2, spec=spec)
    assert bool(fallbacks) == falls_back
