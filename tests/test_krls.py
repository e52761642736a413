"""Global KRLS: dual solve, prediction, and the regularization contracts."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from krlslab import (
    ContractError,
    DistributedAverageModel,
    DomainError,
    EmptyInputError,
    IllConditionedError,
    KrlsModel,
    LocalizedModel,
    NystromModel,
    ZeroModel,
    assign,
    brownian,
    build_grid_partition,
    cross_gram,
    fit_distributed_average,
    fit_krls,
    fit_localized,
    fit_localized_nystrom,
    fit_nystrom,
    gaussian,
    gram,
    kernels,
    krls,
    laplacian,
    linalg,
    polynomial,
)

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_single_point_system():
    # K = [[1]]; alpha = y / (K + lam * n) = 2 / 2 = 1; prediction back at
    # the training point is alpha * K = 1.
    model = fit_krls([0.5], [2.0], 1.0, gaussian(1.0))
    np.testing.assert_allclose(model.alpha, [1.0], atol=1e-14)
    assert model.predict(0.5) == pytest.approx(1.0, abs=1e-14)


def test_zero_labels_zero_alpha():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 20)
    model = fit_krls(x, np.zeros(20), 1e-3, brownian())
    np.testing.assert_allclose(model.alpha, np.zeros(20), atol=1e-15)
    assert model.predict(0.3) == 0.0


def _oracle_gaussian_gram(x, h):
    # independent code path: explicit double loop
    n = len(x)
    k = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            k[i, j] = math.exp(-((x[i] - x[j]) ** 2) / (2 * h * h))
    return k


def test_alpha_matches_direct_inversion_oracle():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, 40)
    y = rng.standard_normal(40)
    lam = 1e-2
    k_oracle = _oracle_gaussian_gram(x, 0.4)
    alpha_oracle = np.linalg.solve(k_oracle + lam * 40 * np.eye(40), y)
    model = fit_krls(x, y, lam, gaussian(0.4))
    np.testing.assert_allclose(model.alpha, alpha_oracle, atol=1e-10)


def test_huge_lambda_shrinks_predictions():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, 30)
    y = rng.uniform(-1, 1, 30)
    lam = 1e6
    model = fit_krls(x, y, lam, gaussian(0.5))
    k = _oracle_gaussian_gram(x, 0.5)
    explicit = np.linalg.solve(k + lam * 30 * np.eye(30), y)
    np.testing.assert_allclose(model.alpha, explicit, atol=1e-15)
    assert np.max(np.abs(model.predict(x))) < 1e-4


def test_predict_matches_manual_summation():
    x = np.array([0.1, 0.4, 0.9])
    y = np.array([1.0, -0.5, 0.25])
    spec = brownian()
    model = fit_krls(x, y, 0.1, spec)
    for point in (0.05, 0.5, 1.0):
        manual = sum(a * min(xi, point) for a, xi in zip(model.alpha, x))
        assert model.predict(point) == pytest.approx(manual, abs=1e-14)


def test_training_residual_contract():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, 60)
    y = rng.standard_normal(60)
    lam = 1e-4
    model = fit_krls(x, y, lam, brownian())
    k = gram(brownian(), x)
    res = np.linalg.norm(k @ model.alpha + lam * 60 * model.alpha - y)
    assert res <= 1e-10 * np.linalg.norm(y)


def test_predictions_linear_in_labels():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1, 25)
    y1 = rng.standard_normal(25)
    y2 = rng.standard_normal(25)
    spec = gaussian(0.3)
    xt = rng.uniform(0, 1, 50)
    p1 = fit_krls(x, y1, 1e-2, spec).predict(xt)
    p2 = fit_krls(x, y2, 1e-2, spec).predict(xt)
    p12 = fit_krls(x, y1 + 2.0 * y2, 1e-2, spec).predict(xt)
    np.testing.assert_allclose(p12, p1 + 2.0 * p2, atol=1e-9)


def test_interpolation_limit_residual_monotone():
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.05, 1, 30))
    y = np.sin(3 * x)
    residuals = []
    for lam in (1e-2, 1e-4, 1e-6):
        model = fit_krls(x, y, lam, gaussian(0.4))
        residuals.append(np.max(np.abs(model.predict(x) - y)))
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] < 1e-2


def _objective(model, x, y):
    pred = model.predict(x)
    k = gram(model.kernel, x)
    return float(np.mean((pred - y) ** 2) + model.lam * model.alpha @ k @ model.alpha)


def test_objective_beats_zero_function():
    rng = np.random.default_rng(6)
    x = rng.uniform(0, 1, 40)
    y = rng.standard_normal(40)
    model = fit_krls(x, y, 1e-2, brownian())
    assert _objective(model, x, y) <= float(np.mean(y**2)) + 1e-12


def test_objective_optimal_against_perturbations():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, 30)
    y = rng.standard_normal(30)
    spec = gaussian(0.5)
    model = fit_krls(x, y, 5e-2, spec)
    base = _objective(model, x, y)
    k = gram(spec, x)
    for _ in range(5):
        delta = 1e-3 * rng.standard_normal(30)
        alpha = model.alpha + delta
        pred = k @ alpha
        perturbed = float(np.mean((pred - y) ** 2) + model.lam * alpha @ k @ alpha)
        assert base <= perturbed + 1e-12


def test_contract_errors():
    with pytest.raises(ContractError):
        fit_krls([0.1, 0.2], [1.0], 1e-2, brownian())
    with pytest.raises(ContractError):
        fit_krls([0.1], [1.0], 0.0, brownian())
    with pytest.raises(ContractError):
        fit_krls([0.1], [1.0], -1.0, brownian())
    with pytest.raises(ContractError, match="finite"):
        fit_krls([0.1], [1.0], np.inf, brownian())
    with pytest.raises(EmptyInputError):
        fit_krls([], [], 1e-2, brownian())


def test_predict_shapes():
    model = fit_krls([0.2, 0.8], [1.0, 2.0], 1e-2, brownian())
    assert isinstance(model.predict(0.5), float)
    out = model.predict(np.array([0.1, 0.5, 0.9]))
    assert out.shape == (3,)


def test_non_finite_labels_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(ContractError, match="finite"):
            fit_krls([0.1, 0.5, 0.9], [1.0, bad, 0.0], 1e-2, brownian())


def test_fit_leaves_inputs_unchanged():
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 1, (50, 2))
    y = rng.standard_normal(50)
    x_kept, y_kept = x.copy(), y.copy()
    fit_krls(x, y, 1e-2, gaussian(0.4, ((0.0, 1.0), (0.0, 1.0))))
    np.testing.assert_array_equal(x, x_kept)
    np.testing.assert_array_equal(y, y_kept)


_SQUARE = ((0.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize(
    "spec",
    [gaussian(0.3, _SQUARE), laplacian(0.3), laplacian(0.3, _SQUARE), brownian(),
     polynomial(3, 1.0)],
    ids=["gaussian", "laplacian-1d", "laplacian-2d", "brownian", "polynomial"],
)
def test_fit_holds_one_gram(spec):
    # the Gram is assembled in its one buffer and factored in place
    n = 1024
    rng = np.random.default_rng(16)
    x = rng.uniform(0, 1, (n, spec.dim))
    y = rng.standard_normal(n)
    tracemalloc.start()
    try:
        fit_krls(x, y, 1e-3, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


def test_jitter_retry_rebuilds_the_gram(monkeypatch):
    # 20 distinct points, 10 copies each: the Gram has rank 20 at most, so
    # at lam = 1e-18 the first factorization fails and the retry factors a
    # rebuilt Gram plus a jitter of 1e-12 * trace / n = 1e-12.
    base = np.random.default_rng(17).uniform(0, 1, 20)
    x = np.repeat(base, 10)
    spec = gaussian(0.5)
    in_range = cross_gram(spec, x, base[:1])[:, 0]
    built = []
    real_gram = kernels.gram

    def counting_gram(spec, pts):
        built.append(len(pts))
        return real_gram(spec, pts)

    monkeypatch.setattr(kernels, "gram", counting_gram)
    # labels in the Gram's range: the retry holds
    model = fit_krls(x, in_range, 1e-18, spec)
    assert built == [200, 200]
    assert np.all(np.isfinite(model.alpha))
    # labels summing to zero over each point's copies lie in its null space,
    # where alpha = y / jitter misses the residual tolerance
    built.clear()
    with pytest.raises(IllConditionedError) as err:
        fit_krls(x, np.tile([1.0, -1.0], 100), 1e-18, spec)
    assert err.value.jitter == pytest.approx(1e-12)
    assert built == [200, 200]


@pytest.mark.parametrize(
    "spec, copies, labels, fails",
    [
        (gaussian(0.5), 10, "sin", True),
        (brownian(), 100, "normal", True),
        (brownian(), 100, "sin", False),
    ],
    ids=["gaussian-sin", "brownian-normal", "brownian-sin"],
)
def test_jitter_retry_rescues_only_labels_in_range(spec, copies, labels, fails, monkeypatch):
    # 20 distinct points: at lam = 1e-16 the shift is below rounding, so
    # every attempt factors a Gram of rank 20 at most. A min-kernel Gram of
    # 20 distinct points is well conditioned and sin(6x) lies in its range;
    # a gaussian(0.5) one is numerically singular, and normal labels have a
    # component in the null space of any rank-20 Gram. The brownian fits,
    # at n = 2000, run the whole chain: float32, float64, then the jitter.
    base = np.random.default_rng(17).uniform(0, 1, 20)
    x = np.repeat(base, copies)
    y = np.sin(6 * x) if labels == "sin" else np.random.default_rng(18).standard_normal(x.size)
    built = []
    real_gram = kernels.gram

    def counting_gram(spec, pts):
        built.append(len(pts))
        return real_gram(spec, pts)

    monkeypatch.setattr(kernels, "gram", counting_gram)
    if not fails:
        model = fit_krls(x, y, 1e-16, spec)
        assert np.all(np.isfinite(model.alpha))
        return
    with pytest.raises(IllConditionedError) as err:
        fit_krls(x, y, 1e-16, spec)
    assert err.value.jitter == pytest.approx(1e-12 * np.trace(real_gram(spec, x)) / x.size)
    assert built == [x.size, x.size]


def _refined_failures(monkeypatch):
    """Record the error of every float32 solve fit_krls attempts; None for
    a float32 solve that returned. The float64 solves pass unrecorded."""
    failures = []
    real = linalg._cholesky_solve

    def recording(k, *args):
        if k.dtype != np.float32:
            return real(k, *args)
        try:
            alpha = real(k, *args)
        except np.linalg.LinAlgError as error:
            failures.append(str(error))
            raise
        failures.append(None)
        return alpha

    monkeypatch.setattr(linalg, "_cholesky_solve", recording)
    return failures


def _float64_alpha(spec, x, y, lam):
    return linalg._spd_solve(lambda: gram(spec, x), lam * len(y), y)


@pytest.mark.parametrize(
    "lam, failure", [(1e-12, "spftrf failed"), (1e-9, "refinement stalled")],
    ids=["spftrf-fails", "refinement-stalls"],
)
def test_refined_fit_falls_back_to_float64_bitwise(lam, failure, monkeypatch):
    # on [0.9, 1] the min-kernel Gram is 0.9 plus a small brownian part, so
    # float32 loses most of it: spftrf fails at lam = 1e-12 and the float32
    # factor is too far off to refine at lam = 1e-9
    n = 2048
    rng = np.random.default_rng(19)
    x = rng.uniform(0.9, 1.0, n)
    y = np.sin(6 * x)
    failures = _refined_failures(monkeypatch)
    model = fit_krls(x, y, lam, brownian())
    assert len(failures) == 1 and failures[0].startswith(failure)
    np.testing.assert_array_equal(model.alpha, _float64_alpha(brownian(), x, y, lam))


@pytest.mark.parametrize("n", [2048, 2049, 4096])
def test_refined_fit_matches_float64_solve(n, monkeypatch):
    # lam = n^-0.4 is the rate experiment's schedule for the brownian task
    rng = np.random.default_rng(20)
    x = rng.uniform(0, 1, n)
    y = np.sin(6 * x) + rng.standard_normal(n)
    lam = n ** -0.4
    failures = _refined_failures(monkeypatch)
    model = fit_krls(x, y, lam, brownian())
    assert failures == [None]
    expected = _float64_alpha(brownian(), x, y, lam)
    assert np.linalg.norm(model.alpha - expected) <= 1e-12 * np.linalg.norm(expected)
    residual = gram(brownian(), x) @ model.alpha + lam * n * model.alpha - y
    assert np.linalg.norm(residual) <= linalg.RESIDUAL_RTOL * np.linalg.norm(y)


@pytest.mark.parametrize("n", [krls._FLOAT32_MIN_N, krls._FLOAT32_MIN_N + 1, 512, 1024])
def test_small_refined_fit_matches_float64_solve(n, monkeypatch):
    # from the crossover up, a min-kernel fit factors in float32 and refines
    rng = np.random.default_rng(22)
    x = rng.uniform(0.9, 1.0, n)
    y = np.sin(6 * x) + 0.15 * rng.standard_normal(n)
    lam = n ** -0.4
    failures = _refined_failures(monkeypatch)
    model = fit_krls(x, y, lam, brownian())
    assert failures == [None]
    expected = _float64_alpha(brownian(), x, y, lam)
    assert np.linalg.norm(model.alpha - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("n", [krls._FLOAT32_MIN_N, 1025, 4096])
def test_refined_products_match_min_expansion_bitwise(n, monkeypatch):
    # the refinement sorts and looks up the training points once per fit;
    # on points with many ties every product, and so alpha, is bitwise that
    # of _min_expansion(t, t, v), which sorts and searches on every call
    rng = np.random.default_rng(23)
    x = np.round(rng.uniform(0.9, 1.0, n), 3)
    y = np.sin(6 * x) + 0.15 * rng.standard_normal(n)
    lam = n ** -0.4
    real = linalg._cholesky_solve
    products = []

    def checking(k, shift, b, apply):
        def checked(v):
            got = apply(v)
            np.testing.assert_array_equal(got, krls._min_expansion(x, x, v))
            products.append(got)
            return got

        return real(k, shift, b, checked if k.dtype == np.float32 else apply)

    monkeypatch.setattr(linalg, "_cholesky_solve", checking)
    model = fit_krls(x, y, lam, brownian())
    assert len(products) >= 2
    reference = real(krls._packed_min_gram32(x), lam * n, y,
                     lambda v: krls._min_expansion(x, x, v))
    np.testing.assert_array_equal(model.alpha, reference)


def test_fit_below_the_crossover_stays_float64(monkeypatch):
    n = krls._FLOAT32_MIN_N - 1
    rng = np.random.default_rng(22)
    x = rng.uniform(0.9, 1.0, n)
    y = np.sin(6 * x) + 0.15 * rng.standard_normal(n)
    lam = n ** -0.4
    failures = _refined_failures(monkeypatch)
    model = fit_krls(x, y, lam, brownian())
    assert failures == []
    np.testing.assert_array_equal(model.alpha, _float64_alpha(brownian(), x, y, lam))


def _packed_reference(x):
    """The float32 min-kernel Gram of x, padded to even order m by a last
    row and column of zeros with 1 on the diagonal, in RFP storage as
    LAPACK's strttf packs it, shaped (m + 1, m / 2)."""
    n = x.shape[0]
    m = n + n % 2
    a = np.zeros((m, m), dtype=np.float32, order="F")
    a[:n, :n] = np.minimum.outer(x, x)
    a[n:, n:] = 1.0
    packed, info = lapack.strttf(a, transr="T", uplo="L")
    assert info == 0
    return packed.reshape(m + 1, m // 2)


@pytest.mark.parametrize("n", [144, 145, 1024, 1025, 2048, 2049])
def test_packed_gram_matches_strttf(n):
    x = np.random.default_rng(n).uniform(0, 1, n)
    k32 = krls._packed_min_gram32(x)
    assert k32.dtype == np.float32 and k32.flags.c_contiguous
    np.testing.assert_array_equal(k32, _packed_reference(x))


def _packed_gram_peak(n, monkeypatch):
    """The one float32 Gram a refined fit at n points hands the solve, and
    the fit's tracemalloc peak."""
    rng = np.random.default_rng(23)
    x = rng.uniform(0, 1, n)
    y = rng.standard_normal(n)
    failures = _refined_failures(monkeypatch)
    buffers = []
    recording = linalg._cholesky_solve

    def keeping(k32, *args):
        buffers.append(k32)
        return recording(k32, *args)

    monkeypatch.setattr(linalg, "_cholesky_solve", keeping)
    tracemalloc.start()
    try:
        fit_krls(x, y, 1e-3, brownian())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert failures == [None]
    (k32,) = buffers
    return k32, peak


def test_small_refined_fit_holds_one_heap_float32_gram(monkeypatch):
    # the packed Gram is one numpy array, so tracemalloc sees it: one
    # 2 n (n + 1) byte buffer and no float64 Gram
    n = 1024
    k32, peak = _packed_gram_peak(n, monkeypatch)
    assert k32.shape == (n + 1, n // 2) and k32.dtype == np.float32
    assert k32.flags.c_contiguous and k32.base is None
    assert 2 * n * (n + 1) <= peak < 1.5 * 2 * n * (n + 1)


@pytest.mark.parametrize("n", [2048, 2049])
def test_refined_fit_holds_one_packed_float32_gram(n, monkeypatch):
    # the fit's one Gram is the packed float32 array, 4 (m + 1) m / 2 bytes
    # for the even order m, and everything else is O(n): no n x n buffer of
    # any dtype is built, not even a boolean mask
    m = n + n % 2
    k32, peak = _packed_gram_peak(n, monkeypatch)
    assert k32.shape == (m + 1, m // 2) and k32.dtype == np.float32
    assert k32.flags.c_contiguous and k32.base is None
    packed = 4 * (m + 1) * m // 2
    assert packed <= peak <= packed + 200 * n


@pytest.mark.parametrize("outside", [1.5, -0.1, np.nan])
def test_refined_fit_checks_the_domain_first(outside, monkeypatch):
    x = np.random.default_rng(21).uniform(0, 1, 2048)
    x[100] = outside
    failures = _refined_failures(monkeypatch)
    with pytest.raises(DomainError):
        fit_krls(x, np.zeros(x.size), 1e-3, brownian())
    assert failures == []


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self")
def test_refined_fit_keeps_only_the_packed_gram_resident():
    # every page of the packed Gram is written and nothing else of n^2 size
    # is: at n = 4096 the fit's resident growth stays within 15 % of the
    # 32 MB packed array (the triangle of a mapped n x n buffer grew it by
    # 40 MB). A first refined fit at n = 1100 loads the BLAS buffers, which
    # are not the fit's. The child reads its peak from VmHWM: ru_maxrss
    # would start from this process's peak, which Linux carries across exec.
    script = textwrap.dedent("""
        import numpy as np
        from krlslab import brownian, fit_krls

        def peak_kb():
            with open("/proc/self/status", encoding="ascii") as status:
                return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

        rng = np.random.default_rng(16)
        fit_krls(rng.uniform(0, 1, 1100), rng.standard_normal(1100), 1e-3, brownian())
        x, y = rng.uniform(0, 1, 4096), rng.standard_normal(4096)
        before = peak_kb()
        fit_krls(x, y, 1e-3, brownian())
        print(peak_kb() - before)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    growth_kb = int(done.stdout.split()[-1])
    assert growth_kb * 1024 < 1.15 * 4 * 4097 * 4096 / 2


@pytest.mark.parametrize("lam", [1e-12, 1e-9], ids=["spftrf-fails", "refinement-stalls"])
def test_refined_fit_frees_the_float32_gram_before_the_fallback(lam, monkeypatch):
    # the float64 fallback builds its Gram only once the packed float32
    # Gram is gone, so a fit never holds both
    n = 2048
    rng = np.random.default_rng(19)
    x = rng.uniform(0.9, 1.0, n)
    y = np.sin(6 * x)
    failures = _refined_failures(monkeypatch)
    packed, alive = [], []
    recording, real_gram = linalg._cholesky_solve, kernels.gram

    def referencing(k, *args):
        if k.dtype == np.float32:
            packed.append(weakref.ref(k))
        return recording(k, *args)

    def checking_gram(spec, pts):
        alive.append(packed[-1]() is not None)
        return real_gram(spec, pts)

    monkeypatch.setattr(linalg, "_cholesky_solve", referencing)
    monkeypatch.setattr(kernels, "gram", checking_gram)
    fit_krls(x, y, lam, brownian())
    assert len(failures) == 1 and failures[0] is not None
    assert alive == [False]


def test_refined_fit_corrects_without_spotrs(monkeypatch):
    # each correction is four strsv and two sgemv on the blocks of the
    # packed factor, not a LAPACK solve
    def refused(*args, **kwargs):
        raise AssertionError("a LAPACK triangular solve was called")

    monkeypatch.setattr(lapack, "spotrs", refused)
    monkeypatch.setattr(lapack, "spftrs", refused)
    n = 2048
    rng = np.random.default_rng(20)
    x = rng.uniform(0, 1, n)
    y = np.sin(6 * x) + rng.standard_normal(n)
    lam = n ** -0.4
    failures = _refined_failures(monkeypatch)
    model = fit_krls(x, y, lam, brownian())
    assert failures == [None]
    expected = _float64_alpha(brownian(), x, y, lam)
    assert np.linalg.norm(model.alpha - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize(
    "fit, centers",
    [
        (lambda x, y: fit_krls(x, y, 1e-3, gaussian(0.3)), "inputs"),
        (lambda x, y: fit_nystrom(x, y, 1e-3, 40, 0, gaussian(0.3)), "landmarks"),
    ],
    ids=["krls", "nystrom"],
)
def test_blocked_predict_matches_one_shot(fit, centers, monkeypatch):
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, 40)
    model = fit(x, rng.standard_normal(40))
    xt = rng.uniform(0, 1, 100)
    expected = cross_gram(model.kernel, xt, getattr(model, centers)) @ model.alpha
    # 40 * 30 entries per block: 30 rows, so 100 points take 4 blocks
    monkeypatch.setattr(krls, "_BLOCK_ENTRIES", 40 * 30)
    blocks = []
    real_cross_gram = kernels.cross_gram

    def counting_cross_gram(spec, a, b):
        blocks.append(len(a))
        return real_cross_gram(spec, a, b)

    monkeypatch.setattr(kernels, "cross_gram", counting_cross_gram)
    got = model.predict(xt)
    assert blocks == [30, 30, 30, 10]
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
    assert isinstance(model.predict(0.5), float)
    assert model.predict(0.5) == float(model.predict(np.array([0.5]))[0])
    with pytest.raises(EmptyInputError):
        model.predict(np.array([]))


def _one_shot_expansion(model, t):
    """A model's kernel expansion at t through one cross-Gram product, and
    the sum of the absolute values of its terms, sum_j |alpha_j K(t, c_j)|."""
    if isinstance(model, LocalizedModel):
        value, scale = np.zeros(t.size), np.zeros(t.size)
        cells = assign(model.partition, t)
        for j, local in enumerate(model.local_models):
            ix = cells == j
            if ix.any() and not isinstance(local, ZeroModel):
                value[ix], scale[ix] = _one_shot_expansion(local, t[ix])
        return value, scale
    if isinstance(model, DistributedAverageModel):
        parts = [_one_shot_expansion(local, t) for local in model.models]
        return tuple(np.mean(part, axis=0) for part in zip(*parts))
    k = cross_gram(model.kernel, t, model.inputs if isinstance(model, KrlsModel)
                   else model.landmarks)
    return k @ model.alpha, np.abs(k) @ np.abs(model.alpha)


_PART = build_grid_partition((0.0, 1.0), 4)


@pytest.mark.parametrize(
    "copies, lam", [(10, 1e-2), (10, 1e-6), (1, 1e-10)],
    ids=["copies-lam1e-2", "copies-lam1e-6", "distinct-lam1e-10"],
)
@pytest.mark.parametrize(
    "fit",
    [
        lambda x, y, lam: fit_krls(x, y, lam, brownian()),
        lambda x, y, lam: fit_nystrom(x, y, lam, 50, 3, brownian()),
        lambda x, y, lam: fit_localized(x, y, _PART, lam, brownian()),
        lambda x, y, lam: fit_localized_nystrom(x, y, _PART, lam, 8, 3, brownian()),
        lambda x, y, lam: fit_distributed_average(x, y, 4, lam, brownian(), 3),
        lambda x, y, lam: fit_distributed_average(x, y, x.size, lam, brownian(), 3),
    ],
    ids=["krls", "nystrom", "localized", "localized_nystrom", "distributed",
         "distributed_m_eq_n"],
)
def test_min_kernel_prediction_matches_cross_gram(fit, copies, lam, monkeypatch):
    # 200 training points: 200 // copies distinct centers, two of them the
    # domain's endpoints, each repeated `copies` times
    rng = np.random.default_rng(4)
    distinct = np.concatenate(([0.0, 1.0], rng.uniform(0, 1, 200 // copies - 2)))
    x = np.repeat(distinct, copies)
    model = fit(x, rng.standard_normal(x.size), lam)
    # queries on the centers, on the cell boundaries and in between
    t = np.concatenate((distinct, [0.25, 0.5, 0.75], rng.uniform(0, 1, 200)))
    expected, scale = _one_shot_expansion(model, t)

    def no_cross_gram(*args):
        raise AssertionError("the min kernel predicts without a cross-Gram")

    monkeypatch.setattr(kernels, "cross_gram", no_cross_gram)
    got = model.predict(t)
    assert np.all(np.abs(got - expected) <= 1e-13 * scale)
    for point in (0.0, distinct[5], 1.0):
        value = model.predict(point)
        assert isinstance(value, float)
        assert value == float(model.predict(np.array([point]))[0])
    with pytest.raises(EmptyInputError):
        model.predict(np.array([]))
    for outside in (-0.1, 1.5, np.nan):
        with pytest.raises(DomainError):
            model.predict([0.5, outside])


def test_model_centers_are_checked_at_construction():
    with pytest.raises(DomainError, match="inputs: coordinate 0 leaves"):
        KrlsModel(inputs=[[0.5], [1.5]], alpha=[1.0, 2.0], lam=0.1, kernel=brownian())
    with pytest.raises(DomainError, match="landmarks: points must be finite"):
        NystromModel(landmarks=[[0.5], [np.nan]], landmark_indices=[0, 1], alpha=[1.0, 2.0],
                     lam=0.1, kernel=brownian(), seed=0)
    with pytest.raises(DomainError, match="inputs: coordinate 1 leaves"):
        KrlsModel(inputs=[[0.5, 0.5], [0.5, -0.5]], alpha=[1.0, 2.0], lam=0.1,
                  kernel=gaussian(0.3, _SQUARE))
    with pytest.raises(EmptyInputError, match="inputs: need at least one point"):
        KrlsModel(inputs=np.empty((0, 1)), alpha=[], lam=0.1, kernel=brownian())
