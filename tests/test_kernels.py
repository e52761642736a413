"""Kernel evaluation, bounds, Gram assembly, and domain enforcement."""

import itertools
import math

import numpy as np
import pytest

from krlslab import (
    ContractError,
    DomainError,
    EmptyInputError,
    brownian,
    cross_gram,
    eval_kernel,
    gaussian,
    gram,
    kernel_bound,
    laplacian,
    polynomial,
)
from krlslab.kernels import psd_slack

ALL_SPECS = [
    gaussian(1.0),
    gaussian(0.3),
    laplacian(0.5),
    brownian(),
    polynomial(2, 0.0),
    polynomial(3, 1.0),
]


def test_closed_form_values():
    assert eval_kernel(gaussian(1.0), 0.0, 0.0) == 1.0
    assert eval_kernel(gaussian(1.0), 0.0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert eval_kernel(laplacian(1.0), 0.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert eval_kernel(brownian(), 0.3, 0.7) == 0.3
    assert eval_kernel(brownian(), 0.7, 0.3) == 0.3
    assert eval_kernel(polynomial(2, 0.0), 0.5, 0.5) == pytest.approx(0.0625, rel=1e-15)
    assert eval_kernel(polynomial(1, 2.0), 1.0, 1.0) == 3.0


def test_kernel_bound_closed_forms():
    assert kernel_bound(gaussian(0.7)) == 1.0
    assert kernel_bound(laplacian(2.0)) == 1.0
    assert kernel_bound(brownian()) == 1.0
    assert kernel_bound(brownian(domain=((0.0, 0.5),))) == 0.5
    assert kernel_bound(polynomial(2, 0.0)) == 1.0
    # box [-2, 1/2] x [0, 3]: sup |x|^2 = 4 + 9, plus offset, cubed
    spec = polynomial(3, 1.0, domain=((-2.0, 0.5), (0.0, 3.0)))
    assert kernel_bound(spec) == (4.0 + 9.0 + 1.0) ** 3


def test_polynomial_bound_matches_corner_maximization():
    # Oracle: the diagonal sup of (|x|^2 + c)^d over a box is attained at a
    # corner, so enumerate all corners and take the max.
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = rng.integers(1, 4)
        box = []
        for _ in range(int(rng.integers(1, 4))):
            a = rng.uniform(-3, 1)
            box.append((a, a + rng.uniform(0.1, 4)))
        offset = rng.uniform(0, 2)
        spec = polynomial(int(d), float(offset), tuple(box))
        corners = itertools.product(*box)
        oracle = max(
            (sum(c * c for c in corner) + offset) ** int(d) for corner in corners
        )
        assert kernel_bound(spec) == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_diagonal_bound_dominates_everywhere(spec):
    rng = np.random.default_rng(11)
    lo, hi = spec.domain[0]
    x = rng.uniform(lo, hi, 200)
    k = gram(spec, x)
    assert np.max(np.abs(k)) <= kernel_bound(spec) + 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_gram_exact_symmetry_and_psd(spec):
    rng = np.random.default_rng(3)
    lo, hi = spec.domain[0]
    x = rng.uniform(lo, hi, 73)
    k = gram(spec, x)
    np.testing.assert_array_equal(k, k.T)
    w = np.linalg.eigvalsh(k)
    assert w.min() >= -psd_slack(k)


def test_gram_exact_symmetry_at_n1500():
    # gram does no mirror pass: every family must be symmetric by formula,
    # including the squared-distance and inner-product paths in d > 1
    rng = np.random.default_rng(5)
    square = ((0.0, 1.0), (0.0, 1.0))
    specs = ALL_SPECS + [
        gaussian(0.25),
        gaussian(0.25, square),
        laplacian(0.5, square),
        polynomial(2, 0.0, square),
        polynomial(3, 1.0, square),
    ]
    for spec in specs:
        lo, hi = spec.domain[0]
        x = rng.uniform(lo, hi, (1500, spec.dim))
        k = gram(spec, x)
        np.testing.assert_array_equal(k, k.T, err_msg=f"{spec}")


def test_cross_gram_agrees_with_gram_in_d3():
    # cross_gram's inner products come from scipy's gemm, gram's from numpy's
    # x @ x.T; both must give the same kernel, as a C-ordered matrix. The
    # laplacian sums coordinate differences and takes no inner products.
    rng = np.random.default_rng(8)
    cube = ((0.0, 1.0),) * 3
    x = rng.uniform(0.0, 1.0, (300, 3))
    for spec in (gaussian(0.4, cube), laplacian(0.7, cube), polynomial(3, 1.0, cube)):
        k = cross_gram(spec, x, x.copy())
        assert k.flags.c_contiguous
        np.testing.assert_allclose(k, gram(spec, x), rtol=1e-12, atol=1e-12, err_msg=f"{spec}")


def test_laplacian_diagonal_is_exactly_one_in_d3():
    # the square root of the norm expansion (|a|^2 + |b|^2) - 2 a.b would put
    # this diagonal up to 3e-8 off 1; summed coordinate differences give 0
    x = np.random.default_rng(8).uniform(0.0, 1.0, (300, 3))
    spec = laplacian(0.7, ((0.0, 1.0),) * 3)
    k = gram(spec, x)
    np.testing.assert_array_equal(np.diagonal(k), np.ones(300))
    np.testing.assert_array_equal(np.diagonal(cross_gram(spec, x, x.copy())), np.ones(300))
    np.testing.assert_array_equal(k, k.T)


def test_gram_matches_pointwise_evaluation():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, 6)
    for spec in ALL_SPECS:
        k = gram(spec, x)
        for i in range(6):
            for j in range(6):
                assert k[i, j] == pytest.approx(
                    eval_kernel(spec, x[i], x[j]), abs=1e-14
                )


def test_cross_gram_shape_and_agreement():
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 1, 8)
    z = rng.uniform(0, 1, 5)
    k = cross_gram(brownian(), x, z)
    assert k.shape == (8, 5)
    assert k[2, 3] == min(x[2], z[3])


def test_multidim_points():
    spec = gaussian(0.5, domain=((0.0, 1.0), (0.0, 1.0)))
    rng = np.random.default_rng(17)
    x = rng.uniform(0, 1, (40, 2))
    k = gram(spec, x)
    np.testing.assert_array_equal(k, k.T)
    d2 = np.sum((x[0] - x[1]) ** 2)
    assert k[0, 1] == pytest.approx(math.exp(-d2 / (2 * 0.25)), rel=1e-12)


def test_domain_violations():
    with pytest.raises(DomainError):
        eval_kernel(brownian(), 1.2, 0.5)
    with pytest.raises(DomainError):
        gram(gaussian(1.0), np.array([0.1, -0.2]))
    with pytest.raises(DomainError):
        cross_gram(brownian(), np.array([0.5]), np.array([np.nan]))


def test_empty_input():
    with pytest.raises(EmptyInputError):
        gram(gaussian(1.0), np.array([]))


def test_spec_validation():
    with pytest.raises(ContractError):
        gaussian(0.0)
    with pytest.raises(ContractError):
        laplacian(-1.0)
    with pytest.raises(ContractError):
        polynomial(0, 1.0)
    with pytest.raises(ContractError):
        polynomial(2, -0.5)
    with pytest.raises(ContractError):
        brownian(domain=((-0.1, 1.0),))
    with pytest.raises(ContractError):
        brownian(domain=((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ContractError):
        gaussian(1.0, domain=((1.0, 1.0),))


def test_point_shape_errors():
    spec = gaussian(1.0, domain=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ContractError):
        gram(spec, np.zeros((4, 2)))
