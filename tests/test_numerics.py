"""Oracle and property tests for the numerical primitives."""

from fractions import Fraction
from math import comb, exp, factorial, pi

import numpy as np
import pytest

from atomfield.numerics import (
    QuadratureError,
    QuadratureSpec,
    _psi_trigamma,
    integrate_1d,
    integrate_2d,
    stable_binomial_series,
)

mpmath = pytest.importorskip("mpmath")

EPS = float(np.finfo(float).eps)


def _series_oracle(M: int, u: float) -> float:
    """Extended-precision reference for the alternating binomial series."""
    # terms reach ~1e84 at M = 100, u = 200, far above the result
    with mpmath.workdps(200):
        uq = mpmath.mpf(u)
        total = mpmath.mpf(0)
        for r in range(M):
            total += (
                mpmath.binomial(M - 1, r) * (-uq) ** (1 + r) / mpmath.factorial(1 + r)
            )
        return float(total)


def _series_fraction(M: int, u: float) -> float:
    """The series summed term by term in exact rationals, rounded once."""
    uq = Fraction(u)
    return float(
        sum(Fraction(comb(M - 1, r)) * (-uq) ** (1 + r) / factorial(1 + r) for r in range(M))
    )


def _int_k_series(M: int, u: float) -> float:
    """`stable_binomial_series` with the recurrence stepped by an int k."""
    lag, laguerre = 0.0, 1.0
    for k in range(1, M):
        lag, laguerre = laguerre, ((2 * k - u) * laguerre - k * lag) / k
    return -(u * laguerre) / M


class TestStableSeries:
    def test_float_steps_give_the_bits_of_the_int_k_recurrence(self):
        # every k < 2^53 converts exactly, at any M: a table of float k that
        # stopped short of M would show here
        rng = np.random.default_rng(21)
        pairs = [
            (M, u) for M in (1, 2, 3, 100, 4097, 10_000) for u in (0.0, 5e-324, 0.75, 19.5, 200.0)
        ]
        pairs += zip(rng.integers(1, 300, size=1000).tolist(), rng.uniform(0.0, 200.0, 1000).tolist())
        for M, u in pairs:
            assert stable_binomial_series(M, u).hex() == _int_k_series(M, u).hex(), (M, u)

    def test_matches_extended_precision(self):
        # the damped error is the contract; near a zero of L^(1)_{M-1} the
        # relative error of the recurrence can reach 5e-13
        rng = np.random.default_rng(42)
        for _ in range(60):
            M = int(rng.integers(1, 101))
            u = float(rng.uniform(0.0, 200.0))
            got = stable_binomial_series(M, u)
            want = _series_oracle(M, u)
            assert exp(-u / 2.0) * abs(got - want) <= 8 * EPS, (M, u)

    def test_damped_error_against_exact_rational_sum(self):
        # e^(-u/2) S_M(u) is the term the sphere's echo series adds
        rng = np.random.default_rng(7)
        pairs = [(M, u) for M in (1, 2, 50, 100) for u in (0.0, 5e-324)]
        for scale in (1.0, 1e-3, 1e-9):
            M = rng.integers(1, 101, size=200)
            u = rng.uniform(0.0, 200.0, size=200) * scale
            pairs += list(zip(M.tolist(), u.tolist()))
        assert len(pairs) == 608
        for M, u in pairs:
            got = stable_binomial_series(M, u)
            assert exp(-u / 2.0) * abs(got - _series_fraction(M, u)) <= 8 * EPS, (M, u)
            # a numpy scalar argument gives the same bits as the Python float
            assert stable_binomial_series(M, np.float64(u)).hex() == got.hex(), (M, u)
        for M in (1, 2, 50, 100):
            assert stable_binomial_series(M, 0.0) == 0.0
            # u multiplies before the division by M: no flush to zero
            assert stable_binomial_series(M, 5e-324) == -5e-324

    def test_overflow_is_reported(self):
        with pytest.raises(OverflowError, match="not representable in double precision"):
            stable_binomial_series(2, 1e300)

    def test_cancellation_regime(self):
        # individual terms ~ u^r/r! dwarf the result here
        got = stable_binomial_series(30, 25.0)
        want = _series_oracle(30, 25.0)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_laguerre_identity(self):
        # S_M(u) = -(u / M) L^{(1)}_{M-1}(u)
        from scipy.special import eval_genlaguerre

        for M, u in ((1, 0.3), (4, 2.0), (12, 7.5), (25, 18.0)):
            got = stable_binomial_series(M, u)
            want = -(u / M) * eval_genlaguerre(M - 1, 1, u)
            assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_zero_argument(self):
        assert stable_binomial_series(5, 0.0) == 0.0

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            stable_binomial_series(0, 1.0)
        with pytest.raises(ValueError):
            stable_binomial_series(3, -1.0)
        with pytest.raises(ValueError):
            stable_binomial_series(3, np.inf)


class TestQuadrature:
    def test_polynomial_exact(self):
        value, err = integrate_1d(lambda x: x * x, (0.0, 1.0), QuadratureSpec(1e-10, 1e-12))
        assert value == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert err < 1e-10

    def test_subdivision_budget_is_honoured(self):
        # the kink at 0.3 needs more than 3 subintervals and fewer than 10
        def kinked(x):
            return abs(x - 0.3)

        with pytest.raises(QuadratureError):
            integrate_1d(kinked, (0.0, 1.0), QuadratureSpec(1e-10, 1e-12, max_subdivisions=3))
        value, _ = integrate_1d(kinked, (0.0, 1.0), QuadratureSpec(1e-10, 1e-12, max_subdivisions=10))
        assert value == pytest.approx(0.5 * 0.3**2 + 0.5 * 0.7**2, rel=1e-12, abs=0.0)

    def test_oscillatory(self):
        a = 100.0
        value, _ = integrate_1d(
            lambda t: np.sin(t) ** 3 * np.cos(a * np.cos(t)),
            (0.0, pi),
            QuadratureSpec(1e-10, 1e-12, max_subdivisions=1000),
        )
        # exact: 4 (sin a - a cos a) / a^3
        want = 4.0 * (np.sin(a) - a * np.cos(a)) / a**3
        assert value == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_nonconvergence_carries_estimate(self):
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=3)
        with pytest.raises(QuadratureError) as info:
            integrate_1d(lambda x: np.sin(1.0 / x), (1e-6, 1.0), spec)
        assert np.isfinite(info.value.estimate)
        assert info.value.achieved_error > 0

    def test_2d_separable(self):
        value, err = integrate_2d(
            lambda x, y: np.sin(x) * y, ((0.0, pi), (0.0, 2.0)), QuadratureSpec(1e-10, 1e-12)
        )
        assert value == pytest.approx(4.0, rel=1e-10, abs=0.0)
        assert err < 1e-6

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0, abs_tol=1e-12)
        with pytest.raises(ValueError):
            QuadratureSpec(1e-10, 1e-12, max_subdivisions=0)


# [1, 2e4] on a log grid, every 97th integer up to 11000, the lift
# boundary 10 and its neighbours one ulp away, psi's zero near 1.4616, 1 and 2
SPECIAL_ARGS = np.concatenate(
    [
        np.geomspace(1.0, 2e4, 300),
        np.linspace(1.0, 21.0, 81),
        np.arange(1.0, 11022.0, 97.0),
        [np.nextafter(10.0, 0.0), 10.0, np.nextafter(10.0, 11.0), 1.4616321449683623, 1.0, 2.0],
    ]
)


def _mpmath_values(function, x):
    with mpmath.workdps(40):
        return np.array([float(function(mpmath.mpf(float(v)))) for v in x])


class TestSpecialFunctions:
    def test_psi(self):
        want = _mpmath_values(mpmath.digamma, SPECIAL_ARGS)
        # absolute where psi crosses zero: the lift subtracts sums of ~3
        psi = _psi_trigamma(SPECIAL_ARGS)[0]
        assert np.all(np.abs(psi - want) <= 8 * EPS * np.maximum(1.0, np.abs(want)))

    def test_trigamma(self):
        want = _mpmath_values(lambda v: mpmath.psi(1, v), SPECIAL_ARGS)
        assert np.all(np.abs(_psi_trigamma(SPECIAL_ARGS)[1] - want) <= 4 * EPS * want)
