"""Oracle and property tests for the numerical primitives."""

import re
from math import copysign, cos, exp, inf, log, nan, pi, sin, sqrt

import numpy as np
import pytest

from atomfield.numerics import (
    QuadratureError,
    _psi_trigamma,
    _qagse,
    integrate_1d,
    stable_binomial_series,
)
from atomfield.parabolic_mirror import _THETA_ABS_TOL, _THETA_REL_TOL, _theta_limit
import exact
from oracles import integrate_2d

EPS = float(np.finfo(float).eps)


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

    def test_damped_error_against_exact_rational_sum(self):
        # e^(-u/2) S_M(u) is the term the sphere's echo series adds; near a
        # zero of L^(1)_{M-1} the relative error of the recurrence can reach 5e-13
        rng = np.random.default_rng(7)
        pairs = [(M, u) for M in (1, 2, 50, 100) for u in (0.0, 5e-324)]
        for scale in (1.0, 1e-3, 1e-9):
            M = rng.integers(1, 101, size=200)
            u = rng.uniform(0.0, 200.0, size=200) * scale
            pairs += list(zip(M.tolist(), u.tolist()))
        rng = np.random.default_rng(42)
        pairs += [(int(rng.integers(1, 101)), float(rng.uniform(0.0, 200.0))) for _ in range(60)]
        # individual terms ~ u^r / r! dwarf the result at (30, 25); the last
        # four are S_M(u) = -(u / M) L^(1)_{M-1}(u) at small M
        cancellation, laguerre = [(30, 25.0)], [(1, 0.3), (4, 2.0), (12, 7.5), (25, 18.0)]
        pairs += cancellation + laguerre
        assert len(pairs) == 673
        for M, u in pairs:
            got, want = stable_binomial_series(M, u), exact.binomial_series(M, u)
            assert exp(-u / 2.0) * abs(got - want) <= 8 * EPS, (M, u)
            # a numpy scalar argument gives the same bits as the Python float
            assert stable_binomial_series(M, np.float64(u)).hex() == got.hex(), (M, u)
            if (M, u) in cancellation:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            if (M, u) in laguerre:
                assert got == pytest.approx(want, rel=1e-10, abs=0.0)
        for M in (1, 2, 50, 100):
            assert stable_binomial_series(M, 0.0) == 0.0
            # u multiplies before the division by M: no flush to zero
            assert stable_binomial_series(M, 5e-324) == -5e-324

    def test_overflow_is_reported(self):
        with pytest.raises(OverflowError, match="not representable in double precision"):
            stable_binomial_series(2, 1e300)

    def test_zero_argument(self):
        assert stable_binomial_series(5, 0.0) == 0.0

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            stable_binomial_series(0, 1.0)
        with pytest.raises(ValueError):
            stable_binomial_series(3, -1.0)
        with pytest.raises(ValueError):
            stable_binomial_series(3, np.inf)


def _probe_case(b: float):
    """eta_quadrature's on-axis integrand at b = 2 k z, with its tolerances
    and budget."""
    return (
        lambda theta: sin(theta) ** 3 * cos(b * cos(theta)),
        (0.0, pi),
        _THETA_REL_TOL,
        _THETA_ABS_TOL,
        _theta_limit(b / 2.0),
    )


# (integrand, interval, rel_tol, abs_tol, limit): the parabola-eta probe
# (b = 4 pi is the golden's), the other TestQuadrature integrands, end-point
# singularities where the epsilon extrapolation decides, budget-limited
# failures, a reported failure within the tolerance and a reversed interval
QUAD_CASES = {
    **{f"probe-{b:.4g}": _probe_case(b) for b in (4.0 * pi, 0.5, 7.7, 22.3, 47.3, 92.2, 100.0)},
    "square": (lambda x: x * x, (0.0, 1.0), 1e-10, 1e-12, 200),
    "kink-limit-3": (lambda x: abs(x - 0.3), (0.0, 1.0), 1e-10, 1e-12, 3),
    "kink-limit-10": (lambda x: abs(x - 0.3), (0.0, 1.0), 1e-10, 1e-12, 10),
    "oscillatory": (
        lambda t: np.sin(t) ** 3 * np.cos(100.0 * np.cos(t)),
        (0.0, pi),
        1e-10,
        1e-12,
        1000,
    ),
    "sin-1/x-limit-3": (lambda x: np.sin(1.0 / x), (1e-6, 1.0), 1e-13, 1e-15, 3),
    "sin-1/x-limit-200": (lambda x: np.sin(1.0 / x), (1e-6, 1.0), 1e-13, 1e-15, 200),
    "separable-inner": (lambda x: np.sin(x) * 2.0, (0.0, pi), 1e-11, 1e-13, 200),
    "sqrt-log": (lambda x: sqrt(x) * log(x), (0.0, 1.0), 1e-10, 1e-13, 200),
    "inverse-sqrt": (lambda x: 1.0 / sqrt(x), (0.0, 1.0), 1e-10, 1e-13, 200),
    "log": (log, (0.0, 1.0), 1e-10, 1e-13, 200),
    "power-0.9": (lambda x: x**-0.9, (0.0, 1.0), 1e-10, 1e-13, 200),
    # QAGS reports divergence (ier = 5) with an error inside the tolerance
    "odd-singularity": (
        lambda x: copysign(abs(x) ** -0.5, x) if x else 0.0,
        (-1.0, 2.0),
        1e-10,
        1e-13,
        200,
    ),
    "reversed": (lambda x: exp(-x) * cos(30.0 * x), (2.0, -1.0), 1e-10, 1e-13, 200),
}


class TestQuadrature:
    @pytest.mark.parametrize("case", QUAD_CASES)
    def test_matches_scipy_quad(self, case):
        """scipy.integrate.quad is the reference implementation: on this build
        the port `_qagse` gives its value, error and subinterval count bit for
        bit, failures included, and calls the integrand as often (neval =
        42 last - 21); integrate_1d returns quad's result, and raises
        QuadratureError exactly when quad reports a failure (ier != 0) with
        an error above max(abs_tol, rel_tol |value|)."""
        from scipy.integrate import quad

        f, (a, b), rel_tol, abs_tol, limit = QUAD_CASES[case]
        out = quad(f, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=limit, full_output=True)
        want, info = out[:2], out[2]
        failed = len(out) > 3 and out[1] > max(abs_tol, rel_tol * abs(out[0]))
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        value, error, _, last = _qagse(counted, min(a, b), max(a, b), abs_tol, rel_tol, limit)
        # quad integrates a reversed interval forwards and negates the value
        value = -value if b < a else value
        assert (float(value), float(error), last) == (*want, info["last"])
        assert len(calls) == info["neval"] == 42 * last - 21
        if failed:
            with pytest.raises(QuadratureError):
                integrate_1d(f, (a, b), rel_tol, abs_tol, limit)
        else:
            assert integrate_1d(f, (a, b), rel_tol, abs_tol, limit) == want

    @pytest.mark.parametrize("interval", [(0.0, inf), (-inf, 1.0), (0.0, nan)])
    def test_infinite_interval_raises(self, interval):
        # QAGS only: no QAGI transformation of an infinite range
        with pytest.raises(ValueError, match="finite"):
            integrate_1d(lambda x: exp(-x), interval, 1e-10, 1e-12, 200)

    @pytest.mark.parametrize("f", [lambda x: nan, lambda x: nan if x > 0.9 else 1.0])
    def test_nan_integrand_raises(self, f):
        # max(abs_tol, rel_tol * nan) is abs_tol and nan > tol is False, so
        # only the finiteness test catches a NaN estimate
        with pytest.raises(QuadratureError):
            integrate_1d(f, (0.0, 1.0), 1e-10, 1e-12, 200)

    def test_polynomial_exact(self):
        value, err = integrate_1d(lambda x: x * x, (0.0, 1.0), 1e-10, 1e-12, 200)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert err < 1e-10

    def test_subdivision_budget_is_honoured(self):
        # the kink at 0.3 needs more than 3 subintervals and fewer than 10
        def kinked(x):
            return abs(x - 0.3)

        with pytest.raises(QuadratureError):
            integrate_1d(kinked, (0.0, 1.0), 1e-10, 1e-12, 3)
        value, _ = integrate_1d(kinked, (0.0, 1.0), 1e-10, 1e-12, 10)
        assert value == pytest.approx(0.5 * 0.3**2 + 0.5 * 0.7**2, rel=1e-12, abs=0.0)

    def test_oscillatory(self):
        a = 100.0
        value, _ = integrate_1d(
            lambda t: np.sin(t) ** 3 * np.cos(a * np.cos(t)),
            (0.0, pi),
            1e-10,
            1e-12,
            1000,
        )
        # exact: 4 (sin a - a cos a) / a^3
        want = 4.0 * (np.sin(a) - a * np.cos(a)) / a**3
        assert value == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_nonconvergence_carries_estimate(self):
        with pytest.raises(QuadratureError) as info:
            integrate_1d(lambda x: np.sin(1.0 / x), (1e-6, 1.0), 1e-13, 1e-15, 3)
        # the message quotes a finite value and a positive achieved error
        match = re.fullmatch(
            r"quadrature did not converge: value (\S+), achieved (\S+), tol (\S+)",
            str(info.value),
        )
        assert match, str(info.value)
        value, achieved, tol = (float(g) for g in match.groups())
        assert np.isfinite(value) and achieved > tol > 0

    def test_2d_separable(self):
        value, err = integrate_2d(
            lambda x, y: np.sin(x) * y, ((0.0, pi), (0.0, 2.0)), 1e-10, 1e-12, 200
        )
        assert value == pytest.approx(4.0, rel=1e-10, abs=0.0)
        assert err < 1e-6

    def test_tolerance_and_limit_validation(self):
        # checked before the integrand is called; negated, so a NaN fails too
        calls = []
        for rel_tol, abs_tol, limit in [
            (0.0, 1e-12, 200),
            (1e-10, 0.0, 200),
            (nan, 1e-12, 200),
            (1e-10, nan, 200),
            (1e-10, 1e-12, 0),
            (1e-10, 1e-12, nan),
            (1e-10, 1e-12, 2.5),
        ]:
            with pytest.raises(ValueError, match="tolerances must be positive|limit must be an integer"):
                integrate_1d(calls.append, (0.0, 1.0), rel_tol, abs_tol, limit)
        assert calls == []


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


class TestSpecialFunctions:
    def test_psi(self):
        want = exact.polygamma(0, SPECIAL_ARGS)
        # absolute where psi crosses zero: the lift subtracts sums of ~3
        psi = _psi_trigamma(SPECIAL_ARGS)[0]
        assert np.all(np.abs(psi - want) <= 8 * EPS * np.maximum(1.0, np.abs(want)))

    def test_trigamma(self):
        want = exact.polygamma(1, SPECIAL_ARGS)
        assert np.all(np.abs(_psi_trigamma(SPECIAL_ARGS)[1] - want) <= 4 * EPS * want)

    def test_below_one(self):
        # the flat band's gap n takes psi and psi' at 1 - tau in (0, 1), where
        # psi < -gamma stays away from its zero
        x = np.geomspace(1e-3, 1.0, 300)
        psi, trigamma = _psi_trigamma(x)
        want = exact.polygamma(0, x)
        assert np.all(np.abs(psi - want) <= 8 * EPS * np.abs(want))
        want = exact.polygamma(1, x)
        assert np.all(np.abs(trigamma - want) <= 4 * EPS * want)
