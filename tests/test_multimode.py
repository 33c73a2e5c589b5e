"""The exact flat-band solver against dense diagonalization, DOP853 and the
bisection solver it replaced."""

from math import pi, sqrt

import numpy as np
import pytest

from atomfield import jcp, multimode, numerics


def _arrowhead_eigh(detunings, couplings):
    """Eigenvalues and weights |<e|j>|^2 of [[0, g^T], [g, diag(delta)]], dense."""
    n = detunings.size
    h = np.zeros((n + 1, n + 1))
    h[0, 1:] = h[1:, 0] = couplings
    h[1:, 1:] = np.diag(detunings)
    lam, vectors = np.linalg.eigh(h)
    return lam, vectors[0] ** 2


def _population(lam, weights, times):
    return np.abs(np.exp(-1j * np.outer(times, lam)) @ weights) ** 2


# (Gamma, band width, spacing): 21, 59, 15, 51 and 15 modes
SMALL_BANDS = [
    (1.0, 20.0, 1.0),
    (1.0, 20.0, 0.35),
    (1.0, 40.0, pi),
    (2.5, 60.0, 1.2),
    (1.0, 400.0, 10 * pi),
]


@pytest.mark.parametrize("gamma, band_width, spacing", SMALL_BANDS)
def test_matches_dense_eigh(gamma, band_width, spacing):
    times = np.linspace(0.0, 20.0, 401)
    detunings, couplings = multimode._flat_band(gamma, band_width, spacing)
    assert detunings.size <= 60
    trace = multimode._flat_band_evolution(gamma, band_width, spacing, times)
    want = _population(*_arrowhead_eigh(detunings, couplings), times)
    assert np.max(np.abs(trace.excited_population - want)) <= 1e-13


@pytest.mark.parametrize("half, coupling", [(0, 0.7), (1, 0.7), (1, 20.0), (20, 30.0)])
def test_smallest_bands_match_dense_eigh(half, coupling):
    # one mode (the Jaynes-Cummings pair, roots +-|g|) and three modes, the
    # smallest band `_flat_band` builds; a coupling far above the spacing
    # pushes the outer roots out beyond sqrt(ratio) spacings
    spacing = 2.0
    x, w = multimode._flat_band_spectrum(half, (coupling / spacing) ** 2)
    detunings = spacing * np.arange(-half, half + 1.0)
    lam, weights = _arrowhead_eigh(detunings, np.full(detunings.size, coupling))
    # dense eigh is accurate to a few eps times the spectral radius
    assert spacing * x == pytest.approx(lam, rel=0.0, abs=2e-15 * max(1.0, np.max(np.abs(lam))))
    assert w == pytest.approx(weights, rel=1e-14, abs=1e-15)
    # phases up to 100 rad, so that eigh's eps * |lambda| error stays small
    times = np.linspace(0.0, 100.0 / np.max(np.abs(lam)), 301)
    got = _population(spacing * x, w, times)
    assert np.max(np.abs(got - _population(lam, weights, times))) <= 1e-13


def test_matches_dop853_at_criterion_5_size():
    # Gamma R = 1, band 800: 257 modes at spacing pi
    times = np.linspace(0.0, 6.0, 601)
    detunings, couplings = multimode._flat_band(1.0, 800.0, pi)
    assert detunings.size == 257
    trace = multimode._flat_band_evolution(1.0, 800.0, pi, times)
    ode = multimode.integrate_atom_modes(detunings, couplings, times)
    assert np.max(np.abs(trace.excited_population - ode.excited_population)) <= 1e-8
    # the amplitude too, phase included (interaction picture, a_e(0) = 1)
    assert np.max(np.abs(trace.excited_amplitude - ode.excited_amplitude)) <= 1e-8


@pytest.mark.parametrize(
    "gamma, band_width, spacing", SMALL_BANDS + [(1.0, 800.0, pi), (1.0, 40.0, 0.01)]
)
def test_weights_are_unitary(gamma, band_width, spacing):
    trace = multimode._flat_band_evolution(gamma, band_width, spacing, np.linspace(0.0, 1.0, 3))
    assert np.all(np.abs(trace.norm - 1.0) <= 1e-14)
    assert trace.norm == pytest.approx(trace.norm[0], rel=0.0, abs=0.0)


def _band_terms(half, ratio):
    """Weights and frequencies of the 1 to 2001 upper-half modes of a flat
    band at unit spacing."""
    x, w = multimode._flat_band_spectrum(half, ratio)
    return 2.0 * w[x.size // 2 :], x[x.size // 2 :]


def _jcp_terms(mean_n):
    """Weights and Rabi frequencies of the Poisson window that `jcp.inversion`
    sums for a resonant coherent field."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jcp, "_cos_sum", lambda w, f, t: seen.append((w, f)) or 0.0 * t)
        jcp.inversion(jcp.JcpParams(field=jcp.FieldDistribution.coherent(mean_n)), [0.0])
    return seen[0]


# Over three echo periods 2 pi of each band: 16 and 64 samples fill a 4 x 4 and
# an 8 x 8 block, 65 fills 8 rows of 9, 3, 5, 17, 63, 401, 601 and 2000 end on
# a partial row or fill one of 45 x 45, 1 and 2 fill one row.  The band
# (1000, 1 / (0.04 pi)) is `free-decay`'s default (40 Gamma at spacing
# Gamma / 50) to Gamma t = 1000; (2000, 15.9) reaches Gamma t = 2000.  The
# jcp window at <n> = 1e4 (1715 rows) runs over 3 revival times.
_COS_SUM_CASES = [
    pytest.param(
        _band_terms, (half, ratio), np.linspace(start, start + 20.0, size),
        id=f"{half}-{ratio}-{start}-{size}",
    )
    for half, ratio in [
        (0, 0.5), (1, 0.5), (20, 0.016), (128, 0.0507), (2000, 0.0159), (2000, 15.9),
        (1000, 1.0 / (0.04 * pi)),
    ]
    for start in (0.0, 0.3)
    for size in (1, 2, 3, 5, 16, 17, 63, 64, 65, 401, 601, 2000)
] + [
    pytest.param(
        _jcp_terms, (1e4,), np.linspace(0.0, 6.0 * pi * sqrt(1e4 + 1.0), 2000),
        id="jcp-1e4-2000",
    )
]


@pytest.mark.parametrize("terms, args, times", _COS_SUM_CASES)
def test_cos_sum_matches_the_dense_sum(terms, args, times):
    weights, frequencies = terms(*args)
    got = numerics._cos_sum(weights, frequencies, times)
    ld = np.longdouble
    want = np.cos(np.multiply.outer(times.astype(ld), frequencies.astype(ld))) @ weights.astype(ld)
    # a few eps of the weight sum from the products, plus the anchored grid's
    # phase rounding: t_k is met to an ulp of max |t|, which moves the phase
    # of mode j by frequencies_j times that.  The 1e-14 (45 eps) also holds the
    # 2 log2(T) eps (22 eps at T = 2000) of a table filled by doubling.
    eps = np.finfo(float).eps
    bound = 1e-14 * np.sum(weights) + eps * np.max(np.abs(times)) * np.sum(weights * frequencies)
    assert got.shape == times.shape
    assert np.max(np.abs(got - want)) <= bound


def test_uniform_grid_tolerance_is_a_few_ulps():
    # k h rounds each sample on its own; t_0 + k h with h = (t_end - t_0) / 50
    # meets it to an ulp or two
    trace = multimode._flat_band_evolution(1.0, 20.0, 0.05, 0.02 * np.arange(51.0))
    want = multimode._flat_band_evolution(1.0, 20.0, 0.05, np.linspace(0.0, 1.0, 51))
    assert np.max(np.abs(trace.excited_amplitude - want.excited_amplitude)) <= 1e-14
    times = np.linspace(0.0, 1.0, 51)
    times[7] += 64 * np.spacing(1.0)
    with pytest.raises(ValueError, match="uniform"):
        multimode._flat_band_evolution(1.0, 20.0, 0.05, times)


def test_time_by_eigenvalue_matrix_too_large_raises_memory_error():
    # a zero-stride view: 1e14 times x 401 eigenvalues is 4e16 elements,
    # which numpy refuses at once
    times = np.broadcast_to(0.0, (10**14,))
    with pytest.raises(MemoryError):
        multimode._flat_band_evolution(1.0, 20.0, 0.05, times)


@pytest.mark.parametrize(
    "half, ratio", [(1, 0.5), (20, 0.016), (128, 0.0507), (2000, 0.0159), (2000, 15.9)]
)
def test_roots_interlace_the_poles_and_are_symmetric(half, ratio):
    x, w = multimode._flat_band_spectrum(half, ratio)
    assert x.size == 2 * half + 2
    poles = np.arange(-half, half + 1.0)
    # one root below the band, one in each gap (k, k + 1), one above
    assert x[0] < poles[0] and x[-1] > poles[-1]
    assert np.all((poles[:-1] < x[1:-1]) & (x[1:-1] < poles[1:]))
    assert np.all(w > 0.0)
    # only the upper half is solved; the lower one is its exact mirror image
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])


def _bisection_spectrum(n, ratio):
    """The flat-band spectrum by 60 bisections of each root, with
    scipy.special's psi and trigamma: the solver `_flat_band_spectrum`
    replaced, kept as its oracle."""
    from scipy.special import polygamma, psi

    k = np.arange(-n, n, dtype=float)
    lo, hi = np.zeros(k.size), np.ones(k.size)
    for _ in range(60):
        tau = 0.5 * (lo + hi)
        x = k + tau
        r = x / ratio + psi(n + 1 - x) - psi(n + 1 + x)
        above = 0.5 - np.arctan(r / pi) / pi > tau
        lo = np.where(above, tau, lo)
        hi = np.where(above, hi, tau)
    tau = 0.5 * (lo + hi)
    x = k + tau
    inner = pi**2 / np.sin(pi * tau) ** 2 - polygamma(1, n + 1 - x) - polygamma(1, n + 1 + x)
    w = 1.0 / (1.0 + ratio * inner)
    j = np.arange(2 * n + 1, dtype=float)
    d_lo, d_hi = 0.0, sqrt((2 * n + 1) * ratio)
    for _ in range(60):
        d = 0.5 * (d_lo + d_hi)
        if (n + d) / ratio < np.sum(1.0 / (d + j)):
            d_lo = d
        else:
            d_hi = d
    d = 0.5 * (d_lo + d_hi)
    w_out = 1.0 / (1.0 + ratio * np.sum(1.0 / (d + j) ** 2))
    return np.concatenate(([-n - d], x, [n + d])), np.concatenate(([w_out], w, [w_out]))


@pytest.mark.parametrize(
    "half, ratio", [(1, 0.5), (20, 0.016), (128, 0.0507), (2000, 0.0159), (2000, 15.9)]
)
def test_newton_matches_bisection_in_few_steps(half, ratio, monkeypatch):
    psi_calls = []
    psi = multimode._psi
    monkeypatch.setattr(multimode, "_psi", lambda x: psi_calls.append(1) or psi(x))
    x, w = multimode._flat_band_spectrum(half, ratio)
    want_x, want_w = _bisection_spectrum(half, ratio)
    assert np.all(np.abs(x - want_x) <= 1e-13 * np.maximum(1.0, np.abs(want_x)))
    # the bisection's gap weights lose ~eps / tau where tau is small (its
    # 1/2 - arctan cancels), which is far below 1e-13 of the weight sum
    assert np.max(np.abs(w - want_w)) <= 1e-13
    # one psi call per Newton step on the gap roots; a wrong slope would fall
    # back to bisection, still correct but 60 steps long
    assert len(psi_calls) <= 10
