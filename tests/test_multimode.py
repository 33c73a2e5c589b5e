"""The exact flat-band solver against dense diagonalization, DOP853 and the
bisection solver it replaced."""

import tracemalloc
from math import pi, sqrt

import numpy as np
import pytest

from atomfield import jcp, multimode, numerics
from atomfield.numerics import _GUARD_RTOL
import exact
from oracles import integrate_atom_modes


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


def _mirrored(x, w):
    """The whole spectrum from the upper half `_flat_band_spectrum` returns:
    the roots below 0 are the negatives of those above, with the same weights."""
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


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
    a, _ = multimode._flat_band_evolution(gamma, band_width, spacing, times)
    want = _population(*_arrowhead_eigh(detunings, couplings), times)
    assert np.max(np.abs(np.abs(a) ** 2 - want)) <= 1e-13


# at spacing 2, the coupling 2 sqrt(n / (20 pi)) of ratio n / (20 pi): the
# strongest that a band `_flat_band` builds (at least 20 Gamma wide) has
_EDGE = [pytest.param(n, 2.0 * sqrt(n / (20.0 * pi)), id=f"{n}-edge") for n in (1, 20)]


@pytest.mark.parametrize("half, coupling", _EDGE)
def test_smallest_bands_match_dense_eigh(half, coupling):
    # three modes, the smallest band `_flat_band` builds, and 41, each at the
    # edge of the solver's domain, where the coupling pushes the outer roots
    # furthest out
    spacing = 2.0
    x, w = _mirrored(*multimode._flat_band_spectrum(half, (coupling / spacing) ** 2))
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
    a, _ = multimode._flat_band_evolution(1.0, 800.0, pi, times)
    ode = integrate_atom_modes(detunings, couplings, times)
    assert np.max(np.abs(np.abs(a) ** 2 - ode.excited_population)) <= 1e-8
    # the amplitude too, phase included (interaction picture, a_e(0) = 1)
    assert np.max(np.abs(a - ode.excited_amplitude)) <= 1e-8


# `_flat_band` accepts a band _BAND_MIN (1 - _GUARD_RTOL) = 20 (1 - _GUARD_RTOL)
# Gamma wide.  At the spacing band_width / (2 n), 1120 of the n < 20 000 (the
# first at n = 25) have a ratio above n / (20 pi) (1 + _GUARD_RTOL), by up to
# 1.00053 _GUARD_RTOL (at n = 18042), so a solver slack of one _GUARD_RTOL
# would refuse them.
_GUARD_WIDTH = multimode._BAND_MIN * (1.0 - _GUARD_RTOL)


def test_guard_width_is_the_band_edge():
    # so the n = 25 and n = 18042 cases below stay on the edge if the rule moves
    assert multimode._band_ok(_GUARD_WIDTH)
    assert not multimode._band_ok(np.nextafter(_GUARD_WIDTH, 0.0))


@pytest.mark.parametrize(
    "gamma, band_width, spacing",
    SMALL_BANDS
    + [(1.0, 800.0, pi), (1.0, 40.0, 0.01)]
    + [(1.0, _GUARD_WIDTH, _GUARD_WIDTH / (2.0 * n)) for n in (25, 18042)],
)
def test_weights_are_unitary(gamma, band_width, spacing):
    a, norm = multimode._flat_band_evolution(gamma, band_width, spacing, np.linspace(0.0, 1.0, 3))
    # one norm for every time, and a real amplitude: the spectrum is mirrored
    assert type(norm) is float and a.dtype == np.float64
    assert abs(norm - 1.0) <= 1e-14


def _band_terms(half, ratio):
    """Weights and frequencies of the 1 to 8193 upper-half modes of a flat
    band at unit spacing.  A band outside the solver's domain, such as one
    mode (half = 0, the Jaynes-Cummings pair of roots +-sqrt(ratio)), comes
    from dense eigh."""
    if ratio > half / (20.0 * pi):
        lam, w = _arrowhead_eigh(np.arange(-half, half + 1.0), np.full(2 * half + 1, sqrt(ratio)))
        return 2.0 * w[lam > 0], lam[lam > 0]
    x, w = multimode._flat_band_spectrum(half, ratio)
    return 2.0 * w, x


def _jcp_terms(mean_n):
    """Weights and Rabi frequencies of the Poisson window that `jcp.inversion`
    sums for a resonant coherent field."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jcp, "_cos_sum", lambda w, f, t: seen.append((w, f)) or 0.0 * t)
        field = jcp.FieldDistribution.coherent(mean_n)
        jcp.inversion(jcp.JcpParams(detuning=0.0, field=field), [0.0])
    return seen[0]


# Over three echo periods 2 pi of each band: 16 and 64 samples fill a 4 x 4 and
# an 8 x 8 block, 65 fills 8 rows of 9, 3, 5, 17, 63, 401, 601 and 2000 end on
# a partial row or fill one of 45 x 45, 1 and 2 fill one row.  The band
# (1000, 1 / (0.04 pi)) is `free-decay`'s default (40 Gamma at spacing
# Gamma / 50) to Gamma t = 1000; (2000, 15.9) reaches Gamma t = 2000.  The
# jcp window at <n> = 1e4 (1715 rows) runs over 3 revival times.
#
# A block holds floor(_TABLE_MAX / S) modes (728 at 2000 samples, 1310 at
# 601, 1560 at 401), so the band of 2001 modes at 401, 601 and 2000 samples,
# that of 1001 modes at 2000, and the <n> = 1e4 window (3 blocks) are summed
# in several blocks; every other case fits in one.  At 64 samples (S = 8) the
# block-edge cases put each table just below the cap, at it and one mode above
# it, where the last block holds a single mode, and at two blocks and a
# single mode.
_BLOCK = numerics._TABLE_MAX // 8
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
] + [
    pytest.param(
        _band_terms, (modes - 1, 0.0159), np.linspace(start, start + 20.0, 64),
        id=f"block-edge-{modes}-{start}",
    )
    for modes in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)
    for start in (0.0, 0.3)
] + [
    # no modes: one empty pass, whose sum is exactly zero (the bound is 0)
    pytest.param(
        lambda: (np.empty(0), np.empty(0)), (), np.linspace(0.0, 20.0, size), id=f"no-modes-{size}"
    )
    for size in (1, 65, 2000)
]


@pytest.mark.parametrize("terms, args, times", _COS_SUM_CASES)
def test_cos_sum_matches_the_dense_sum(terms, args, times):
    weights, frequencies = terms(*args)
    got = numerics._cos_sum(weights, frequencies, times)
    want = exact.dense_cos_sum(weights, frequencies, times)
    assert got.shape == times.shape
    assert np.max(np.abs(got - want)) <= exact.cos_sum_bound(weights, frequencies, times)


def _cos_sum_peak(weights, frequencies, times):
    """The `tracemalloc` peak of one `_cos_sum` call, in bytes."""
    tracemalloc.start()
    try:
        numerics._cos_sum(weights, frequencies, times)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cos_sum_memory_stops_at_the_table_cap():
    # the <n> = 1e6 window (17 149 rows) at 2000 samples: whole phase tables
    # took 27 MB; capped ones take four of 256 KiB, one block's at a time,
    # plus the doubling's temporaries (1.27 MB in all)
    weights, frequencies = _jcp_terms(1e6)
    times = np.linspace(0.0, 6.0 * pi * sqrt(1e6 + 1.0), 2000)
    assert frequencies.size == 17149
    assert _cos_sum_peak(weights, frequencies, times) <= 1.4e6


@pytest.mark.parametrize(
    "terms, args, times, bound",
    [
        # blocks of 728, 728 and 259 modes: the later blocks refill the first
        # block's buffers, where fresh tables beside the last ones took 1.80 MB
        (_jcp_terms, (1e4,), np.linspace(0.0, 6.0 * pi * sqrt(1e4 + 1.0), 2000), 1.4e6),
        # blocks of 1560 and 441 modes (1.25 MB, as with fresh tables)
        (_band_terms, (2000, 0.0159), np.linspace(0.0, 20.0, 401), 1.3e6),
    ],
    ids=["jcp-1e4-2000", "band-2001-401"],
)
def test_cos_sum_holds_one_blocks_tables(terms, args, times, bound):
    assert _cos_sum_peak(*terms(*args), times) <= bound


def test_uniform_grid_tolerance_is_a_few_ulps():
    # k h rounds each sample on its own; t_0 + k h with h = (t_end - t_0) / 50
    # meets it to an ulp or two
    got, _ = multimode._flat_band_evolution(1.0, 20.0, 0.05, 0.02 * np.arange(51.0))
    want, _ = multimode._flat_band_evolution(1.0, 20.0, 0.05, np.linspace(0.0, 1.0, 51))
    assert np.max(np.abs(got - want)) <= 1e-14
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
    "half, ratio", [(1, 1.0 / (20.0 * pi)), (20, 0.016), (128, 0.0507), (2000, 0.0159), (2000, 15.9)]
)
def test_roots_interlace_the_poles_and_are_symmetric(half, ratio):
    # the solver returns the upper half; the mirror symmetry of the whole is
    # checked against dense eigh and the bisection oracle
    x, w = _mirrored(*multimode._flat_band_spectrum(half, ratio))
    assert x.size == 2 * half + 2
    poles = np.arange(-half, half + 1.0)
    # one root below the band, one in each gap (k, k + 1), one above
    assert x[0] < poles[0] and x[-1] > poles[-1]
    assert np.all((poles[:-1] < x[1:-1]) & (x[1:-1] < poles[1:]))
    # the outer root n + d has d < 1, so it is solved as the root of gap n
    assert x[-1] < half + 1
    assert np.all(w > 0.0)


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
    "half, ratio",
    [
        (20, 0.016),
        (128, 0.0507),
        (2000, 0.0159),
        (2000, 15.9),
        # the narrowest `continuum-ode` band and an `echo-ode` one
        (214, 1.0 / (2.0 * pi * 0.048)),
        (48, 1.0 / (4.0 * pi**2)),
        *[pytest.param(n, n / (20.0 * pi), id=f"{n}-edge") for n in (1, 20, 2000)],
    ],
)
def test_newton_matches_bisection_in_few_steps(half, ratio, monkeypatch):
    passes = []
    psi_trigamma = multimode._psi_trigamma
    monkeypatch.setattr(multimode, "_psi_trigamma", lambda x: passes.append(1) or psi_trigamma(x))
    x, w = _mirrored(*multimode._flat_band_spectrum(half, ratio))
    want_x, want_w = _bisection_spectrum(half, ratio)
    assert np.all(np.abs(x - want_x) <= 1e-13 * np.maximum(1.0, np.abs(want_x)))
    # the bisection's gap weights lose ~eps / tau where tau is small (its
    # 1/2 - arctan cancels), which is far below 1e-13 of the weight sum
    assert np.max(np.abs(w - want_w)) <= 1e-13
    # the outer root, which the bisection solves by its direct sums; its
    # outer weight is accurate only absolutely (it resolves d to 2^-60 of
    # its bracket)
    assert abs(x[-1] - want_x[-1]) <= 4e-16 * want_x[-1]
    assert abs(w[-1] - want_w[-1]) <= 4e-16
    # one psi/psi' pass per Newton step on all the roots, the last of which
    # also gives the weights; a wrong slope would fall back to bisection,
    # still correct but 60 steps long.  From the analytic starts: 3, 2 and 2
    # passes at (20, 0.016), (128, 0.0507) and (2000, 0.0159) (4 each without
    # the two Newton steps on the log model; 14, 12 and 14 psi and psi'
    # passes from tau = 1/2 and d_lo), 3 at (2000, 15.9), at
    # (214, 1 / (2 pi 0.048)) and at the edges, 2 at (48, 1 / (4 pi^2))
    assert len(passes) <= 3


@pytest.mark.parametrize(
    "half, ratio, indices",
    [
        (1, 1.0 / (20.0 * pi), range(2)),
        (20, 0.016, range(21)),
        (20, 1.0 / pi, range(21)),
        (128, 0.0507, [0, 1, 126, 127, 128]),
        (214, 1.0 / (2.0 * pi * 0.048), [0, 1, 212, 213, 214]),
        # ulp(x) = 2.3e-13 at the edge of a band this wide: x rounded before
        # psi and psi' put its outer weight 15.7 eps off
        (2000, 2000.0 / (20.0 * pi), [1999, 2000]),
    ],
    ids=["1-edge", "20-0.016", "20-edge", "128-0.0507", "214-continuum-ode", "2000-edge"],
)
def test_spectrum_matches_the_exact_roots_and_weights(half, ratio, indices):
    # every root to 2 eps relative and every weight to 8 eps; the largest
    # measured are 1.46 eps (root 0 of the 214 band, where R = 0.14 carries
    # the rounding of two psi of about 5.4) and 2.81 eps
    x, w = multimode._flat_band_spectrum(half, ratio)
    want_x, want_w = exact.flat_band_spectrum(half, ratio, x, indices)
    eps = np.finfo(float).eps
    assert np.all(np.abs(x[indices] - want_x) <= 2.0 * eps * want_x)
    assert np.all(np.abs(w[indices] - want_w) <= 8.0 * eps * want_w)


def test_pass_cap_takes_one_more_pass_for_the_weights(monkeypatch):
    # the band (20, 0.016) stops in its third pass; capped at one, the loop
    # runs out and takes one more psi' pass at the last roots for the weights
    passes = []
    psi_trigamma = multimode._psi_trigamma
    monkeypatch.setattr(multimode, "_psi_trigamma", lambda x: passes.append(1) or psi_trigamma(x))
    monkeypatch.setattr(multimode, "_BISECTIONS", 1)
    half, ratio = 20, 0.016
    x, w = multimode._flat_band_spectrum(half, ratio)
    assert len(passes) == 2
    # root 0 only: there x = tau exactly, while k + tau for k >= 1 is rounded
    # to ulp(x), which moves the formula by up to 1e5 eps.  Weights from the
    # capped pass's psi' instead would be 35.8 eps off
    trigamma = exact.polygamma(1, [half + 1 - x[0], half + 1 + x[0]])
    want = 1.0 / (1.0 + ratio * (pi**2 / np.sin(pi * x[0]) ** 2 - trigamma[0] - trigamma[1]))
    assert abs(w[0] - want) <= 8.0 * np.finfo(float).eps * want


@pytest.mark.parametrize(
    "half, ratio",
    [
        (0, 0.1225), (1, 100.0), (20, 225.0), (3, 1e4), (5, 100.0), (5000, 562.0), (1, 0.5), (1, 0.1225),
        # A = n / ratio - H_2n > 0, but gap n's weight cancels (10.7 eps off
        # in 9 psi passes at the first)
        (5, 0.999 * 5.0 / sum(1.0 / np.arange(1, 11))),
        (3, 0.9999 * 3.0 / sum(1.0 / np.arange(1, 7))),
    ],
)
def test_band_outside_the_domain_is_refused(half, ratio):
    # ratio > n / (20 pi), a coupling stronger than any band at least 20 Gamma
    # wide has; n = 0, a single mode, too
    with pytest.raises(ValueError, match="outside the solver's domain"):
        multimode._flat_band_spectrum(half, ratio)
