"""Exact references for the closed forms, one function per quantity.

Each function evaluates its quantity from its definition, by a route
independent of the library's: in exact integers, or in mpmath at the
working precision its docstring states, rounded once at the end; only the
dense cosine sum is taken in long double.  The tests of the library, and
`test_exact_goldens.py` for the golden CSVs, check against these.  This is
the one test module that imports mpmath (`test_approx_tolerances.py`
checks that), and it does so on first use through `pytest.importorskip`,
so a test that needs no mpmath runs without it.  The DOP853 and iterated
quadrature oracles of `oracles.py` are solver routes, not exact
references, and stay there.
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np
import pytest

EPS = float(np.finfo(float).eps)


def _mpmath():
    return pytest.importorskip("mpmath")


def _binomial_ratio(M: int, u) -> tuple[int, int]:
    """S_M(u) as an exact integer ratio (numerator, denominator)."""
    p, q = u.as_integer_ratio()
    # (1 + r)! divides M! and q^(1 + r) divides q^M: one common denominator
    f = factorial(M)
    num = sum(
        comb(M - 1, r) * (f // factorial(1 + r)) * (-p) ** (1 + r) * q ** (M - 1 - r)
        for r in range(M)
    )
    return num, f * q**M


def binomial_series(M: int, u: float) -> float:
    """S_M(u) = sum_{r=0}^{M-1} C(M-1, r) (-u)^(1+r) / (1+r)!, the bracket of
    echo M of the sphere's series, from this binomial definition (not the
    Laguerre recurrence the library runs).  A double u is the exact ratio
    p / q with q a power of two, so the sum is an integer over M! q^M; Python
    divides two integers correctly rounded, so the result is the exact S_M
    rounded once."""
    num, den = _binomial_ratio(M, u)
    return num / den


def sphere_excited_probability(radius: float, t) -> np.ndarray:
    """P_e(t) = a(t)^2 of the atom at the centre of the sphere, Gamma = 1.

    With x = e^(-2sR) the flat ladder's self-energy (Gamma/2) coth(sR) gives
    a(s) = (1 - x) / ((s + Gamma/2) - x (s - Gamma/2)), whose powers of x are
    the Laplace pairs of e^(-Gamma t/2) L_M(Gamma t): a(t) = e^(-t/2)
    + sum_{M >= 1, u >= 0} e^(-u/2) S_M(u), u = t - 2MR.  u is rounded as
    double arithmetic rounds t - M (2R); each S_M is `binomial_series`'
    exact ratio, and the sum and its square are taken at 40 digits, each
    sample rounded once."""
    mp = _mpmath()
    rt, out = 2.0 * radius, []
    with mp.workdps(40):
        for tk in np.asarray(t, dtype=float).tolist():
            a, m = mp.exp(-mp.mpf(tk) / 2), 1
            while tk >= m * rt:
                u = tk - m * rt
                num, den = _binomial_ratio(m, u)
                a += mp.exp(-mp.mpf(u) / 2) * mp.mpf(num) / den
                m += 1
            out.append(float(a * a))
    return np.array(out)


def poisson_weights(mean: float, n) -> np.ndarray:
    """e^(-<n>) <n>^n / n! at each photon number of `n`, at 50 digits, each
    rounded to long double through a 30-digit decimal string."""
    mp = _mpmath()
    with mp.workdps(50):
        m = mp.mpf(mean)
        return np.array(
            [np.longdouble(mp.nstr(mp.exp(-m) * m**k / mp.factorial(k), 30)) for k in np.asarray(n).tolist()]
        )


def poisson_tails(mean: float, n_min: int, n_max: int) -> tuple[float, float]:
    """P(N < n_min) and P(N > n_max) of N Poisson with mean <n>, at 50 digits:
    P(N < k) = Q(k, <n>) and P(N > k) = P(k + 1, <n>), the regularized upper
    and lower incomplete gamma functions."""
    mp = _mpmath()
    with mp.workdps(50):
        below = mp.gammainc(n_min, mean, mp.inf, regularized=True) if n_min else 0
        return float(below), float(mp.gammainc(n_max + 1, 0, mean, regularized=True))


def poisson_chernoff_exponents(mean: float) -> tuple[float, float]:
    """The exponents of the Chernoff bounds on a Poisson N of mean m at
    x = 10 sqrt(m) + 20 from it, at 40 digits: P(N >= m + x) <= exp(-m h(x/m)),
    h(u) = (1 + u) ln(1 + u) - u, and P(N <= m - x) <= exp(-x^2 / 2m)."""
    mp = _mpmath()
    with mp.workdps(40):
        m = mp.mpf(mean)
        x = 10 * mp.sqrt(m) + 20
        u = x / m
        return float(m * ((1 + u) * mp.log1p(u) - u)), float(x**2 / (2 * m))


def jcp_inversion(detuning: float, p, n, t) -> np.ndarray:
    """w(t) = sum_n p_n (delta^2 + 4 (n + 1) cos(Omega_n t)) / Omega_n^2,
    Omega_n^2 = delta^2 + 4 (n + 1): the Rabi solution of each ladder pair
    (a_{e,n}, a_{g,n+1}) from an excited atom, weighted by the photon-number
    distribution p_n (g = 1), at 30 digits, each sample rounded once."""
    mp = _mpmath()
    with mp.workdps(30):
        d2 = mp.mpf(detuning) ** 2
        ladder = [(mp.mpf(float(pk)), d2 + 4 * (int(k) + 1)) for pk, k in zip(p, n)]
        return np.array(
            [
                float(mp.fsum(pk * (d2 + (o2 - d2) * mp.cos(mp.sqrt(o2) * tk)) / o2 for pk, o2 in ladder))
                for tk in map(mp.mpf, np.asarray(t, dtype=float).tolist())
            ]
        )


def on_axis_eta(a) -> np.ndarray:
    """The mirror's on-axis rate ratio at a = k z: eta(a) = 1 - (3/4)
    int_0^pi sin^3(theta) cos(2a cos(theta)) d theta (the on-axis integrand
    of `eta_quadrature`), in closed form 1 + 3 cos(2a) / (4 a^2)
    - 3 sin(2a) / (8 a^3), at 50 digits, each value rounded once; 0 at a = 0,
    its limit.  The terms cancel to (2/5) a^2, which costs about 2 log10(1/a)
    of the 50 digits, so a >= 1e-10 keeps 30."""
    mp = _mpmath()
    with mp.workdps(50):
        return np.array(
            [
                float(1 + 3 * mp.cos(2 * x) / (4 * x**2) - 3 * mp.sin(2 * x) / (8 * x**3)) if x else 0.0
                for x in map(mp.mpf, np.asarray(a, dtype=float).tolist())
            ]
        )


def polygamma(m: int, x) -> np.ndarray:
    """psi^(m)(x), the m-th derivative of psi = Gamma' / Gamma (m = 0:
    digamma, 1: trigamma), by mpmath at 40 digits, each value rounded once."""
    mp = _mpmath()
    with mp.workdps(40):
        return np.array([float(mp.psi(m, mp.mpf(v))) for v in np.asarray(x, dtype=float).tolist()])


def flat_band_spectrum(n, ratio, x, indices):
    """Roots and weights of the secular equation x / ratio = sum_k 1 / (x - k),
    k = -n..n, at 40 digits: three mpmath Newton steps from each x[i], i in
    `indices`.  The secular function increases between its poles, so a root
    in (i, i + 1) is the only one there, and the outer root the only one
    above n."""
    mpmath = _mpmath()
    roots, weights = [], []
    with mpmath.workdps(40):
        r, poles = mpmath.mpf(ratio), [mpmath.mpf(k) for k in range(-n, n + 1)]
        for i in indices:
            root = mpmath.mpf(float(x[i]))
            for _ in range(3):
                value = root / r - mpmath.fsum(1 / (root - k) for k in poles)
                root -= value / (1 / r + mpmath.fsum(1 / (root - k) ** 2 for k in poles))
            assert i < root < i + 1
            assert abs(root / r - mpmath.fsum(1 / (root - k) for k in poles)) < 1e-30
            roots.append(float(root))
            weights.append(float(1 / (1 + r * mpmath.fsum(1 / (root - k) ** 2 for k in poles))))
    return np.array(roots), np.array(weights)


def dense_cos_sum(w, f, t) -> np.ndarray:
    """sum_j w_j cos(f_j t_k) at every t_k, each phase f_j t_k and its cosine
    taken on its own and the sum accumulated, all in long double.  float64
    inputs widen exactly and long-double inputs stay as they are.  The phase
    table is built 256 samples at a time (16 MB at 2001 modes, not 128 MB
    for 2000 samples at once); each sample's sum is the same either way."""
    t, f, w = (np.asarray(v, np.longdouble) for v in (t, f, w))
    return np.concatenate([np.cos(np.multiply.outer(t[i : i + 256], f)) @ w for i in range(0, t.size, 256)])


def cos_sum_bound(w, f, t) -> float:
    """The error bound of `numerics._cos_sum` against `dense_cos_sum`: a few
    eps of the weight sum from the products, plus the anchored grid's phase
    rounding: t_k is met to an ulp of max |t|, which moves the phase of mode
    j by f_j times that.  The 1e-14 (45 eps) also holds the 2 log2(T) eps
    (22 eps at T = 2000) of a table filled by doubling."""
    w, f = np.asarray(w), np.asarray(f)
    return float(1e-14 * np.sum(np.abs(w)) + EPS * np.max(np.abs(t)) * np.sum(np.abs(w * f)))


def _ray(mp, omega, gamma, t, sin_t, path, dist):
    """One ray family of the one-photon packet, from `free_space._packet`'s
    definition: -i sqrt(3 Gamma omega / 16 pi) e^{i omega sign(t) u}
    e^{-Gamma u / 2} sin(theta) / dist at u = |t| - path, 0 before the
    front u < 0; mpmath arguments, an mpmath complex result."""
    u = abs(t) - path
    if u < 0:
        return mp.mpc(0)
    envelope = mp.sqrt(3 * gamma * omega / (16 * mp.pi)) * mp.exp(-gamma * u / 2)
    return mp.mpc(0, -1) * envelope * mp.expj(omega * mp.sign(t) * u) * sin_t / dist


def _mpfs(mp, *columns):
    """Rows of mpmath numbers, exact from float columns."""
    return zip(*([mp.mpf(v) for v in np.asarray(c, dtype=float).tolist()] for c in columns))


def free_packet(omega: float, gamma: float, t: float, r, theta):
    """The free-space packet at points (r, theta) at 30 digits, each value
    rounded once: the amplitude (path and distance r, factor sin(theta))
    and the energy density 2 |A|^2."""
    mp = _mpmath()
    with mp.workdps(30):
        omega, gamma, t = mp.mpf(omega), mp.mpf(gamma), mp.mpf(t)
        amplitude = [_ray(mp, omega, gamma, t, mp.sin(th), rk, rk) for rk, th in _mpfs(mp, r, theta)]
        return np.array([complex(a) for a in amplitude]), np.array([float(2 * abs(a) ** 2) for a in amplitude])


def two_ray_packet(omega: float, gamma: float, f: float, t: float, z, rho):
    """The packet in the parabolic mirror of focal length f at points
    (z, rho) at 30 digits, each value rounded once: the direct ray (path
    and distance r1 = |(z - f, rho)| from the focus, factor rho / r1), the
    reflected one (path z + f, distance r2 = f + rho^2 / 4f, factor
    rho / r2), the electric energy density |s|^2 + |p|^2
    + 2 Re(s conj(p)) (z - f) / r1 and the flag eta = (r1 - (z - f)) / 2
    >= 0.95 f."""
    mp = _mpmath()
    with mp.workdps(30):
        omega, gamma, f, t = mp.mpf(omega), mp.mpf(gamma), mp.mpf(f), mp.mpf(t)
        rows = []
        for zk, rk in _mpfs(mp, z, rho):
            r1, r2 = mp.sqrt((zk - f) ** 2 + rk**2), f + rk**2 / (4 * f)
            s = _ray(mp, omega, gamma, t, rk / r1, r1, r1)
            p = _ray(mp, omega, gamma, t, rk / r2, zk + f, r2)
            density = abs(s) ** 2 + abs(p) ** 2 + 2 * (s * mp.conj(p)).real * (zk - f) / r1
            rows.append((complex(s), complex(p), float(density), (r1 - (zk - f)) / 2 >= mp.mpf(0.95) * f))
        return tuple(np.array(column) for column in zip(*rows))
