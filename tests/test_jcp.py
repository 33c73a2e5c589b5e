"""Single-mode ladder dynamics: closed forms, ODE oracle, field states."""

import tracemalloc
from math import ceil, floor, pi, sqrt

import numpy as np
import pytest

from atomfield import jcp, numerics


def _numbers(f):
    """Photon number n of each row of the weights of `f`."""
    return f.n_min + np.arange(f.weights.size)


class TestFieldDistribution:
    def test_vacuum(self):
        f = jcp.FieldDistribution.fock(0)
        assert _numbers(f) @ f.weights == 0.0
        assert f.weights == pytest.approx([1.0])

    def test_fock(self):
        f = jcp.FieldDistribution.fock(3)
        assert f.weights[3 - f.n_min] == 1.0
        assert _numbers(f) @ f.weights == 3.0

    def test_coherent_poisson_weights(self):
        f = jcp.FieldDistribution.coherent(4.0)
        assert _numbers(f) @ f.weights == pytest.approx(4.0, rel=1e-10, abs=0.0)
        # Poisson check at a few n
        from math import exp, factorial

        for n in (0, 2, 5):
            want = exp(-4.0) * 4.0**n / factorial(n)
            assert f.weights[n - f.n_min] == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_coherent_large_amplitude_normalized(self):
        f = jcp.FieldDistribution.coherent(100.0)
        assert np.sum(f.weights) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("mean_n", [0.5, 4.0, 10.0, 25.0, 158.489, 1e3, 5062.08, 1e4])
    def test_coherent_weights_match_mpmath(self, mean_n):
        # the oracle is taken at the requested <n> itself
        mpmath = pytest.importorskip("mpmath")
        f = jcp.FieldDistribution.coherent(mean_n)
        with mpmath.workdps(50):
            mean = mpmath.mpf(mean_n)
            want = np.array(
                [float(mpmath.exp(-mean) * mean**n / mpmath.factorial(n)) for n in _numbers(f).tolist()]
            )
        live = want > 1e-20
        assert np.max(np.abs(f.weights[live] / want[live] - 1.0)) <= 1e-13

    def test_coherent_ladder_bound(self):
        # Chernoff: P(N >= m + x) <= exp(-m h(x/m)), h(u) = (1+u) ln(1+u) - u,
        # and P(N <= m - x) <= exp(-x^2 / 2m), with x = 10 sqrt(m) + 20; both
        # exponents fall toward 50 from above
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for m in map(mpmath.mpf, np.logspace(-12, 16, 561)):
                x = 10 * mpmath.sqrt(m) + 20
                u = x / m
                assert m * ((1 + u) * mpmath.log1p(u) - u) >= 50
                assert x**2 / (2 * m) >= 50

    @pytest.mark.parametrize("mean_n", [0.5, 4.0, 228.0, 1e4])
    def test_coherent_ladder_tail(self, mean_n):
        mpmath = pytest.importorskip("mpmath")
        f = jcp.FieldDistribution.coherent(mean_n)
        n_min, n_max = f.n_min, f.n_min + f.weights.size - 1
        with mpmath.workdps(50):
            below = mpmath.gammainc(n_min, mean_n, mpmath.inf, regularized=True) if n_min else 0
            above = mpmath.gammainc(n_max + 1, 0, mean_n, regularized=True)  # P(N > n_max)
        # the window leaves out at most _WINDOW_TAIL / 2 at each end
        assert below <= jcp._WINDOW_TAIL / 2
        assert above <= jcp._WINDOW_TAIL / 2

    @pytest.mark.parametrize("mean_n", [5062.08, 2251.93, 2043.36, 5298.32])
    def test_coherent_guard_ignores_round_off(self, mean_n):
        # 1 - sum(p_n) exceeds 1e-12 from round-off alone at these <n>
        f = jcp.FieldDistribution.coherent(mean_n)
        assert _numbers(f) @ f.weights == pytest.approx(mean_n, rel=1e-12, abs=0.0)

    def test_coherent_zero_is_vacuum(self):
        f = jcp.FieldDistribution.coherent(0.0)
        assert f.weights[0] == pytest.approx(1.0)

    def test_large_coherent_field_builds_only_its_window(self):
        # the whole ladder from n = 0 would be 8 GB per array at <n> = 1e9
        tracemalloc.start()
        try:
            f = jcp.FieldDistribution.coherent(1e9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert _numbers(f) @ f.weights == pytest.approx(1e9, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: jcp.FieldDistribution(np.array([-0.5, 1.5]), 0), ">= 0"),
            (lambda: jcp.FieldDistribution.coherent(-1.0), "mean photon number"),
            (lambda: jcp.FieldDistribution.coherent(float("nan")), "mean photon number"),
            (lambda: jcp.FieldDistribution.coherent(float("inf")), "mean photon number"),
        ],
        ids=["negative-weight", "negative-mean", "nan-mean", "infinite-mean"],
    )
    def test_invalid_distribution_raises(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestClosedForm:
    def test_vacuum_resonant_rabi(self):
        params = jcp.JcpParams()
        t = np.linspace(0.0, 4.0 * pi, 200)
        w = jcp.inversion(params, t).w
        assert w == pytest.approx(np.cos(2.0 * t), abs=1e-12)

    def test_detuned_inversion_offset(self):
        # large detuning freezes the atom in the excited state
        params = jcp.JcpParams(detuning=50.0)
        t = np.linspace(0.0, 10.0, 100)
        w = jcp.inversion(params, t).w
        assert np.min(w) > 0.99

    def test_fock_inversion_single_frequency(self):
        n = 4
        params = jcp.JcpParams(field=jcp.FieldDistribution.fock(n))
        omega = jcp.rabi_frequency(n, params)
        t = np.linspace(0.0, 7.0, 150)
        w = jcp.inversion(params, t).w
        assert w == pytest.approx(np.cos(omega * t), abs=1e-12)

    def test_non_uniform_grid_raises(self):
        params = jcp.JcpParams(field=jcp.FieldDistribution.coherent(4.0))
        t = np.linspace(0.0, 10.0, 101)
        t[7] += 64 * np.spacing(10.0)
        with pytest.raises(ValueError, match="uniform"):
            jcp.inversion(params, t)
        with pytest.raises(ValueError, match="uniform"):
            jcp.inversion(params, np.geomspace(1.0, 10.0, 50))

    @pytest.mark.parametrize("mean_n", [4.0, 100.0, 1e4])
    def test_matches_a_long_double_dense_sum(self, mean_n):
        params = jcp.JcpParams(detuning=0.7, field=jcp.FieldDistribution.coherent(mean_n))
        t = np.linspace(0.0, 2000.0, 401)
        w = jcp.inversion(params, t).w
        # each cosine taken on its own, in long double, over Poisson weights of
        # its own on <n> -+ (12 sqrt(<n>) + 20), wider than the field's window:
        # what the window leaves out weighs far below the bound
        width = 12.0 * sqrt(mean_n) + 20.0
        lo = max(floor(mean_n - width), 0)
        n = np.arange(lo, ceil(mean_n + width) + 1).astype(np.longdouble)
        mode, m = floor(mean_n) - lo, np.longdouble(mean_n)
        p = np.concatenate((np.cumprod(n[mode:0:-1] / m)[::-1], [1], np.cumprod(m / n[mode + 1 :])))
        p /= np.sum(p)
        omega = np.sqrt(np.longdouble(params.detuning) ** 2 + 4 * (n + 1))
        amp = p * 4 * (n + 1) / omega**2
        mean = np.sum(p * np.longdouble(params.detuning) ** 2 / omega**2)
        want = [mean + np.sum(amp * np.cos(omega * tk)) for tk in t.astype(np.longdouble)]
        # the kernel's bound: a few eps of the amplitude sum from the products,
        # and an ulp of max |t| of phase per row, weighted by amp * omega
        eps = np.finfo(float).eps
        amp, omega = amp.astype(float), omega.astype(float)
        bound = 1e-14 * np.sum(amp) + eps * np.max(np.abs(t)) * np.sum(amp * omega)
        assert np.max(np.abs(w - np.array(want))) <= bound

    @pytest.mark.parametrize("mean_n", [1e4, 1e6, 1e8])
    def test_large_field_collapses_as_a_gaussian(self, mean_n):
        # Eberly, Narozhny & Sanchez-Mondragon, PRL 44 (1980) 1323: at resonance
        # and t << T_r, w(t) ~ cos(2 sqrt(<n> + 1) t) exp(-t^2 / 2), with
        # corrections of order 1 / sqrt(<n>)
        params = jcp.JcpParams(field=jcp.FieldDistribution.coherent(mean_n))
        t = np.linspace(0.0, 8.0, 401)
        w = jcp.inversion(params, t).w
        want = np.cos(2.0 * sqrt(mean_n + 1.0) * t) * np.exp(-t * t / 2.0)
        assert np.max(np.abs(w - want)) <= 0.2 / sqrt(mean_n)

    def test_inversion_bounds(self):
        params = jcp.JcpParams(
            detuning=1.3, field=jcp.FieldDistribution.coherent(8.0)
        )
        t = np.linspace(0.0, 100.0, 2000)
        w = jcp.inversion(params, t).w
        assert np.all(np.abs(w) <= 1.0 + 1e-9)


def _full_ladder_inversion(detuning, p, t):
    """w(t) summed over every row of the ladder p_n, n = 0, 1, ..., none cut,
    by the same cosine sum."""
    n = np.arange(p.size)
    omega = np.sqrt(detuning**2 + 4.0 * (n + 1))
    amp = p * 4.0 * (n + 1) / omega**2
    return np.sum(p * detuning**2 / omega**2) + numerics._cos_sum(amp, omega, t)


def _full_poisson_ladder(mean):
    """Poisson weights on n = 0 .. ceil(<n> + 10 sqrt(<n>) + 20), built from
    p = 1 at floor(<n>) by the same ratios as `coherent`, normalized, none cut."""
    n = np.arange(ceil(mean + 10.0 * sqrt(mean) + 20.0) + 1)
    mode = floor(mean)
    down = np.cumprod(n[mode:0:-1] / mean)[::-1]
    p = np.concatenate((down, [1.0], np.cumprod(mean / n[mode + 1 :])))
    return p / np.sum(p)


class TestWeightWindow:
    @staticmethod
    def _summed_rows(monkeypatch, params, t):
        """inversion's w(t) and the ladder rows it summed over."""
        rows = []
        rabi = jcp.rabi_frequency

        def spy(n, p):
            rows.append(np.asarray(n))
            return rabi(n, p)

        monkeypatch.setattr(jcp, "rabi_frequency", spy)
        return jcp.inversion(params, t).w, rows[0]

    def test_large_coherent_field_keeps_only_its_poisson_window(self, monkeypatch):
        params = jcp.JcpParams(detuning=0.7, field=jcp.FieldDistribution.coherent(1e4))
        t = np.linspace(0.0, 2000.0, 97)
        w, rows = self._summed_rows(monkeypatch, params, t)
        p = _full_poisson_ladder(1e4)
        assert rows.tolist() == _numbers(params.field).tolist()
        assert rows.size < 0.25 * p.size
        assert np.sum(p[: rows[0]]) + np.sum(p[rows[-1] + 1 :]) <= 1e-17
        assert w == pytest.approx(_full_ladder_inversion(0.7, p, t), rel=0, abs=1e-15)

    @pytest.mark.parametrize(
        "field, kept",
        [
            (jcp.FieldDistribution.fock(7), (7, 7)),
            # zero-weight rows between the peaks stay in the window
            (jcp.FieldDistribution(np.r_[0.3, np.zeros(37), 0.7], 2), (2, 40)),
        ],
    )
    def test_sparse_fields_keep_every_interior_row(self, monkeypatch, field, kept):
        params = jcp.JcpParams(detuning=0.4, field=field)
        t = np.linspace(0.0, 50.0, 201)
        w, rows = self._summed_rows(monkeypatch, params, t)
        assert rows.tolist() == list(range(kept[0], kept[1] + 1))
        # the same weights on the ladder from n = 0, with zero rows at both ends
        p = np.r_[np.zeros(field.n_min), field.weights, 0.0, 0.0]
        assert w == pytest.approx(_full_ladder_inversion(0.4, p, t), rel=0, abs=1e-15)


def _amplitudes_closed_form(params, n, t):
    """Rabi solution (a_{e,n}(t), a_{g,n+1}(t)) of one ladder pair from an excited atom."""
    a0 = sqrt(params.field.weights[n - params.field.n_min])
    omega_n = jcp.rabi_frequency(n, params)
    delta = params.detuning
    c, s = np.cos(omega_n * t / 2), np.sin(omega_n * t / 2)
    a_e = a0 * (c - 1j * delta / omega_n * s) * np.exp(1j * delta * t / 2)
    a_g = -a0 * 2j * sqrt(n + 1) / omega_n * s
    return a_e, a_g * np.exp(-1j * delta * t / 2)


class TestOdeOracle:
    def test_closed_form_vs_ode_detuned(self):
        params = jcp.JcpParams(
            detuning=1.7,
            field=jcp.FieldDistribution.coherent(2.0),
        )
        t = np.linspace(0.0, 25.0, 101)
        trace = jcp.evolve_ode(params, t)
        w_closed = jcp.inversion(params, t).w
        assert trace.inversion().w == pytest.approx(w_closed, abs=1e-8)

    def test_ode_amplitudes_match_closed_form(self):
        params = jcp.JcpParams(detuning=0.9, field=jcp.FieldDistribution.fock(2))
        t = np.linspace(0.0, 5.0, 21)
        trace = jcp.evolve_ode(params, t)
        row = 2 - params.field.n_min
        for i, ti in enumerate(t):
            a_e, a_g = _amplitudes_closed_form(params, 2, ti)
            assert trace.a_e[row, i] == pytest.approx(a_e, abs=1e-9)
            assert trace.a_g[row, i] == pytest.approx(a_g, abs=1e-9)

    def test_norm_conserved(self):
        params = jcp.JcpParams(field=jcp.FieldDistribution.coherent(2.25))
        t = np.linspace(0.0, 40.0, 81)
        trace = jcp.evolve_ode(params, t)
        norm = np.sum(np.abs(trace.a_e) ** 2 + np.abs(trace.a_g) ** 2, axis=0)
        assert norm == pytest.approx(np.ones_like(t), abs=1e-9)


class TestTimescales:
    def test_collapse_revival_values(self):
        t_c, t_r = jcp.collapse_revival_times(25.0)
        assert t_c == pytest.approx(2.0 * pi)
        assert t_r == pytest.approx(2.0 * pi * sqrt(26.0), rel=1e-9, abs=0.0)


def test_rabi_frequency_array_matches_scalar():
    params = jcp.JcpParams(detuning=1.3)
    n = np.arange(50)
    omega = jcp.rabi_frequency(n, params)
    scalar = [jcp.rabi_frequency(int(k), params) for k in n]
    assert all(type(v) is float for v in scalar)
    assert omega.tolist() == scalar
    with pytest.raises(ValueError):
        jcp.rabi_frequency(np.array([3, 0, -1]), params)


def test_invalid_params():
    with pytest.raises(ValueError):
        jcp.rabi_frequency(-1, jcp.JcpParams())
