"""Single-mode ladder dynamics: closed forms, ODE oracle, field states."""

from math import pi, sqrt

import numpy as np
import pytest

from atomfield import jcp


class TestFieldDistribution:
    def test_vacuum(self):
        f = jcp.FieldDistribution.vacuum()
        assert f.mean_photon_number == 0.0
        assert f.weights == pytest.approx([1.0])

    def test_fock(self):
        f = jcp.FieldDistribution.fock(3)
        assert f.weights[3] == 1.0
        assert f.mean_photon_number == 3.0

    def test_coherent_poisson_weights(self):
        alpha = 2.0
        f = jcp.FieldDistribution.coherent(alpha)
        assert f.mean_photon_number == pytest.approx(abs(alpha) ** 2, rel=1e-10)
        # Poisson check at a few n
        from math import exp, factorial

        for n in (0, 2, 5):
            want = exp(-4.0) * 4.0**n / factorial(n)
            assert f.weights[n] == pytest.approx(want, rel=1e-10)

    def test_coherent_large_amplitude_normalized(self):
        f = jcp.FieldDistribution.coherent(10.0)
        assert np.sum(f.weights) == pytest.approx(1.0, abs=1e-14)

    def test_coherent_truncation_guard(self):
        with pytest.raises(ValueError):
            jcp.FieldDistribution.coherent(5.0, n_max=20)
        with pytest.raises(ValueError):
            jcp.FieldDistribution.coherent(10.0, n_max=100)

    @pytest.mark.parametrize("mean_n", [5062.08, 2251.93, 2043.36, 5298.32])
    def test_coherent_guard_ignores_round_off(self, mean_n):
        # 1 - sum(|a_n|^2) exceeds 1e-12 from round-off alone at these <n>
        f = jcp.FieldDistribution.coherent(sqrt(mean_n))
        assert f.mean_photon_number == pytest.approx(mean_n, rel=1e-12)

    def test_coherent_zero_is_vacuum(self):
        f = jcp.FieldDistribution.coherent(0.0)
        assert f.weights[0] == pytest.approx(1.0)

    def test_custom_validation(self):
        with pytest.raises(ValueError):
            jcp.FieldDistribution.custom(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            jcp.FieldDistribution.custom(np.array([-0.1, 1.1]))


class TestClosedForm:
    def test_vacuum_resonant_rabi(self):
        params = jcp.JcpParams()
        t = np.linspace(0.0, 4.0 * pi, 200)
        w = jcp.inversion(params, t).w
        assert w == pytest.approx(np.cos(2.0 * t), abs=1e-12)

    def test_pair_unitarity_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = rng.uniform(0.2, 3.0) * np.exp(1j * rng.uniform(0, 2 * pi))
            params = jcp.JcpParams(
                coupling=g,
                detuning=rng.uniform(-5.0, 5.0),
                field=jcp.FieldDistribution.fock(int(rng.integers(0, 6))),
            )
            n = params.field.amplitudes.size - 1
            t = rng.uniform(0.0, 20.0)
            a_e, a_g = jcp.amplitudes_closed_form(params, n, t)
            assert abs(a_e) ** 2 + abs(a_g) ** 2 == pytest.approx(1.0, abs=1e-12)

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

    def test_phase_of_alpha_is_irrelevant(self):
        t = np.linspace(0.0, 30.0, 300)
        w0 = jcp.inversion(
            jcp.JcpParams(field=jcp.FieldDistribution.coherent(2.0)), t
        ).w
        w1 = jcp.inversion(
            jcp.JcpParams(field=jcp.FieldDistribution.coherent(2.0 * np.exp(0.7j))), t
        ).w
        assert w0 == pytest.approx(w1, abs=1e-12)

    def test_inversion_bounds(self):
        params = jcp.JcpParams(
            detuning=1.3, field=jcp.FieldDistribution.coherent(sqrt(8.0))
        )
        t = np.linspace(0.0, 100.0, 2000)
        w = jcp.inversion(params, t).w
        assert np.all(np.abs(w) <= 1.0 + 1e-9)


class TestOdeOracle:
    def test_closed_form_vs_ode_detuned(self):
        params = jcp.JcpParams(
            coupling=0.8 * np.exp(0.3j),
            detuning=1.7,
            field=jcp.FieldDistribution.coherent(sqrt(2.0)),
        )
        t = np.linspace(0.0, 25.0, 101)
        trace = jcp.evolve_ode(params, t[-1], times=t)
        w_closed = jcp.inversion(params, t).w
        assert trace.inversion().w == pytest.approx(w_closed, abs=1e-8)

    def test_ode_amplitudes_match_closed_form(self):
        params = jcp.JcpParams(detuning=0.9, field=jcp.FieldDistribution.fock(2))
        t = np.linspace(0.0, 5.0, 21)
        trace = jcp.evolve_ode(params, t[-1], times=t)
        for i, ti in enumerate(t):
            a_e, a_g = jcp.amplitudes_closed_form(params, 2, ti)
            assert trace.a_e[2, i] == pytest.approx(a_e, abs=1e-9)
            assert trace.a_g[2, i] == pytest.approx(a_g, abs=1e-9)

    def test_norm_conserved(self):
        params = jcp.JcpParams(field=jcp.FieldDistribution.coherent(1.5))
        t = np.linspace(0.0, 40.0, 81)
        trace = jcp.evolve_ode(params, t[-1], times=t)
        norm = np.sum(np.abs(trace.a_e) ** 2 + np.abs(trace.a_g) ** 2, axis=0)
        assert norm == pytest.approx(np.ones_like(t), abs=1e-9)


class TestTimescales:
    def test_collapse_revival_values(self):
        params = jcp.JcpParams(field=jcp.FieldDistribution.coherent(5.0))
        t_c, t_r = jcp.collapse_revival_times(params)
        assert t_c == pytest.approx(2.0 * pi)
        assert t_r == pytest.approx(2.0 * pi * sqrt(26.0), rel=1e-9)

    def test_requires_coherent_field(self):
        with pytest.raises(ValueError):
            jcp.collapse_revival_times(jcp.JcpParams(field=jcp.FieldDistribution.fock(2)))

    def test_coupling_scale_invariance(self):
        # time axis scales as 1/|g|: w_g(t) = w_1(|g| t)
        base = jcp.JcpParams(field=jcp.FieldDistribution.coherent(2.0))
        scaled = jcp.JcpParams(coupling=3.0, field=jcp.FieldDistribution.coherent(2.0))
        t = np.linspace(0.0, 10.0, 100)
        w_base = jcp.inversion(base, 3.0 * t).w
        w_scaled = jcp.inversion(scaled, t).w
        assert w_scaled == pytest.approx(w_base, abs=1e-12)


def test_rabi_frequency_array_matches_scalar():
    params = jcp.JcpParams(coupling=0.7 + 0.2j, detuning=1.3)
    n = np.arange(50)
    omega = jcp.rabi_frequency(n, params)
    scalar = [jcp.rabi_frequency(int(k), params) for k in n]
    assert all(type(v) is float for v in scalar)
    assert omega.tolist() == scalar
    with pytest.raises(ValueError):
        jcp.rabi_frequency(np.array([3, 0, -1]), params)


def test_invalid_params():
    with pytest.raises(ValueError):
        jcp.JcpParams(coupling=0.0)
    with pytest.raises(ValueError):
        jcp.rabi_frequency(-1, jcp.JcpParams())
