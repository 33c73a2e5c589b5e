"""Spontaneous emission into free space and the emitted wave packet."""

import tracemalloc
import warnings
from math import inf, nan, pi, sin, sqrt

import numpy as np
import pytest

from atomfield import free_space, multimode, spherical_cavity
from atomfield.free_space import RadiationZoneWarning, TwoLevelAtom
from atomfield.numerics import QuadratureSpec, integrate_1d
from oracles import integrate_2d


@pytest.fixture
def atom():
    return TwoLevelAtom.from_linewidth(1.0, 1e3)


def _density(atom, r, theta, t):
    """Total (electric plus magnetic) energy density of the packet, 2 |E|^2."""
    return 2.0 * np.abs(free_space.electric_amplitude(atom, r, theta, t)) ** 2


class TestAtom:
    def test_from_linewidth_round_trip(self, atom):
        assert atom.gamma == 1.0
        assert atom.omega_eg == pytest.approx(1e3)

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoLevelAtom(omega_eg=-1.0, gamma=0.1)
        with pytest.raises(ValueError, match="decay rate"):
            TwoLevelAtom(omega_eg=1e3, gamma=-1.0)
        with pytest.raises(ValueError):
            # linewidth comparable to the transition frequency
            TwoLevelAtom.from_linewidth(1.0, 5.0)

    @pytest.mark.parametrize("omega", [float("inf"), float("nan")])
    def test_transition_frequency_must_be_finite(self, omega):
        with pytest.raises(ValueError, match="finite"):
            TwoLevelAtom(omega_eg=omega, gamma=0.0)
        with pytest.raises(ValueError, match="finite"):
            TwoLevelAtom.from_linewidth(1.0, omega)


class TestAmplitudes:
    def test_retarded_magnitude(self, atom):
        for t in (0.0, 0.5, 3.0):
            assert abs(free_space.excited_amplitude(atom, t)) == pytest.approx(
                np.exp(-t / 2.0), rel=1e-12, abs=0.0
            )

    def test_advanced_magnitude(self, atom):
        # the time-reversed atom grows toward full excitation at t = 0
        for t in (-3.0, -0.5, 0.0):
            assert abs(free_space.excited_amplitude(atom, t)) == pytest.approx(
                np.exp(t / 2.0), rel=1e-12, abs=0.0
            )

    def test_advanced_is_time_reversed_retarded(self, atom):
        # the absorbed branch is the complex conjugate of the emitted one
        for t in (0.0, 0.5, 3.0):
            assert free_space.excited_amplitude(atom, -t) == pytest.approx(
                np.conj(free_space.excited_amplitude(atom, t)), rel=1e-15, abs=0.0
            )

    def test_branches_join_at_zero(self, atom):
        at_zero = free_space.excited_amplitude(atom, 0.0)
        assert free_space.excited_amplitude(atom, -0.0) == at_zero == 1.0

    def test_array_matches_scalar_calls(self, atom):
        t = np.array([-3.0, -0.5, -1e-9, 0.0, 0.25, 0.5, 3.0, 40.0])
        got = free_space.excited_amplitude(atom, t)
        assert got.shape == t.shape
        assert all(type(free_space.excited_amplitude(atom, float(x))) is complex for x in t)
        assert got.tolist() == [free_space.excited_amplitude(atom, float(x)) for x in t]
        envelope = np.exp(-atom.gamma * np.abs(t) / 2.0)
        assert np.abs(got) == pytest.approx(envelope, rel=1e-15, abs=0.0)
        assert free_space.excited_amplitude(atom, -t) == pytest.approx(
            np.conj(got), rel=1e-15, abs=0.0
        )


class TestWavePacket:
    def test_causality(self, atom):
        t = 1.0
        assert _density(atom, 1.5, pi / 2, t) == 0.0
        assert free_space.electric_amplitude(atom, 1.5, pi / 2, t) == 0.0
        assert _density(atom, 0.5, pi / 2, t) > 0.0

    def test_time_reversal_symmetry(self, atom):
        r, th = 0.7, 1.1
        assert _density(atom, r, th, 1.0) == pytest.approx(_density(atom, r, th, -1.0))

    def test_non_finite_time_refused(self, atom):
        # a NaN time used to read as a point before the causal front: all zeros
        for t in (nan, inf, -inf):
            with pytest.raises(ValueError, match="time must be finite"):
                free_space.electric_amplitude(atom, 1.0, 1.0, t)
            with pytest.raises(ValueError, match="time must be finite"):
                free_space.field_map(atom, [0.5, 0.7], [1.0], t)
            with pytest.raises(ValueError, match="time must be finite"):
                free_space.field_map(atom, [0.5], [], t)
            # excited_amplitude gave nan+nanj, for a scalar and inside an array
            with pytest.raises(ValueError, match="time must be finite"):
                free_space.excited_amplitude(atom, t)
            with pytest.raises(ValueError, match="time must be finite"):
                free_space.excited_amplitude(atom, np.array([0.0, t, 1.0]))

    def test_dipole_pattern(self, atom):
        # sin^2 theta angular factor, node along the dipole axis
        u_eq = _density(atom, 0.5, pi / 2, 1.0)
        u_mid = _density(atom, 0.5, pi / 4, 1.0)
        assert u_mid / u_eq == pytest.approx(0.5, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t", [1.5, -1.5])
    def test_density_matches_closed_form(self, atom, t):
        r = np.array([0.6, 1.2, 1.5, 1.6, 3.0])  # the last two lie outside |t|
        th = np.array([0.8, 2.0, 1.1, 0.5, 1.3])
        g, w = atom.gamma, atom.omega_eg
        inside = r <= abs(t)
        want = np.where(
            inside,
            3.0 * g * w / (8.0 * pi) * np.sin(th) ** 2 / r**2 * np.exp(-g * (abs(t) - r)),
            0.0,
        )
        amp = free_space.electric_amplitude(atom, r, th, t)
        assert 2.0 * np.abs(amp) ** 2 == pytest.approx(want, rel=1e-12, abs=0.0)
        assert np.all(amp[~inside] == 0.0)

    def test_phase_counter_rotates_for_absorption(self, atom):
        # emission (t > 0) and absorption (t < 0) packets are conjugate
        amp_p = free_space.electric_amplitude(atom, 0.4, 1.0, 2.0)
        amp_m = free_space.electric_amplitude(atom, 0.4, 1.0, -2.0)
        assert amp_m == pytest.approx(-np.conj(amp_p), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t", [1.5, -1.5])
    def test_retarded_time_dependence(self, atom, t):
        # moving out by delta while |t| grows by delta keeps the retarded time
        # |t| - r (exact in these dyadic values), so only the 1/r factor changes
        r = np.array([0.5, 0.75, 1.0, 1.25, 1.5, 1.75])  # the last one lies outside |t|
        theta = np.array([1.0, 0.25, 2.5, 1.5, 0.75, 2.0])
        delta = 0.125
        later = t + np.sign(t) * delta
        here = free_space.electric_amplitude(atom, r, theta, t)
        there = free_space.electric_amplitude(atom, r + delta, theta, later)
        assert np.all(here[:-1] != 0.0) and here[-1] == there[-1] == 0.0
        assert there == pytest.approx(here * r / (r + delta), rel=1e-15, abs=0.0)

    def test_radiation_zone_warning(self, atom):
        with pytest.warns(RadiationZoneWarning) as caught:
            free_space.electric_amplitude(atom, 5e-3, pi / 2, 1.0)
        # attributed to the caller's line, not to the library
        assert caught[0].filename == __file__
        with pytest.warns(RadiationZoneWarning):
            free_space.electric_amplitude(atom, 0.99 * 10.0 / atom.omega_eg, pi / 2, 1.0)
        # field_map's used to name a line inside free_space.py
        with pytest.warns(RadiationZoneWarning) as caught:
            free_space.field_map(atom, [5e-3, 0.5], [pi / 2], 1.0)
        assert [w.filename for w in caught] == [__file__]

    def test_radiation_zone_edge_does_not_warn(self):
        # (10 / omega) * omega rounds to 9.999999999999998 here, one ulp
        # inside the guard's slack: the radius grid of free-wavepacket starts there
        atom = TwoLevelAtom.from_linewidth(1.0, 9256.45)
        r_min = 10.0 / atom.omega_eg
        assert r_min * atom.omega_eg < 10.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RadiationZoneWarning)
            free_space.field_map(atom, np.linspace(r_min, 1.0, 5), np.linspace(0.0, pi, 3), 1.0)

    def test_invalid_radius(self, atom):
        with pytest.raises(ValueError):
            free_space.electric_amplitude(atom, 0.0, pi / 2, 1.0)
        # a NaN radius is refused, not taken for a point outside the causal shell
        with pytest.raises(ValueError, match="radius must be positive"):
            free_space.electric_amplitude(atom, float("nan"), 1.0, 1.0)
        with pytest.raises(ValueError, match="radius must be positive"):
            free_space.field_map(atom, [0.5, float("nan")], [1.0], 1.0)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_polar_angle_refused(self, atom, theta):
        # used to give NaN amplitudes, where the parabolic field map refuses
        # a non-finite z or rho
        with pytest.raises(ValueError, match="polar angle must be finite"):
            free_space.electric_amplitude(atom, 0.5, theta, 1.0)
        with pytest.raises(ValueError, match="polar angle must be finite"):
            free_space.electric_amplitude(atom, np.array([0.5, 0.6]), np.array([1.0, theta]), 1.0)
        with pytest.raises(ValueError, match="polar angle must be finite"):
            free_space.field_map(atom, [0.5, 0.6], [1.0, theta], 1.0)


class TestFieldEnergy:
    def test_energy_balance(self, atom):
        fe = free_space.field_energy(atom, 1.0)
        want = atom.omega_eg * (1.0 - np.exp(-1.0))
        assert fe.value == pytest.approx(want, rel=1e-6, abs=0.0)
        assert fe.inner_correction >= 0.0
        assert fe.quadrature_error < 1e-3 * fe.value

    def test_negative_time_symmetric(self, atom):
        assert free_space.field_energy(atom, -1.0).value == pytest.approx(
            free_space.field_energy(atom, 1.0).value, rel=1e-9, abs=0.0
        )

    def test_early_time_inside_near_zone(self, atom):
        t = 1.0 / atom.omega_eg  # causal shell below the radiation zone
        fe = free_space.field_energy(atom, t)
        assert fe.value == pytest.approx(fe.inner_correction)
        # omega_eg (1 - e^{-Gamma t}) without the cancellation at Gamma t ~ 1e-3
        want = atom.omega_eg * -np.expm1(-atom.gamma * t)
        assert fe.value == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_part_validation(self, atom):
        with pytest.raises(ValueError):
            free_space.field_energy(atom, 1.0, part="magnetic-only")

    @pytest.mark.parametrize("t", [1e-3, 1.0])
    def test_zero_decay_rate_has_no_energy(self, t):
        # Gamma = 0 emits nothing; the inner part must not divide by Gamma
        atom = TwoLevelAtom(omega_eg=1e3, gamma=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fe = free_space.field_energy(atom, t)
        assert fe == (0.0, 0.0, 0.0)
        assert all(type(x) is float for x in fe)

    @pytest.mark.parametrize("t", [0.5, 2.0, -1.0])
    def test_one_radial_quadrature(self, atom, t, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[1])
            return integrate_1d(*args)

        monkeypatch.setattr(free_space, "integrate_1d", counted)
        free_space.field_energy(atom, t, part="electric")
        assert calls == [(10.0 / atom.omega_eg, abs(t))]

    @pytest.mark.parametrize("part", ["total", "electric"])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 30.0, -1.0])
    def test_theta_reduction_matches_2d_quadrature(self, atom, t, part):
        # the polar integral done exactly (4/3) against the iterated (r, theta) one
        share = 1.0 if part == "total" else 0.5

        def density(r, theta):
            shell = 2.0 * pi * r**2 * sin(theta)
            return share * _density(atom, r, theta, t) * shell

        r_min = 10.0 / atom.omega_eg
        value, err = integrate_2d(
            density, ((r_min, abs(t)), (0.0, pi)), QuadratureSpec(1e-9, 1e-12, max_subdivisions=400)
        )
        fe = free_space.field_energy(atom, t, part=part)
        assert abs(fe.value - fe.inner_correction - value) <= fe.quadrature_error + err


class TestFieldMap:
    def test_shapes_and_consistency(self, atom):
        r = np.linspace(0.05, 0.9, 7)
        th = np.linspace(0.1, pi - 0.1, 5)
        fmap = free_space.field_map(atom, r, th, 1.0)
        assert fmap.points.shape == (35, 2)
        assert fmap.amplitude.shape == (35,)
        assert np.all(fmap.energy_density >= 0.0)
        # density equals twice the squared electric amplitude everywhere
        assert fmap.energy_density == pytest.approx(
            2.0 * np.abs(fmap.amplitude) ** 2, rel=1e-12, abs=0.0
        )

    def test_blocks_give_the_one_block_map(self, atom, monkeypatch):
        r = np.linspace(0.05, 0.9, 7)
        th = np.linspace(0.1, pi - 0.1, 5)
        whole = free_space.field_map(atom, r, th, 0.6)
        monkeypatch.setattr(free_space, "_RAY_BLOCK", 4)  # 35 points in 9 blocks
        blocked = free_space.field_map(atom, r, th, 0.6)
        for name in ("points", "amplitude", "energy_density"):
            assert np.array_equal(getattr(blocked, name), getattr(whole, name))
        assert np.any(whole.amplitude) and not np.all(whole.amplitude)

    def test_memory_within_its_record(self):
        # the largest free-wavepacket grid of the field-maps benchmark: the
        # ray sums run in blocks, so the peak stays near the map's own bytes
        # (1.28x; the whole-grid sums peaked at 2.2x)
        atom = TwoLevelAtom.from_linewidth(1.0, 203.827)
        r = np.linspace(10.0 / atom.omega_eg, 4.28584, 400)
        th = np.linspace(0.0, pi, 90)
        tracemalloc.start()
        try:
            fmap = free_space.field_map(atom, r, th, 4.28584)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = fmap.points.nbytes + fmap.amplitude.nbytes + fmap.energy_density.nbytes
        assert own == 36_000 * 40
        assert peak <= 1.5 * own


class TestDiscretizedContinuum:
    def test_norm_conservation(self, atom):
        trace = free_space.wigner_weisskopf_ode(
            atom, np.linspace(0.0, 1.0, 301), band_width=20.0, mode_spacing=0.05
        )
        assert np.max(np.abs(trace.norm - 1.0)) < 1e-7

    def test_short_time_decay(self, atom):
        times = np.linspace(0.0, 1.0, 51)
        trace = free_space.wigner_weisskopf_ode(
            atom, times, band_width=20.0, mode_spacing=0.05
        )
        dev = np.abs(trace.excited_population - np.exp(-times))
        # the narrow band distorts the first ~1/band of evolution; after the
        # transient the envelope tracks the golden-rule exponential
        assert np.max(dev) < 0.1
        assert np.max(dev[times >= 0.5]) < 3e-2

    def test_grid_past_recurrence_raises(self, atom):
        # the guard checks every time the exact solution is evaluated at,
        # not only the last
        for times in ([0.0, 50.0, 100.0, 150.0, 200.0], [0.0, 200.0, 1.0], [-200.0, 0.0]):
            with pytest.raises(ValueError, match="recurrence"):
                free_space.wigner_weisskopf_ode(
                    atom, np.array(times), band_width=20.0, mode_spacing=0.05
                )

    def test_non_uniform_grid_raises(self, atom):
        times = np.linspace(0.0, 1.0, 51)
        times[7] += 1e-9
        with pytest.raises(ValueError, match="time grid must be uniform"):
            free_space.wigner_weisskopf_ode(atom, times, band_width=20.0, mode_spacing=0.05)
        # a scalar used to end in an IndexError; a NaN or inf sample used to
        # fail the recurrence guard, whose advice cannot help
        for times in (0.5, [np.nan, 1.0, 2.0], [0.0, np.nan, 2.0], [0.0, np.inf]):
            with pytest.raises(ValueError, match="time grid must be uniform, finite and 1-D"):
                free_space.wigner_weisskopf_ode(
                    atom, np.asarray(times), band_width=20.0, mode_spacing=0.05
                )

    def test_empty_grid_gives_an_empty_trace(self, atom):
        # used to raise numpy's zero-size reduction error
        trace = free_space.wigner_weisskopf_ode(
            atom, np.array([]), band_width=20.0, mode_spacing=0.05
        )
        assert trace.excited_amplitude.shape == (0,)
        assert abs(trace.norm - 1.0) <= 1e-12

    def test_flat_band_couplings(self, atom, monkeypatch):
        # the band the spectral solver builds and solves
        seen = []
        flat_band = multimode._flat_band
        monkeypatch.setattr(
            multimode, "_flat_band", lambda *args: seen.append(flat_band(*args)) or seen[-1]
        )
        free_space.wigner_weisskopf_ode(
            atom, np.linspace(0.0, 1.0, 301), band_width=20.0, mode_spacing=0.05
        )
        detunings, couplings = seen[0]
        assert np.diff(detunings) == pytest.approx(0.05, rel=1e-12, abs=0.0)
        assert couplings == pytest.approx(
            np.full(detunings.size, sqrt(atom.gamma * 0.05 / (2.0 * pi))), rel=1e-15, abs=0.0
        )

    def test_guards(self, atom):
        with pytest.raises(ValueError):
            free_space.wigner_weisskopf_ode(
                atom, np.linspace(0.0, 1.0, 301), band_width=5.0, mode_spacing=0.02
            )
        with pytest.raises(ValueError):
            free_space.wigner_weisskopf_ode(
                atom, np.linspace(0.0, 1.0, 301), band_width=40.0, mode_spacing=0.5
            )
        with pytest.raises(ValueError):
            # beyond the recurrence time of the discretization
            free_space.wigner_weisskopf_ode(
                atom, np.linspace(0.0, 1e4, 301), band_width=40.0, mode_spacing=0.05
            )


@pytest.mark.parametrize(
    "run, message",
    [
        pytest.param(
            lambda t: free_space.wigner_weisskopf_ode(TwoLevelAtom(1e3, 1.0), t, 40.0, 0.0),
            "mode spacing must",
            id="zero-spacing",
        ),
        pytest.param(
            lambda t: free_space.wigner_weisskopf_ode(TwoLevelAtom(1e3, 1.0), t, 40.0, -0.02),
            "mode spacing must",
            id="negative-spacing",
        ),
        pytest.param(
            lambda t: free_space.wigner_weisskopf_ode(TwoLevelAtom(1e3, 1.0), t, 40.0, float("nan")),
            "mode spacing must",
            id="nan-spacing",
        ),
        pytest.param(
            lambda t: free_space.wigner_weisskopf_ode(TwoLevelAtom(1e3, 1.0), t, float("nan"), 0.02),
            "band width must",
            id="nan-band-width",
        ),
        pytest.param(
            lambda t: spherical_cavity.evolve_cavity_ode(
                spherical_cavity.SphericalCavity(radius=1.0, atom=TwoLevelAtom(1e3, 0.0)), t, 400.0
            ),
            "decay rate",
            id="cavity-without-decay",
        ),
    ],
)
def test_flat_band_guards_hold_for_every_input(run, message):
    # each guard is a negated in-range test, so zero, negative and NaN inputs
    # all stop at it, before any division or int() they would reach
    with pytest.raises(ValueError, match=message):
        run(np.linspace(0.0, 1.0, 11))
