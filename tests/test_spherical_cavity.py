"""Echo dynamics of an atom at the center of a closed metallic sphere."""

import warnings
from math import pi, sqrt

import numpy as np
import pytest

from atomfield import jcp, multimode, spherical_cavity as sc
from atomfield.free_space import TwoLevelAtom
import exact


@pytest.fixture
def atom():
    return TwoLevelAtom.from_linewidth(1.0, 1e3)


def make_cavity(atom, gamma_R):
    return sc.SphericalCavity(radius=gamma_R, atom=atom)


def solved_band(monkeypatch, cavity, band_width):
    """(detunings, couplings) of the one flat band evolve_cavity_ode builds and solves."""
    seen = []
    flat_band = multimode._flat_band

    def spy(*args):
        seen.append(flat_band(*args))
        return seen[-1]

    # also where a module binds it by `from .multimode import _flat_band`
    for module in (multimode, sc):
        monkeypatch.setattr(module, "_flat_band", spy, raising=False)
    sc.evolve_cavity_ode(cavity, np.linspace(0.0, 1.0, 11), band_width=band_width)
    assert len(seen) == 1
    return seen[0]


class TestGeometry:
    def test_mode_spacing_and_round_trip(self, atom):
        cav = make_cavity(atom, 4.0)
        assert cav.mode_spacing == pytest.approx(pi / 4.0)
        assert cav.round_trip_time == pytest.approx(8.0)

    def test_invalid_radius(self, atom):
        with pytest.raises(ValueError):
            sc.SphericalCavity(radius=0.0, atom=atom)


class TestModeSet:
    """The resonant ladder evolve_cavity_ode builds and solves."""

    def test_ladder_and_couplings(self, atom, monkeypatch):
        detunings, couplings = solved_band(monkeypatch, make_cavity(atom, 2.0), 40.0)
        # one mode exactly on resonance, equidistant spacing pi/R
        assert np.min(np.abs(detunings)) == 0.0
        assert np.diff(detunings) == pytest.approx(pi / 2.0)
        assert np.all(couplings == couplings[0])
        assert couplings[0] ** 2 == pytest.approx(atom.gamma / 4.0)

    @pytest.mark.parametrize("gamma_R", [0.5, 1.0, 7.0, 10.0])
    def test_couplings_are_the_flat_band_at_spacing_pi_over_R(self, atom, monkeypatch, gamma_R):
        cav = make_cavity(atom, gamma_R)
        _, couplings = solved_band(monkeypatch, cav, 40.0)
        want = np.full(couplings.size, np.sqrt(atom.gamma / (2.0 * cav.radius)))
        assert couplings == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_golden_rule_consistency(self, atom, monkeypatch):
        # 2 pi |g|^2 * (modes per unit frequency) recovers Gamma
        detunings, couplings = solved_band(monkeypatch, make_cavity(atom, 7.0), 60.0)
        rate = 2.0 * pi * couplings[0] ** 2 / (detunings[1] - detunings[0])
        assert rate == pytest.approx(atom.gamma, rel=1e-12, abs=0.0)

    def test_band_guard(self, atom):
        with pytest.raises(ValueError):
            sc.evolve_cavity_ode(make_cavity(atom, 2.0), np.linspace(0.0, 1.0, 11), band_width=5.0)

    def test_small_cavity_warning(self, monkeypatch):
        # the notice names the caller's line, and the band is built once
        atom = TwoLevelAtom.from_linewidth(1.0, 20.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solved_band(monkeypatch, sc.SphericalCavity(radius=1.0, atom=atom), 40.0)
        (notice,) = [w for w in caught if issubclass(w.category, sc.SmallCavityNotice)]
        assert notice.filename == __file__


class TestClosedForm:
    def test_exponential_before_first_echo(self, atom):
        cav = make_cavity(atom, 5.0)
        t = np.linspace(0.0, 2.0 * cav.radius - 1e-9, 200)
        p = sc.excited_probability_closed_form(cav, t)
        assert p == pytest.approx(np.exp(-t), rel=1e-12, abs=0.0)

    def test_continuous_across_echo(self, atom):
        cav = make_cavity(atom, 3.0)
        eps = 1e-8
        left = sc.excited_probability_closed_form(cav, 6.0 - eps)
        right = sc.excited_probability_closed_form(cav, 6.0 + eps)
        assert right == pytest.approx(left, abs=1e-6)

    def test_probability_bounds(self, atom):
        for gamma_R in (0.5, 2.0, 8.0):
            cav = make_cavity(atom, gamma_R)
            t = np.linspace(0.0, 6.0 * gamma_R, 800)
            p = sc.excited_probability_closed_form(cav, t)
            assert np.all(p >= 0.0)
            assert np.all(p <= 1.0 + 1e-12)

    def test_revival_grows_with_radius(self, atom):
        # larger Gamma R -> fuller decay before the echo -> stronger revival
        peaks = []
        for gamma_R in (2.0, 10.0):
            cav = make_cavity(atom, gamma_R)
            t = np.linspace(2.0 * gamma_R, 4.0 * gamma_R, 500)
            peaks.append(np.max(sc.excited_probability_closed_form(cav, t)))
        assert peaks[1] > peaks[0]

    def test_first_echo_peak_value(self, atom):
        # after one round trip the envelope is e^{-u/2}(1 - u) relative to
        # the elapsed decay, with u measured from the echo time
        cav = make_cavity(atom, 10.0)
        u = 0.7
        t = 2.0 * cav.radius + u
        p = sc.excited_probability_closed_form(cav, t)
        want = (np.exp(-t / 2.0) + np.exp(-u / 2.0) * (-u)) ** 2
        assert p == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_twenty_echoes_match_the_exact_series(self, atom):
        """The closed form is a(t) = sum_{M>=0} Theta(u) e^{-u/2} [L_M(u) - L_{M-1}(u)],
        u = Gamma (t - 2MR), L_{-1} = 0: with x = e^{-2sR} the flat ladder's
        self-energy (Gamma/2) coth(sR) gives a(s) = (1 - x) / ((s + Gamma/2)
        - x (s - Gamma/2)), whose powers of x are the Laplace pairs of
        e^{-Gamma t/2} L_M(Gamma t).  The reference sums each bracket from
        its binomial definition in exact integers (`exact.py`)."""
        cav = make_cavity(atom, 3.0)
        t = np.linspace(0.0, 120.0, 201)
        want = exact.sphere_excited_probability(cav.radius, t)
        got = sc.excited_probability_closed_form(cav, t)
        # golden_check's closed-form bound, 64 eps S
        assert np.max(np.abs(got - want)) <= 64 * np.finfo(float).eps * np.max(want)

    @pytest.mark.parametrize("gamma_R", [0.1, 0.3, 1.7])
    @pytest.mark.parametrize("per_trip", [1, 2, 5])
    def test_samples_on_the_echo_times(self, atom, gamma_R, per_trip):
        # t = k 2R / p puts a sample on every echo time, some an ulp short of
        # it: at Gamma R = 0.1, p = 5, t / 2R rounds to 17 where u = -4.4e-16
        cav = make_cavity(atom, gamma_R)
        t = np.linspace(0.0, 20 * cav.round_trip_time, 20 * per_trip + 1)
        want = exact.sphere_excited_probability(cav.radius, t)
        got = sc.excited_probability_closed_form(cav, t)
        assert np.max(np.abs(got - want)) <= 64 * np.finfo(float).eps * np.max(want)

    def test_negative_time_rejected(self, atom):
        with pytest.raises(ValueError):
            sc.excited_probability_closed_form(make_cavity(atom, 1.0), -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, [0.5, np.nan], [np.inf, 0.5]])
    def test_non_finite_time_rejected(self, atom, bad):
        # NaN used to reach int(nan) and inf to raise OverflowError
        with pytest.raises(ValueError, match="t finite and >= 0"):
            sc.excited_probability_closed_form(make_cavity(atom, 1.0), bad)

    def test_scalar_and_array_shapes(self, atom):
        cav = make_cavity(atom, 1.0)
        scalar = sc.excited_probability_closed_form(cav, 0.5)
        assert isinstance(scalar, float)
        arr = sc.excited_probability_closed_form(cav, np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert arr.shape == (2, 2)


class TestOdeOracle:
    def test_short_time_agreement(self, atom):
        cav = make_cavity(atom, 1.0)
        times = np.linspace(0.0, 4.0, 161)
        a, norm = sc.evolve_cavity_ode(cav, times, band_width=400.0)
        p_closed = sc.excited_probability_closed_form(cav, times)
        assert np.max(np.abs(np.abs(a) ** 2 - p_closed)) < 1e-2
        assert abs(norm - 1.0) < 1e-7

    def test_non_uniform_grid_raises(self, atom):
        # [0, inf] used to give a NaN amplitude, a scalar an IndexError
        for times in (np.geomspace(1e-3, 4.0, 161), [0.0, np.inf], [np.nan, 1.0, 2.0], 0.5):
            with pytest.raises(ValueError, match="time grid must be uniform"):
                sc.evolve_cavity_ode(make_cavity(atom, 1.0), np.asarray(times), band_width=400.0)

    def test_empty_grid_gives_an_empty_trace(self, atom):
        a, norm = sc.evolve_cavity_ode(make_cavity(atom, 1.0), np.array([]), band_width=400.0)
        assert a.shape == (0,)
        assert abs(norm - 1.0) <= 1e-12

    def test_closed_form_is_the_infinite_band_limit(self, atom):
        # the finite band misses the closed form by ~1.43 / band at Gamma R = 1:
        # 1.8e-3 at band 800, 1.8e-4 at 8000
        cav = make_cavity(atom, 1.0)
        times = np.linspace(0.0, 6.0, 601)
        p_closed = sc.excited_probability_closed_form(cav, times)
        scaled = []
        for band in (800.0, 2400.0, 8000.0):
            a, _ = sc.evolve_cavity_ode(cav, times, band_width=band)
            scaled.append(band * np.max(np.abs(np.abs(a) ** 2 - p_closed)))
        assert scaled[2] / 8000.0 < 2e-4
        assert max(scaled) / min(scaled) < 1.05


class TestStrongCoupling:
    # At Gamma R << 1 the one resonant mode of the ladder, with coupling
    # g = sqrt(Gamma / (2 R)), dominates: a(s) = 1 / (s + (Gamma / 2) coth(s R))
    # ~ s / (s^2 (1 + Gamma R / 6) + g^2), vacuum Rabi oscillation
    # P_e = cos^2(g t) whose frequency is off by ~Gamma R / 12.  Over three
    # Rabi periods max |P_e - cos^2(g t)| / (Gamma R) measured 1.140, 1.144
    # and 1.150; the finite band stays within 3.5e-5 of the closed form.
    @staticmethod
    def _deviation(gamma_R):
        # omega_eg R = 60 keeps the equidistant ladder valid (no SmallCavityNotice)
        cav = make_cavity(TwoLevelAtom.from_linewidth(1.0, 60.0 / gamma_R), gamma_R)
        g = sqrt(cav.atom.gamma / (2.0 * cav.radius))
        times = np.linspace(0.0, 3.0 * pi / g, 201)
        vacuum = jcp.JcpParams(detuning=0.0, field=jcp.FieldDistribution.fock(0))
        single_mode = (1.0 + jcp.inversion(vacuum, g * times)) / 2.0
        p_closed = sc.excited_probability_closed_form(cav, times)
        with warnings.catch_warnings():
            warnings.simplefilter("error", sc.SmallCavityNotice)
            a, _ = sc.evolve_cavity_ode(cav, times, band_width=1e5)
        band_gap = np.max(np.abs(np.abs(a) ** 2 - p_closed))
        return np.max(np.abs(p_closed - single_mode)), band_gap

    def test_small_sphere_is_the_single_mode(self):
        gamma_Rs = (0.03, 0.01, 0.003)
        deviations, band_gaps = zip(*(self._deviation(x) for x in gamma_Rs))
        ratios = np.array(deviations) / np.array(gamma_Rs)
        # a law, not a point: the deviation is linear in Gamma R ...
        assert np.all((1.0 <= ratios) & (ratios <= 1.3)), ratios
        # ... so it falls with Gamma R
        assert deviations[0] > deviations[1] > deviations[2]
        # the band route meets the closed form far below the deviation
        assert max(band_gaps) <= 1e-4
