"""Echo dynamics of an atom at the center of a closed metallic sphere."""

from math import pi

import numpy as np
import pytest

from atomfield import spherical_cavity as sc
from atomfield.free_space import TwoLevelAtom


@pytest.fixture
def atom():
    return TwoLevelAtom.from_linewidth(1.0, 1e3)


def make_cavity(atom, gamma_R):
    return sc.SphericalCavity(radius=gamma_R, atom=atom)


class TestGeometry:
    def test_mode_spacing_and_round_trip(self, atom):
        cav = make_cavity(atom, 4.0)
        assert cav.mode_spacing == pytest.approx(pi / 4.0)
        assert cav.round_trip_time == pytest.approx(8.0)
        assert cav.mode_density_parameter == pytest.approx(4.0 / pi)

    def test_echo_times(self, atom):
        cav = make_cavity(atom, 3.0)
        assert sc.echo_times(cav, 3) == pytest.approx([6.0, 12.0, 18.0])
        with pytest.raises(ValueError):
            sc.echo_times(cav, 0)

    def test_invalid_radius(self, atom):
        with pytest.raises(ValueError):
            sc.SphericalCavity(radius=0.0, atom=atom)


class TestModeSet:
    def test_ladder_and_couplings(self, atom):
        cav = make_cavity(atom, 2.0)
        modes = sc.resonant_mode_set(cav, band_width=40.0)
        # one mode exactly on resonance, equidistant spacing pi/R
        assert np.min(np.abs(modes.frequencies - atom.omega_eg)) == 0.0
        assert np.diff(modes.frequencies) == pytest.approx(pi / 2.0)
        assert np.all(modes.couplings == modes.couplings[0])
        assert modes.couplings[0] ** 2 == pytest.approx(atom.gamma / 4.0)

    @pytest.mark.parametrize("gamma_R", [0.5, 1.0, 7.0, 10.0])
    def test_couplings_are_the_flat_band_at_spacing_pi_over_R(self, atom, gamma_R):
        cav = make_cavity(atom, gamma_R)
        modes = sc.resonant_mode_set(cav, band_width=40.0)
        want = np.full(modes.couplings.size, np.sqrt(atom.gamma / (2.0 * cav.radius)))
        assert modes.couplings == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_golden_rule_consistency(self, atom):
        # 2 pi |g|^2 * (modes per unit frequency) recovers Gamma
        cav = make_cavity(atom, 7.0)
        modes = sc.resonant_mode_set(cav, band_width=60.0)
        rate = 2.0 * pi * modes.couplings[0] ** 2 / cav.mode_spacing
        assert rate == pytest.approx(atom.gamma, rel=1e-12)

    def test_band_guard(self, atom):
        with pytest.raises(ValueError):
            sc.resonant_mode_set(make_cavity(atom, 2.0), band_width=5.0)

    def test_small_cavity_warning(self):
        atom = TwoLevelAtom.from_linewidth(1.0, 20.0)
        with pytest.warns(sc.SmallCavityNotice):
            sc.resonant_mode_set(sc.SphericalCavity(radius=1.0, atom=atom), band_width=40.0)


class TestClosedForm:
    def test_exponential_before_first_echo(self, atom):
        cav = make_cavity(atom, 5.0)
        t = np.linspace(0.0, 2.0 * cav.radius - 1e-9, 200)
        p = sc.excited_probability_closed_form(cav, t)
        assert p == pytest.approx(np.exp(-t), rel=1e-12)

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
        assert p == pytest.approx(want, rel=1e-12)

    def test_negative_time_rejected(self, atom):
        with pytest.raises(ValueError):
            sc.excited_probability_closed_form(make_cavity(atom, 1.0), -1.0)

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
        trace = sc.evolve_cavity_ode(cav, times, band_width=400.0)
        p_closed = sc.excited_probability_closed_form(cav, times)
        assert np.max(np.abs(trace.excited_population - p_closed)) < 1e-2
        assert np.max(np.abs(trace.norm - 1.0)) < 1e-7

    def test_closed_form_is_the_infinite_band_limit(self, atom):
        # the finite band misses the closed form by ~1.43 / band at Gamma R = 1:
        # 1.8e-3 at band 800, 1.8e-4 at 8000
        cav = make_cavity(atom, 1.0)
        times = np.linspace(0.0, 6.0, 601)
        p_closed = sc.excited_probability_closed_form(cav, times)
        scaled = []
        for band in (800.0, 2400.0, 8000.0):
            trace = sc.evolve_cavity_ode(cav, times, band_width=band)
            scaled.append(band * np.max(np.abs(trace.excited_population - p_closed)))
        assert scaled[2] / 8000.0 < 2e-4
        assert max(scaled) / min(scaled) < 1.05
