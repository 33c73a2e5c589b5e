"""Single-mode atom-field dynamics (Jaynes-Cummings ladder).

Closed-form Rabi solutions, the inversion of an initially excited atom
coupled to a diagonal photon-number distribution, and collapse/revival time
estimates.  The independent oracle, a brute-force DOP853 integration of the
ladder, lives with the tests (`tests/oracles.py`), so this module needs only
numpy.  Every result reads the initial field only through its photon-number
weights p_n over the window n >= n_min where they live, the two fields of
`FieldDistribution`; a coherent field is given by its mean photon number <n>.

Units: the vacuum coupling |g| = 1, so times are in 1/|g| and the detuning
in |g|.  Another coupling is the rescaling t -> |g| t, Delta -> Delta / |g|;
the phase of g drops out of every population.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor, inf, isfinite, pi, sqrt

import numpy as np

from .numerics import _cos_sum

__all__ = [
    "FieldDistribution",
    "JcpParams",
    "rabi_frequency",
    "inversion",
    "collapse_revival_times",
]

_WINDOW_TAIL = 1e-17  # weight coherent() cuts from the two ends of its Poisson window together


def _check_mean(mean: float) -> None:
    if not 0 <= mean < inf:  # negated, so a NaN fails too
        raise ValueError("mean photon number must be finite and >= 0")


@dataclass(frozen=True)
class FieldDistribution:
    """Diagonal photon-number distribution of the initial field: p_n for
    n = n_min, n_min + 1, ..., and 0 outside that window."""

    weights: np.ndarray  # p_n, index = n - n_min
    n_min: int  # photon number of weights[0]

    def __post_init__(self):
        p = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", p)
        if p.ndim != 1:
            raise ValueError(f"photon-number weights must be 1-D, got shape {p.shape}")
        total = float(np.sum(p))
        # a NaN weight fails both checks
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"photon-number weights must sum to 1, got {total}")
        if not np.all(p >= 0):
            raise ValueError("photon-number weights must be >= 0")
        # NaN fails n_min >= 0, inf is_integer()
        if not (self.n_min >= 0 and float(self.n_min).is_integer()):
            raise ValueError(f"photon number n_min must be an integer >= 0, got {self.n_min}")
        object.__setattr__(self, "n_min", int(self.n_min))

    @staticmethod
    def fock(n: int) -> "FieldDistribution":
        return FieldDistribution(np.ones(1), n)

    @staticmethod
    def coherent(mean: float) -> "FieldDistribution":
        """Poisson weights exp(-<n>) <n>^n / n! of a coherent field with mean
        photon number <n> = `mean`.

        The weights are built over <n> -+ d, d = 10 sqrt(<n>) + 20 (clamped
        at 0), from p = 1 at n = floor(<n>) by the ratios <n>/(n+1) upward
        and n/<n> downward, all <= 1, and normalized once.  Chernoff bounds
        leave at most e^-50 ~ 2e-22 outside that range on either side:
        exp(-<n> h(x/<n>)), h(u) = (1+u) ln(1+u) - u, x = ceil(<n> + d) - <n>
        above, and exp(-d^2 / 2<n>) below.  The rows at either end that hold
        at most _WINDOW_TAIL / 2 are then dropped; about 17.1 sqrt(<n>) stay.
        """
        _check_mean(mean)
        d = 10.0 * sqrt(mean) + 20.0
        lo = max(floor(mean - d), 0)
        n = np.arange(lo, ceil(mean + d) + 1)
        mode = floor(mean) - lo
        down = np.cumprod(n[mode:0:-1] / mean)[::-1]
        p = np.concatenate((down, [1.0], np.cumprod(mean / n[mode + 1 :])))
        p /= np.sum(p)
        cut, top = (int(np.searchsorted(np.cumsum(q), _WINDOW_TAIL / 2, "right")) for q in (p, p[::-1]))
        return FieldDistribution(p[cut : p.size - top], lo + cut)


@dataclass(frozen=True)
class JcpParams:
    """Detuning and initial field of a single-mode scenario, in units of |g|."""

    detuning: float  # Delta = (E_e - E_g)/hbar - omega
    field: FieldDistribution

    def __post_init__(self):
        # a NaN or infinite detuning would make every Rabi frequency non-finite
        if not isfinite(self.detuning):
            raise ValueError("detuning must be finite")


def rabi_frequency(n, params: JcpParams):
    """n-photon Rabi frequency sqrt(Delta^2 + 4 (n+1)); n is a scalar
    (float result) or an array."""
    n = np.asarray(n)
    if not np.all(n >= 0):  # negated, so a NaN fails too
        raise ValueError("photon number must be >= 0")
    omega = np.sqrt(params.detuning**2 + 4.0 * (n + 1))
    return float(omega) if omega.ndim == 0 else omega


def inversion(params: JcpParams, times: np.ndarray) -> np.ndarray:
    """Inversion w(t) of an initially excited atom, summed over the weighted
    ladder, as a float64 array shaped like `times`.

    `times` must be a uniform grid, such as np.linspace(0, t_max, samples);
    another raises ValueError (the ladder's cosines are summed by angle
    addition, see `numerics._cos_sum`)."""
    times = np.asarray(times, dtype=float)
    p = params.field.weights
    n = params.field.n_min + np.arange(p.size)
    omega = rabi_frequency(n, params)
    offset = params.detuning**2 / omega**2
    osc = 4.0 * (n + 1) / omega**2
    return float(np.sum(p * offset)) + _cos_sum(p * osc, omega, times)


def collapse_revival_times(mean: float) -> tuple[float, float]:
    """Collapse time 2 pi and revival time T_r = 2 pi sqrt(<n> + 1), in
    1/|g|, of the inversion for a coherent field of mean photon number
    <n> = `mean` (order of magnitude)."""
    _check_mean(mean)
    return 2.0 * pi, 2.0 * pi * sqrt(mean + 1.0)
