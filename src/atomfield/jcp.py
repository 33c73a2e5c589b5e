"""Single-mode atom-field dynamics (Jaynes-Cummings ladder).

Closed-form Rabi solutions, the inversion of an initially excited atom
coupled to a diagonal photon-number distribution, collapse/revival time
estimates and a brute-force ODE solver used as an independent oracle.

Units: |g| = 1 is the natural choice, all times are then in 1/|g|; the
formulas keep g explicit so any scale works.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, pi, sqrt

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gammaln, pdtrc

__all__ = [
    "FieldDistribution",
    "JcpParams",
    "InversionTrace",
    "JcpTrace",
    "rabi_frequency",
    "amplitudes_closed_form",
    "inversion",
    "evolve_ode",
    "collapse_revival_times",
]

_TRUNCATION_TOL = 1e-12
# tolerances of the brute-force ladder integration in evolve_ode
_ODE_RTOL = 1e-10
_ODE_ATOL = 1e-12


@dataclass(frozen=True)
class FieldDistribution:
    """Diagonal photon-number distribution via initial amplitudes a_{e,n}(0)."""

    kind: str  # "vacuum" | "fock" | "coherent" | "custom"
    amplitudes: np.ndarray  # complex, index = photon number n

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        total = float(np.sum(np.abs(amps) ** 2))
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"photon-number weights must sum to 1, got {total}")

    @property
    def weights(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    @property
    def mean_photon_number(self) -> float:
        n = np.arange(self.amplitudes.size)
        return float(np.sum(n * self.weights))

    @staticmethod
    def vacuum() -> "FieldDistribution":
        return FieldDistribution("vacuum", np.array([1.0 + 0j]))

    @staticmethod
    def fock(n: int) -> "FieldDistribution":
        if n < 0:
            raise ValueError("photon number must be >= 0")
        amps = np.zeros(n + 1, dtype=complex)
        amps[n] = 1.0
        return FieldDistribution("fock", amps)

    @staticmethod
    def coherent(alpha: complex, n_max: int | None = None) -> "FieldDistribution":
        """Coherent-state amplitudes exp(-|alpha|^2/2) alpha^n / sqrt(n!).

        The Fock ladder is truncated where the Poisson tail is negligible
        (< 1e-12 by default via n_max = ceil(<n> + 10 sqrt(<n>) + 20)).
        """
        mean = abs(alpha) ** 2
        if n_max is None:
            n_max = ceil(mean + 10.0 * sqrt(mean) + 20.0)
        n = np.arange(n_max + 1)
        # log-domain magnitudes: |a_n| = exp(-mean/2 + n ln|alpha| - ln(n!)/2)
        with np.errstate(divide="ignore"):
            log_mag = -mean / 2 + n * np.log(np.maximum(abs(alpha), 1e-300)) - 0.5 * gammaln(n + 1)
        phase = np.exp(1j * n * np.angle(alpha))
        amps = np.exp(log_mag) * phase
        if alpha == 0:
            amps = np.zeros(n_max + 1, dtype=complex)
            amps[0] = 1.0
        # Poisson weight beyond n_max; 1 - sum(|a_n|^2) is round-off at large <n>
        tail = float(pdtrc(n_max, mean))
        if tail > _TRUNCATION_TOL:
            raise ValueError(
                f"truncation at n_max={n_max} leaves weight {tail:.2e} in the tail"
            )
        # absorb the sub-1e-12 tail so the distribution is exactly normalized
        amps = amps / np.sqrt(np.sum(np.abs(amps) ** 2))
        return FieldDistribution("coherent", amps)

    @staticmethod
    def custom(weights: np.ndarray) -> "FieldDistribution":
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("custom weights must sum to 1 within 1e-12")
        return FieldDistribution("custom", np.sqrt(w).astype(complex))


@dataclass(frozen=True)
class JcpParams:
    """Coupling, detuning and initial field of a single-mode scenario."""

    coupling: complex = 1.0  # g; |g| > 0
    detuning: float = 0.0  # Delta = (E_e - E_g)/hbar - omega
    field: FieldDistribution = field(default_factory=FieldDistribution.vacuum)

    def __post_init__(self):
        if abs(self.coupling) <= 0:
            raise ValueError("coupling magnitude must be positive")

    @property
    def g_abs(self) -> float:
        return abs(self.coupling)


@dataclass(frozen=True)
class InversionTrace:
    """Sampled inversion w(t) in [-1, 1]."""

    times: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if np.any(np.abs(self.w) > 1.0 + 1e-9):
            raise ValueError("inversion must stay within [-1, 1]")


@dataclass(frozen=True)
class JcpTrace:
    """Per-pair amplitudes from the ODE solver; rows indexed by photon number n."""

    times: np.ndarray
    a_e: np.ndarray  # shape (n_max + 1, n_times): a_{e,n}(t)
    a_g: np.ndarray  # shape (n_max + 1, n_times): a_{g,n+1}(t)

    def inversion(self) -> InversionTrace:
        w = np.sum(np.abs(self.a_e) ** 2 - np.abs(self.a_g) ** 2, axis=0)
        return InversionTrace(self.times, w)


def rabi_frequency(n, params: JcpParams):
    """n-photon Rabi frequency sqrt(Delta^2 + 4|g|^2 (n+1)); n is a scalar
    (float result) or an array."""
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("photon number must be >= 0")
    omega = np.sqrt(params.detuning**2 + 4.0 * params.g_abs**2 * (n + 1))
    return float(omega) if omega.ndim == 0 else omega


def amplitudes_closed_form(params: JcpParams, n: int, t: float) -> tuple[complex, complex]:
    """Closed-form (a_{e,n}(t), a_{g,n+1}(t)) for an initially excited atom."""
    if n >= params.field.amplitudes.size:
        a0 = 0.0 + 0j
    else:
        a0 = complex(params.field.amplitudes[n])
    omega_n = rabi_frequency(n, params)
    delta = params.detuning
    c, s = np.cos(omega_n * t / 2), np.sin(omega_n * t / 2)
    a_e = a0 * (c - 1j * delta / omega_n * s) * np.exp(1j * delta * t / 2)
    a_g = -a0 * 2j * np.conj(params.coupling) * sqrt(n + 1) / omega_n * s * np.exp(
        -1j * delta * t / 2
    )
    return complex(a_e), complex(a_g)


def inversion(params: JcpParams, times: np.ndarray) -> InversionTrace:
    """Inversion w(t) of an initially excited atom, summed over the ladder."""
    times = np.asarray(times, dtype=float)
    p = params.field.weights
    n = np.arange(p.size)
    omega = rabi_frequency(n, params)
    offset = params.detuning**2 / omega**2
    osc = 4.0 * params.g_abs**2 * (n + 1) / omega**2
    # deterministic summation order: ascending n
    w = float(np.sum(p * offset)) + (p * osc) @ np.cos(np.outer(omega, times))
    return InversionTrace(times, w)


def evolve_ode(
    params: JcpParams,
    t_end: float,
    times: np.ndarray | None = None,
) -> JcpTrace:
    """Brute-force integration of the coupled pair equations (oracle).

    Each (a_{e,n}, a_{g,n+1}) pair evolves independently; all pairs are
    stacked into one vector ODE and solved adaptively.
    """
    if times is None:
        times = np.linspace(0.0, t_end, 401)
    times = np.asarray(times, dtype=float)
    a0 = params.field.amplitudes
    n_states = a0.size
    n_idx = np.arange(n_states)
    root = np.sqrt(n_idx + 1.0)
    g = complex(params.coupling)
    delta = params.detuning

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        a_e, a_g = y[:n_states], y[n_states:]
        ph = np.exp(1j * delta * t)
        return np.concatenate(
            (-1j * g * root * ph * a_g, -1j * np.conj(g) * root * np.conj(ph) * a_e)
        )

    y0 = np.concatenate((a0.astype(complex), np.zeros(n_states, dtype=complex)))
    sol = solve_ivp(
        rhs, (0.0, float(times[-1])), y0, method="DOP853", t_eval=times, rtol=_ODE_RTOL, atol=_ODE_ATOL
    )
    if not sol.success:
        raise RuntimeError(f"ladder integration failed: {sol.message}")
    return JcpTrace(times, sol.y[:n_states], sol.y[n_states:])


def collapse_revival_times(params: JcpParams) -> tuple[float, float]:
    """Order-of-magnitude collapse and revival times for a coherent field."""
    if params.field.kind != "coherent":
        raise ValueError("collapse/revival estimates require a coherent initial field")
    mean = params.field.mean_photon_number
    t_c = 2.0 * pi / params.g_abs
    t_r = 2.0 * pi * sqrt(mean + 1.0) / params.g_abs
    return t_c, t_r
