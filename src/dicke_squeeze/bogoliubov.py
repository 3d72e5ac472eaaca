"""Closed-form normal modes and squeezing ratios of the quadratic model.

All operations here work in the collective (large-N) limit where the Dicke
model reduces to two coupled oscillators. The lower normal mode carries the
squeezing; ratios are normalized to the smaller bare ground-state variance,
min(omega, omega0)/2.

Every closed-form mode is ``_pair_modes`` on its (a^2, b^2, cross): the two
squared frequencies and the off-diagonal term. Its four callers are
``normal_modes`` (normal side), ``superradiant_modes`` (displaced frame) and,
per momentum sector of the Ising chain, ``ising.dicke_ising_modes`` and
``ising.mixing_angle_k``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .core import DickeParams, PhaseLabel, classify_phase, critical_coupling, finite_real, squared

# Relative floor below which a negative soft-mode energy squared is treated as
# exactly critical rather than superradiant (guards rounding at g = g_c).
_CRITICAL_CLAMP = 1e-12


class SuperradiantInputError(ValueError):
    """Raised when an operation defined in the normal phase receives
    superradiant parameters."""


@dataclass(frozen=True)
class NormalModeData:
    """Normal-mode content of one quadratic model instance.

    eps_minus, eps_plus : mode energies, eps_minus <= eps_plus
    gamma               : mixing angle in [0, pi/2] rotating (boson, spin)
                          quadratures into the normal modes
    """

    eps_minus: float
    eps_plus: float
    gamma: float


@dataclass(frozen=True)
class SqueezingReport:
    """The squeezing ratio xi of the soft-mode quadrature: its variance over
    the smaller bare ground-state variance min(omega, omega0)/2; xi < 1
    means squeezing."""

    xi: float


def _pair_modes(a_sq: float, b_sq: float, cross: float) -> tuple[float, float, float]:
    """Diagonalize two oscillators of squared frequencies a_sq, b_sq with
    off-diagonal term cross.

    Returns (eps_minus_sq, eps_plus_sq, gamma) of the quadratic form
    (a_sq x^2 + p_x^2 + b_sq y^2 + p_y^2 + cross x y)/2:
    eps_pm^2 = (a_sq + b_sq -+ hypot(b_sq - a_sq, cross))/2 and
    gamma = atan2(cross, b_sq - a_sq)/2, in [0, pi/2] for cross >= 0 so the
    minus mode connects to the softer oscillator as cross -> 0.
    eps_minus_sq may come out negative; callers decide how to treat that,
    but one within _CRITICAL_CLAMP of the total is rounding at criticality
    and reads 0. ValueError where eps_plus^2 overflows: it bounds the total
    and the radical it is summed from, so an overflow anywhere in them shows
    here, where it would otherwise come out as a nan or inf mode energy.
    """
    diff = b_sq - a_sq
    total = a_sq + b_sq
    rad = math.hypot(diff, cross)
    em_sq = 0.5 * (total - rad)
    ep_sq = 0.5 * (total + rad)
    if not math.isfinite(ep_sq):
        raise ValueError(
            "mode energies overflow double precision at "
            f"a^2={a_sq:g}, b^2={b_sq:g}, cross={cross:g}"
        )
    if -_CRITICAL_CLAMP * total <= em_sq < 0.0:
        em_sq = 0.0
    return em_sq, ep_sq, 0.5 * math.atan2(cross, diff)


def _effective_boson(p: DickeParams, g: float) -> tuple[float, float]:
    """Boson frequency and coupling after absorbing the squared-displacement
    term: w_tilde = sqrt(omega*(omega+4D)), g_tilde = g/(1+4D/omega)^(1/4)."""
    if p.a2_coeff == 0:
        return p.omega, g
    scale = 1.0 + 4.0 * p.a2_coeff / p.omega
    return p.omega * math.sqrt(scale), g / scale**0.25


def normal_modes(p: DickeParams, g_renormalized: float | None = None) -> NormalModeData:
    """Normal-phase (or no-transition) mode energies and mixing angle.

    Evaluates

        eps_pm^2 = (wt^2 + omega0^2 -+ sqrt((omega0^2 - wt^2)^2
                    + 16 gt^2 wt omega0)) / 2

    with wt, gt the effective boson frequency and coupling including any
    squared-displacement term; ``g_renormalized``, when given, replaces p.g
    (the diluted clean sector of ``disorder``) and must be a finite real
    number >= 0. Raises SuperradiantInputError when the input lies beyond the
    critical coupling (eps_minus^2 < 0); use ``superradiant_modes`` there.
    """
    g = p.g if g_renormalized is None else finite_real("g_renormalized", g_renormalized)
    if g < 0:
        raise ValueError("g must be >= 0")
    wt, gt = _effective_boson(p, g)
    cross = 4.0 * gt * math.sqrt(wt * p.omega0)
    em_sq, ep_sq, gamma = _pair_modes(wt * wt, p.omega0 * p.omega0, cross)
    if em_sq < 0.0:
        raise SuperradiantInputError(
            "superradiant input: eps_minus^2 < 0 for "
            f"g={g:g} (use superradiant_modes)"
        )
    return NormalModeData(math.sqrt(em_sq), math.sqrt(ep_sq), gamma)


def superradiant_modes(p: DickeParams) -> NormalModeData:
    """Mode energies in the superradiant phase (a2_coeff = 0 only).

    The displaced-frame energies are

        eps_pm^2 = (omega^2 + r^2 omega0^2
                    +- sqrt((r^2 omega0^2 - omega^2)^2 + 4 omega^2 omega0^2))/2

    with r = (g/g_c)^2. The reported mixing angle is the rotation
    diagonalizing the displaced-frame quadratic form.
    """
    if p.a2_coeff != 0:
        raise ValueError("superradiant closed form requires a2_coeff = 0")
    gc = critical_coupling(p)
    if p.g <= gc:
        raise ValueError(f"g={p.g:g} is not above the critical coupling {gc:g}")
    w_spin = squared("g/g_c", p.g / gc) * p.omega0  # spin frequency in the displaced frame
    em_sq, ep_sq, gamma = _pair_modes(
        squared("omega", p.omega), squared("w_spin", w_spin), 2.0 * p.omega * p.omega0
    )
    return NormalModeData(math.sqrt(em_sq), math.sqrt(ep_sq), gamma)


def squeezing_ratio_ground(p: DickeParams) -> SqueezingReport:
    """Ground-state squeezing ratio of the optimally squeezed quadrature.

    xi = eps_minus / min(omega, omega0) in the normal and no-transition
    regimes and eps_minus(displaced frame) / min(omega, omega0) in the
    superradiant phase. xi = 0 at the transition, xi -> 1 both for g -> 0 and
    deep in the superradiant phase.
    """
    superradiant = classify_phase(p) is PhaseLabel.SUPERRADIANT
    modes = superradiant_modes(p) if superradiant else normal_modes(p)
    return SqueezingReport(modes.eps_minus / min(p.omega, p.omega0))


def thermal_squeezing_ratios(p: DickeParams, temperatures) -> list[float]:
    """Squeezing ratio of the soft-mode quadrature at each temperature T >= 0
    in ``temperatures``:

        xi(T) = (eps_minus / min(omega, omega0)) * coth(eps_minus / (2 T)).

    Row 0 of ``thermal_squeezing_map``, so every entry is bit-identical to a
    one-temperature call. T = 0 gives the ground-state ratio. A critical
    instance (eps_minus = 0) at T > 0 genuinely diverges and gives xi = inf
    so sweeps can record it; a T so large that eps_minus/(2T) underflows
    gives the large-T limit 2T/min(omega, omega0), inf for T = inf.
    Superradiant inputs are rejected: the quadratic treatment is invalid near
    and above the classical transition temperature there. A temperature that
    is not a real number >= 0 (a NaN, a bool, a string) rejects all of
    ``temperatures`` with a ValueError.
    """
    return thermal_squeezing_map((p,), temperatures)[0].tolist()


def thermal_squeezing_map(params, temperatures) -> np.ndarray:
    """``thermal_squeezing_ratios`` of each instance in ``params`` over one
    temperature list, as an (instances x temperatures) float64 array.

    The temperatures are read and checked once, before any instance and
    before any conversion to an array: a T that is not a real number >= 0
    rejects all of them. Each instance's normal modes are solved once; coth
    then runs over the whole array as coth(x) = 1 + 2/expm1(2x), accurate
    for small x, in the same IEEE operations and order as a one-cell
    evaluation, so every cell has the bits of its one-point call. expm1 is
    ``math.expm1`` mapped over the cells: ``np.expm1`` takes a SIMD path
    that differs from it by one ulp on about a tenth of uniform arguments
    in [0, 40] (NumPy 2.4.6 on an AVX-512 host).
    """
    temps = _checked_temperatures(temperatures)
    modes = np.array([_soft_mode(p) for p in params]).reshape(-1, 2)
    eps, omega_min = modes[:, :1], modes[:, 1:]
    ground = eps / omega_min
    # T = 0 divides by zero and eps = 0 at T = 0 gives 0/0, both masked
    # below; 2T, 2/expm1 and 2T/min(omega, omega0) may overflow to inf,
    # and a ground that underflowed to 0 times that gives nan, as one cell
    # evaluated in Python floats does
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = eps / (2.0 * temps)
        # x >= 20 (T = 0 included): coth(x) is 1.0 to double precision;
        # x = 0: eps/(2T) underflowed, and coth(x) -> 1/x leaves the large-T
        # limit 2T/min(omega, omega0)
        xis = np.where(x == 0.0, 2.0 * (temps / omega_min), ground)
        mid = (0.0 < x) & (x < 20.0)
        y = 2.0 * x[mid]
        expm1 = np.fromiter(map(math.expm1, y.tolist()), np.float64, y.size)
        xis[mid] = np.broadcast_to(ground, xis.shape)[mid] * (1.0 + 2.0 / expm1)
    # a critical instance diverges at every T > 0
    xis[(eps == 0.0) & (temps != 0.0)] = math.inf
    return xis


def _checked_temperatures(temperatures) -> np.ndarray:
    """``temperatures`` as a float64 array, each checked first: a real
    number (no bool, numpy's included), not NaN, >= 0, else ValueError.
    ``np.array`` would parse a string and take True as 1."""
    temperatures = list(temperatures)
    for t in temperatures:
        if isinstance(t, bool) or not isinstance(t, numbers.Real) or not t >= 0:
            raise ValueError(f"temperature must be a real number >= 0, got {t!r}")
    return np.array(temperatures, dtype=np.float64)


def _soft_mode(p: DickeParams) -> tuple[float, float]:
    """(eps_minus, min(omega, omega0)) of a normal-phase instance."""
    if classify_phase(p) is PhaseLabel.SUPERRADIANT:
        raise SuperradiantInputError(
            f"g={p.g:g} lies above the critical coupling at omega={p.omega:g}, "
            f"omega0={p.omega0:g}; the thermal squeezing ratio is defined in the "
            "normal phase only"
        )
    return normal_modes(p).eps_minus, min(p.omega, p.omega0)


def thermal_squeezing_ratio(p: DickeParams, temperature: float) -> SqueezingReport:
    """``thermal_squeezing_ratios`` at one temperature."""
    (xi,) = thermal_squeezing_ratios(p, (temperature,))
    return SqueezingReport(xi)


def classical_critical_temperature(p: DickeParams) -> float:
    """Temperature of the classical ordered-to-normal transition,

        T_c = omega0 / (2 atanh(omega*omega0 / (4 g^2))),

    defined for a2_coeff = 0 and g > g_c (T_c -> 0 as g -> g_c from above).
    ValueError where omega*omega0 (``critical_coupling``), g^2 or T_c leaves
    double precision.
    """
    if p.a2_coeff != 0:
        raise ValueError("classical critical temperature requires a2_coeff = 0")
    critical_coupling(p)  # ValueError where omega*omega0 leaves double precision
    arg = p.omega * p.omega0 / (4.0 * squared("g", p.g)) if p.g > 0 else math.inf
    if arg >= 1.0:
        raise ValueError("no superradiant phase at T>0: g must exceed sqrt(omega*omega0)/2")
    # an arg below the normal doubles has lost its digits, and T_c ~ 2 g^2/omega
    t_c = p.omega0 / (2.0 * math.atanh(arg)) if arg >= sys.float_info.min else math.inf
    if t_c == math.inf:
        raise ValueError(
            "T_c overflows double precision at "
            f"omega={p.omega:g}, omega0={p.omega0:g}, g={p.g:g}"
        )
    return t_c
