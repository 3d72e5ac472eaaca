"""Closed-form normal modes and squeezing ratios of the quadratic model.

All operations here work in the collective (large-N) limit where the Dicke
model reduces to two coupled oscillators. The lower normal mode carries the
squeezing; ratios are normalized to the smaller bare ground-state variance,
min(omega, omega0)/2.

Every closed-form mode is ``_pair_modes`` on its (a^2, b^2, cross): the two
squared frequencies and the off-diagonal term. ``superradiant_modes`` calls it
in the displaced frame; every normal-side pair, that of ``normal_modes`` and
that of each momentum sector of the Ising chain (``ising._sector``), comes
from ``_normal_pair``, with the one phase verdict ``core.beyond_critical``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    DickeParams, PhaseLabel, _normal_sector, _require, beyond_critical, classify_phase,
    critical_coupling, real_at_least, squared,
)


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
    A negative eps_minus_sq is rounding in every pair whose energies a caller
    reads (a normal side at or below g_c, the displaced frame above it), and
    reads 0. ValueError where eps_plus^2 overflows: it bounds the total and
    the radical it is summed from, so an overflow anywhere in them shows
    here, where it would otherwise come out as a nan or inf mode energy.
    """
    diff = b_sq - a_sq
    total = a_sq + b_sq
    rad = math.hypot(diff, cross)
    em_sq = max(0.5 * (total - rad), 0.0)
    ep_sq = 0.5 * (total + rad)
    if not math.isfinite(ep_sq):
        raise ValueError(
            "mode energies overflow double precision at "
            f"a^2={a_sq:g}, b^2={b_sq:g}, cross={cross:g}"
        )
    return em_sq, ep_sq, 0.5 * math.atan2(cross, diff)


def _normal_pair(what: str, w: float, e: float, g: float, **shown: float):
    """``_pair_modes`` on the normal side, (w^2, e^2, 4 g sqrt(w e)), and the
    verdict ``core.beyond_critical(what, w, e, g, **shown)``, judged first:
    (eps_minus^2, eps_plus^2, gamma, superradiant)."""
    superradiant = beyond_critical(what, w, e, g, **shown)
    return (*_pair_modes(w * w, e * e, 4.0 * g * math.sqrt(w * e)), superradiant)


def normal_modes(p: DickeParams) -> NormalModeData:
    """Normal-phase (or no-transition) mode energies and mixing angle.

    Evaluates

        eps_pm^2 = (wt^2 + omega0^2 -+ sqrt((omega0^2 - wt^2)^2
                    + 16 gt^2 wt omega0)) / 2

    with wt, gt the effective boson frequency and coupling including any
    squared-displacement term. It judges range and phase as
    ``classify_phase`` does: ValueError where wt*omega0 leaves the normal
    doubles, SuperradiantInputError beyond the critical coupling; use
    ``superradiant_modes`` there.
    """
    em_sq, ep_sq, gamma, superradiant = _normal_pair(
        *_normal_sector(p), omega=p.omega, omega0=p.omega0
    )
    if superradiant:
        raise SuperradiantInputError(
            f"superradiant input: g={p.g:g} lies above the critical coupling; "
            "these modes hold in the normal phase only (use superradiant_modes)"
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
    _require(p.a2_coeff == 0, "superradiant closed form requires a2_coeff = 0")
    gc = critical_coupling(p)
    if not beyond_critical("omega*omega0", p.omega, p.omega0, p.g, omega=p.omega, omega0=p.omega0):
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


def thermal_squeezing_map(params, temperatures) -> np.ndarray:
    """Squeezing ratio of the soft-mode quadrature of each instance in
    ``params`` at each temperature T >= 0 in ``temperatures``,

        xi(T) = (eps_minus / min(omega, omega0)) * coth(eps_minus / (2 T)),

    as an (instances x temperatures) float64 array.

    T = 0 gives the ground-state ratio. A critical instance (eps_minus = 0,
    at or below g_c) at T > 0 genuinely diverges and gives xi = inf so
    sweeps can record it; a finite T so large that eps_minus/(2T) underflows
    gives the large-T limit 2T/min(omega, omega0), inf where that overflows.
    Each instance's ``normal_modes`` judge its range and phase, and reject
    superradiant inputs: the quadratic treatment is invalid near and above
    the classical transition temperature there.

    The temperatures are read and checked once, before any instance and
    before the array, which would parse a string and take True as 1: a T
    that is not a finite real number >= 0 (a NaN, +inf, a bool, a string)
    rejects all of them with a ValueError. Each instance's modes are solved
    once; coth then runs over the whole array as coth(x) = 1 + 2/expm1(2x),
    accurate for small x, in the same IEEE operations and order as a
    one-cell evaluation, so every cell has the bits of its one-point call.
    expm1 is ``math.expm1`` mapped over the cells: ``np.expm1`` takes a SIMD
    path that differs from it by one ulp on about a tenth of uniform
    arguments in [0, 40] (NumPy 2.4.6 on an AVX-512 host).
    """
    temps = np.array([real_at_least("temperature", t, 0.0) for t in temperatures])
    eps = np.array([normal_modes(p).eps_minus for p in params]).reshape(-1, 1)
    omega_min = np.array([min(p.omega, p.omega0) for p in params]).reshape(-1, 1)
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


def thermal_squeezing_ratio(p: DickeParams, temperature: float) -> SqueezingReport:
    """``thermal_squeezing_map`` of one instance at one temperature."""
    return SqueezingReport(float(thermal_squeezing_map((p,), (temperature,))[0, 0]))


def classical_critical_temperature(p: DickeParams) -> float:
    """Temperature of the classical ordered-to-normal transition,

        T_c = omega0 / (2 atanh(omega*omega0 / (4 g^2))),

    defined for a2_coeff = 0 and g beyond g_c by ``core.beyond_critical``
    (T_c -> 0 as g -> g_c from above). ValueError where omega*omega0
    (``core.normal_product``), g^2 or T_c leaves double precision.
    """
    _require(p.a2_coeff == 0, "classical critical temperature requires a2_coeff = 0")
    if not beyond_critical("omega*omega0", p.omega, p.omega0, p.g, omega=p.omega, omega0=p.omega0):
        raise ValueError("no superradiant phase at T>0: g must exceed sqrt(omega*omega0)/2")
    # below 1 for g > g_c (2e7 random draws at the first double above g_c)
    arg = p.omega * p.omega0 / (4.0 * squared("g", p.g))
    # an arg below the normal doubles has lost its digits, and T_c ~ 2 g^2/omega
    t_c = p.omega0 / (2.0 * math.atanh(arg)) if arg >= sys.float_info.min else math.inf
    if t_c == math.inf:
        raise ValueError(
            "T_c overflows double precision at "
            f"omega={p.omega:g}, omega0={p.omega0:g}, g={p.g:g}"
        )
    return t_c
