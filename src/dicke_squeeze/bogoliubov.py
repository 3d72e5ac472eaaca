"""Closed-form normal modes and squeezing ratios of the quadratic model.

All operations here work in the collective (large-N) limit where the Dicke
model reduces to two coupled oscillators. The lower normal mode carries the
squeezing; ratios are normalized to the smaller bare ground-state variance,
min(omega, omega0)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DickeParams, PhaseLabel, classify_phase, critical_coupling

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
    phase               : phase label of the underlying instance
    g_renormalized      : coupling actually used (differs from the instance
                          coupling only when a caller supplies a renormalized
                          value, e.g. for diluted-disorder wrappers)
    """

    eps_minus: float
    eps_plus: float
    gamma: float
    phase: PhaseLabel
    g_renormalized: float


@dataclass(frozen=True)
class SqueezingReport:
    """A squeezing ratio together with its normalization.

    xi = variance / reference_variance; xi < 1 means squeezing.
    """

    xi: float
    reference_variance: float
    quadrature_id: str
    temperature: float = 0.0


def _pair_modes(w_a: float, w_b: float, g: float) -> tuple[float, float, float]:
    """Diagonalize two oscillators (w_a, w_b) with bilinear coupling g.

    Returns (eps_minus_sq, eps_plus_sq, gamma). The quadratic form is
    (w_a^2 x^2 + p_x^2 + w_b^2 y^2 + p_y^2 + 4 g sqrt(w_a w_b) x y)/2 and
    gamma = atan2(4 g sqrt(w_a w_b), w_b^2 - w_a^2)/2, restricted to
    [0, pi/2] so the minus mode connects to the softer oscillator as g -> 0.
    eps_minus_sq may come out negative; callers decide how to treat that.
    """
    cross = 4.0 * g * math.sqrt(w_a * w_b)
    diff = w_b * w_b - w_a * w_a
    total = w_a * w_a + w_b * w_b
    rad = math.hypot(diff, cross)
    em_sq = 0.5 * (total - rad)
    ep_sq = 0.5 * (total + rad)
    if -_CRITICAL_CLAMP * total <= em_sq < 0.0:
        em_sq = 0.0
    gamma = 0.5 * math.atan2(cross, diff)
    return em_sq, ep_sq, gamma


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
    squared-displacement term. Raises SuperradiantInputError when the input
    lies beyond the critical coupling (eps_minus^2 < 0); use
    ``superradiant_modes`` there.
    """
    g = p.g if g_renormalized is None else g_renormalized
    if g < 0:
        raise ValueError("g must be >= 0")
    wt, gt = _effective_boson(p, g)
    em_sq, ep_sq, gamma = _pair_modes(wt, p.omega0, gt)
    if em_sq < 0.0:
        raise SuperradiantInputError(
            "superradiant input: eps_minus^2 < 0 for "
            f"g={g:g} (use superradiant_modes)"
        )
    phase = classify_phase(
        p if g == p.g else DickeParams(p.omega, p.omega0, g, p.n_spins, p.a2_coeff)
    )
    return NormalModeData(
        eps_minus=math.sqrt(em_sq),
        eps_plus=math.sqrt(ep_sq),
        gamma=gamma,
        phase=phase,
        g_renormalized=g,
    )


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
    gc = math.sqrt(p.omega * p.omega0) / 2.0
    if p.g <= gc:
        raise ValueError(f"g={p.g:g} is not above the critical coupling {gc:g}")
    r = (p.g / gc) ** 2
    w_spin = r * p.omega0  # effective spin frequency in the displaced frame
    total = p.omega**2 + w_spin**2
    rad = math.hypot(w_spin**2 - p.omega**2, 2.0 * p.omega * p.omega0)
    em_sq = 0.5 * (total - rad)
    if -_CRITICAL_CLAMP * total <= em_sq < 0.0:
        em_sq = 0.0
    gamma = 0.5 * math.atan2(2.0 * p.omega * p.omega0, w_spin**2 - p.omega**2)
    return NormalModeData(
        eps_minus=math.sqrt(em_sq),
        eps_plus=math.sqrt(0.5 * (total + rad)),
        gamma=gamma,
        phase=PhaseLabel.SUPERRADIANT,
        g_renormalized=p.g,
    )


def reference_variance(p: DickeParams) -> float:
    """Smallest bare ground-state momentum variance, min(omega, omega0)/2."""
    return min(p.omega, p.omega0) / 2.0


def squeezing_ratio_ground(p: DickeParams) -> SqueezingReport:
    """Ground-state squeezing ratio of the optimally squeezed quadrature.

    xi = eps_minus / min(omega, omega0) in the normal and no-transition
    regimes and eps_minus(displaced frame) / min(omega, omega0) in the
    superradiant phase. xi = 0 at the transition, xi -> 1 both for g -> 0 and
    deep in the superradiant phase.
    """
    phase = classify_phase(p)
    if phase is PhaseLabel.SUPERRADIANT:
        modes = superradiant_modes(p)
    else:
        modes = normal_modes(p)
    ref = reference_variance(p)
    return SqueezingReport(
        xi=modes.eps_minus / min(p.omega, p.omega0),
        reference_variance=ref,
        quadrature_id="p_minus",
        temperature=0.0,
    )


def single_mode_variances(p: DickeParams) -> tuple[float, float]:
    """Ground-state variances (var_px, var_py) of the bare momentum
    quadratures in the normal phase:

        var_px = (eps_minus/2) cos^2 gamma + (eps_plus/2) sin^2 gamma
        var_py = (eps_minus/2) sin^2 gamma + (eps_plus/2) cos^2 gamma
    """
    m = normal_modes(p)
    c2 = math.cos(m.gamma) ** 2
    s2 = math.sin(m.gamma) ** 2
    var_px = 0.5 * (m.eps_minus * c2 + m.eps_plus * s2)
    var_py = 0.5 * (m.eps_minus * s2 + m.eps_plus * c2)
    return var_px, var_py


def two_mode_quadrature_coefficients(p: DickeParams) -> tuple[float, float]:
    """Weights (boson, spin) of the optimally squeezed two-mode quadrature,

        p_minus = i sqrt(omega/2) cos(gamma) (a' - a)
                  - i sqrt(omega0/2) sin(gamma) (b' - b),

    returned as (sqrt(omega/2) cos gamma, sqrt(omega0/2) sin gamma). The
    finite-size quadratures (``ed.p_d``, ``ed.p_minus_k0``) compute their
    own weights from their instance's mixing angle.
    """
    m = normal_modes(p)
    return (
        math.sqrt(p.omega / 2.0) * math.cos(m.gamma),
        math.sqrt(p.omega0 / 2.0) * math.sin(m.gamma),
    )


def thermal_squeezing_ratios(p: DickeParams, temperatures) -> list[float]:
    """Squeezing ratio of the soft-mode quadrature at each temperature T >= 0
    in ``temperatures``:

        xi(T) = (eps_minus / min(omega, omega0)) * coth(eps_minus / (2 T)).

    The phase check and the normal modes are evaluated once; only coth runs
    per temperature, in scalar ``math`` so every entry is bit-identical to a
    one-temperature call. T = 0 gives the ground-state ratio. A critical
    instance (eps_minus = 0) at T > 0 genuinely diverges and gives xi = inf
    so sweeps can record it; a T so large that eps_minus/(2T) underflows
    gives the large-T limit 2T/min(omega, omega0), inf for T = inf.
    Superradiant inputs are rejected: the quadratic treatment is invalid near
    and above the classical transition temperature there. A T < 0, a NaN or
    a bool rejects all of ``temperatures``.
    """
    (xis,) = thermal_squeezing_map((p,), temperatures)
    return xis


def thermal_squeezing_map(params, temperatures) -> list[list[float]]:
    """``thermal_squeezing_ratios`` of each instance in ``params`` over one
    temperature list, which is read and checked once, before any instance:
    a T < 0, a NaN or a bool rejects all of ``temperatures``."""
    temperatures = list(temperatures)  # read for every instance, so no iterator runs dry
    bad = [t for t in temperatures if not t >= 0 or t.__class__ is bool]
    if bad:
        raise ValueError(f"temperature must be a number >= 0, got {bad[0]!r}")
    return [_thermal_ratios(p, temperatures) for p in params]


def _thermal_ratios(p: DickeParams, temperatures: list) -> list[float]:
    """``thermal_squeezing_ratios`` of ``p`` at checked ``temperatures``."""
    if classify_phase(p) is PhaseLabel.SUPERRADIANT:
        raise SuperradiantInputError(
            "thermal squeezing ratio is defined in the normal phase only"
        )
    eps = normal_modes(p).eps_minus
    omega_min = min(p.omega, p.omega0)
    ground = eps / omega_min
    if eps == 0.0:
        return [math.inf if t else ground for t in temperatures]
    # coth(x) = 1 + 2/expm1(2x), accurate for small x, inline because this
    # loop is most of a thermal map's compute time
    expm1 = math.expm1
    xis = []
    for t in temperatures:
        x = eps / (2.0 * t) if t else math.inf
        if x >= 20.0:
            # T = 0, or coth(x) is 1.0 to double precision
            xis.append(ground)
        elif x:
            xis.append(ground * (1.0 + 2.0 / expm1(2.0 * x)))
        else:
            # eps/(2T) underflowed (2T overflows near T = 1e308): coth(x) -> 1/x
            # leaves the large-T limit xi = 2T/min(omega, omega0), inf where
            # that overflows too
            xis.append(2.0 * (t / omega_min))
    return xis


def thermal_squeezing_ratio(p: DickeParams, temperature: float) -> SqueezingReport:
    """``thermal_squeezing_ratios`` at one temperature, with its normalization."""
    (xi,) = thermal_squeezing_ratios(p, (temperature,))
    return SqueezingReport(
        xi=xi,
        reference_variance=reference_variance(p),
        quadrature_id="p_minus",
        temperature=temperature or 0.0,
    )


def classical_critical_temperature(p: DickeParams) -> float:
    """Temperature of the classical ordered-to-normal transition,

        T_c = omega0 / (2 atanh(omega*omega0 / (4 g^2))),

    defined for a2_coeff = 0 and g > g_c (T_c -> 0 as g -> g_c from above).
    """
    if p.a2_coeff != 0:
        raise ValueError("classical critical temperature requires a2_coeff = 0")
    arg = p.omega * p.omega0 / (4.0 * p.g**2) if p.g > 0 else math.inf
    if arg >= 1.0:
        raise ValueError("no superradiant phase at T>0: g must exceed sqrt(omega*omega0)/2")
    return p.omega0 / (2.0 * math.atanh(arg))


def spin_squeezing_parameter(var_py: float, omega0: float) -> float:
    """Collective spin-squeezing parameter from the spin momentum variance.

    The standard spin definition 4*Var(S_perp)/N reduces, for the bosonized
    collective spin, to 2*var_py/omega0; values below 1 witness entanglement.
    """
    if var_py < 0:
        raise ValueError("var_py must be >= 0")
    if omega0 <= 0:
        raise ValueError("omega0 must be > 0")
    return 2.0 * var_py / omega0
