"""Shared domain types, parameter validation, and the spin-ladder mapping.

Conventions used throughout the package: hbar = k_B = 1, every frequency and
coupling is an energy, and dimensionless ratios are formed on demand.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass

# An "a << b" separation-of-scales condition is flagged once a > 0.1 * b.
SCALE_SEPARATION_RATIO = 0.1


class PhaseLabel(enum.Enum):
    """Ground-state phase of a model instance."""

    NORMAL = "normal"
    SUPERRADIANT = "superradiant"
    NO_TRANSITION = "no-transition"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def real_number(name: str, value) -> float:
    """``value`` as a float; a ValueError naming ``name`` rejects anything
    but a real number. NaN and +-inf pass."""
    if type(value) is float:
        return value
    # a bool is a Real to Python, but a JSON true is no number
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    _require(real, f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the double range
        return math.inf if value > 0 else -math.inf


def finite_real(name: str, value) -> float:
    """``value`` as a float; a ValueError naming ``name`` rejects non-real
    and non-finite values."""
    x = real_number(name, value)
    _require(math.isfinite(x), f"{name} must be finite, got {value!r}")
    return x


def real_at_least(name: str, value, minimum: float, *, strict: bool = False) -> float:
    """``value`` as a float; a ValueError naming ``name`` rejects anything but
    a finite real >= ``minimum`` (> ``minimum`` where ``strict``)."""
    message = f"{name} must be a finite number {'>' if strict else '>='} {minimum:g}, got {value!r}"
    try:
        x = finite_real(name, value)
    except ValueError:
        raise ValueError(message) from None
    _require(x > minimum if strict else x >= minimum, message)
    return x


def squared(name: str, value: float) -> float:
    """value**2; a ValueError naming ``name`` where it overflows double
    precision, which ``**`` raises as an OverflowError."""
    try:
        return value**2
    except OverflowError:
        raise ValueError(f"{name}**2 overflows double precision at {name}={value:g}") from None


def integer_at_least(name: str, value, minimum: int) -> int:
    """``value`` as an int; a ValueError naming ``name`` rejects anything but
    an integral real >= ``minimum``."""
    # an Integral skips isfinite, which overflows on ints beyond float range;
    # a bool is an Integral, but a JSON true is no count
    ok = not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and math.isfinite(value) and int(value) == value)
    )
    _require(ok and value >= minimum, f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


_FLOAT_FIELDS = ("omega", "omega0", "g", "a2_coeff")


@dataclass(frozen=True)
class DickeParams:
    """Parameters of a single-mode Dicke model instance.

    Attributes
    ----------
    omega : float
        Boson frequency.
    omega0 : float
        Spin splitting along the quantization axis.
    g : float
        Collective spin-boson coupling.
    n_spins : int
        Number of spins N.
    a2_coeff : float
        Coefficient D of the squared boson-displacement term D(a+a')^2,
        zero for a plain Dicke model.

    omega, omega0, g and a2_coeff must be finite real numbers and are stored
    as floats; n_spins is stored as an int.
    """

    omega: float
    omega0: float
    g: float
    n_spins: int = 1
    a2_coeff: float = 0.0

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            object.__setattr__(self, name, finite_real(name, getattr(self, name)))
        object.__setattr__(self, "n_spins", integer_at_least("n_spins", self.n_spins, 1))
        _require(self.omega > 0, "omega must be > 0")
        _require(self.omega0 > 0, "omega0 must be > 0")
        _require(self.g >= 0, "g must be >= 0")
        _require(self.a2_coeff >= 0, "a2_coeff must be >= 0")


_LADDER_FLOAT_FIELDS = ("j_r", "j_b", "j_rb_x", "j_rb_y", "j_rb_z", "omega_r", "omega_b")


@dataclass(frozen=True)
class LadderParams:
    """Two-leg spin ladder with intra-leg exchange and inter-leg coupling.

    The fast leg (exchange ``j_r``, splitting ``omega_r``) provides dispersing
    collective modes; the slow leg (``j_b``, ``omega_b``) provides the
    near-independent spins. ``j_rb_*`` are the inter-leg exchange components.
    Every field but n_sites must be a finite real number and is stored as a
    float.
    """

    j_r: float
    j_b: float
    j_rb_x: float
    j_rb_y: float
    j_rb_z: float
    omega_r: float
    omega_b: float
    n_sites: int

    def __post_init__(self):
        for name in _LADDER_FLOAT_FIELDS:
            object.__setattr__(self, name, finite_real(name, getattr(self, name)))
        object.__setattr__(self, "n_sites", integer_at_least("n_sites", self.n_sites, 2))
        _require(self.omega_r > 0, "omega_r must be > 0")
        _require(self.omega_b > 0, "omega_b must be > 0")
        _require(self.j_r >= 0, "j_r must be >= 0 (ferromagnetic leg)")
        _require(self.j_b >= 0, "j_b must be >= 0 (ferromagnetic leg)")


@dataclass(frozen=True)
class DickeMode:
    """One momentum mode of the effective multimode model."""

    k: float
    omega_k: float
    g_x: float
    g_y: float


@dataclass(frozen=True)
class EffectiveDickeSpec:
    """Effective multimode Dicke description of a ladder.

    ``modes`` covers every momentum 2*pi*j/N exactly once. ``validity_flags``
    lists separation-of-scales conditions the input violates; violations are
    informational, not errors. The collective 1/sqrt(N) normalization is not
    folded into the couplings here; the Hamiltonian builders carry it.
    """

    modes: tuple[DickeMode, ...]
    validity_flags: tuple[str, ...]
    omega_b: float
    n_sites: int

    def dicke_params(self, mode_index: int) -> DickeParams:
        """Single-mode parameters consumed by the Hamiltonian builders."""
        m = self.modes[mode_index]
        return DickeParams(
            omega=m.omega_k, omega0=self.omega_b, g=m.g_x, n_spins=self.n_sites
        )


def map_ladder_to_dicke(lp: LadderParams) -> EffectiveDickeSpec:
    """Map a spin ladder onto its effective multimode Dicke description.

    The fast leg is bosonized about its ordered ground state, giving one mode
    per momentum with dispersion omega_k = omega_r + j_r*(1 - cos k); the slow
    leg couples collectively through the x and y inter-leg exchange. The
    z-component exchange is accepted but excluded: near the ordered ground
    state it only produces a nonlinear (negligible) boson term, and a flag
    records the exclusion.
    """
    flags = []
    if lp.j_b > SCALE_SEPARATION_RATIO * lp.j_r:
        flags.append(
            f"j_b << j_r violated: j_b={lp.j_b:g} > "
            f"{SCALE_SEPARATION_RATIO:g}*j_r={SCALE_SEPARATION_RATIO * lp.j_r:g}"
        )
    if lp.j_b > SCALE_SEPARATION_RATIO * lp.omega_b:
        flags.append(
            f"j_b << omega_b violated: j_b={lp.j_b:g} > "
            f"{SCALE_SEPARATION_RATIO:g}*omega_b={SCALE_SEPARATION_RATIO * lp.omega_b:g}"
        )
    if lp.j_rb_z != 0:
        flags.append(
            "j_rb_z stored but excluded from the effective model "
            "(nonlinear boson term, negligible near the ordered ground state)"
        )
    n = lp.n_sites
    modes = tuple(
        DickeMode(
            k=2.0 * math.pi * j / n,
            omega_k=lp.omega_r + lp.j_r * (1.0 - math.cos(2.0 * math.pi * j / n)),
            g_x=lp.j_rb_x,
            g_y=lp.j_rb_y,
        )
        for j in range(n)
    )
    return EffectiveDickeSpec(
        modes=modes, validity_flags=tuple(flags), omega_b=lp.omega_b, n_sites=n
    )


def normal_product(what: str, x: float, y: float, **shown: float) -> float:
    """x*y; a ValueError that ``what`` leaves double precision, at the
    ``shown`` values, unless it lies in the normal doubles: the range rule of
    each closed form that reads such a product, where an inf or a digitless
    underflow would misplace the transition or the angle with no error."""
    product = x * y
    if not sys.float_info.min <= product <= sys.float_info.max:
        at = ", ".join(f"{name}={value:g}" for name, value in shown.items())
        raise ValueError(f"{what} leaves double precision at {at}")
    return product


def bare_critical_coupling(omega: float, omega0: float) -> float:
    """g_c = sqrt(omega*omega0)/2 of the model without a squared-displacement
    term; ValueError where omega*omega0 leaves the normal doubles."""
    shown = {"omega": omega, "omega0": omega0}
    return math.sqrt(normal_product("omega*omega0", omega, omega0, **shown)) / 2.0


def critical_coupling(p: DickeParams) -> float | None:
    """Coupling at which the soft normal mode of ``p`` would vanish.

    For a2_coeff = 0 this is ``bare_critical_coupling``. For a2_coeff > 0 the
    squared-displacement coefficient is treated as tracking g^2 at the
    instance's ratio (as it does for electromagnetic couplings constrained by
    the TRK sum rule), so the critical coupling solves

        g_c^2 * (1 - a2_coeff*omega0/g^2) = omega*omega0/4.

    Returns None when a2_coeff >= g^2/omega0, or when 1 - a2_coeff*omega0/g^2
    rounds to <= 0: no coupling strength produces a transition in that
    regime. The returned value grows continuously and diverges as a2_coeff
    approaches g^2/omega0 from below. ValueError where omega*omega0 leaves
    the normal doubles, as in every case.
    """
    bare = bare_critical_coupling(p.omega, p.omega0)
    if p.a2_coeff == 0:
        return bare
    g2 = squared("g", p.g)
    if p.g == 0 or p.a2_coeff >= g2 / p.omega0:
        return None
    # a2_coeff*omega0/g^2 may round to 1 where a2_coeff < g^2/omega0 did not
    factor = 1.0 - p.a2_coeff * p.omega0 / g2
    return bare / math.sqrt(factor) if factor > 0.0 else None


def _normal_sector(p: DickeParams) -> tuple[str, float, float, float]:
    """(what, w, e, g) that ``normal_modes`` diagonalizes, any A^2 term absorbed,
    w = sqrt(omega*(omega+4D)) and g/(1+4D/omega)^(1/4); ``what`` names w*e."""
    if p.a2_coeff == 0:
        return "omega*omega0", p.omega, p.omega0, p.g
    scale = 1.0 + 4.0 * p.a2_coeff / p.omega
    return "omega_tilde*omega0", p.omega * math.sqrt(scale), p.omega0, p.g / scale**0.25


def beyond_critical(what: str, w: float, e: float, g: float, **shown: float) -> bool:
    """The phase verdict of every closed form: g > g_c = sqrt(w*e)/2, the
    ``bare_critical_coupling`` of a normal-side sector (w, e, g), its range
    rule ``normal_product(what, w, e, **shown)``."""
    return g > math.sqrt(normal_product(what, w, e, **shown)) / 2.0


def classify_phase(p: DickeParams) -> PhaseLabel:
    """Superradiant where ``beyond_critical`` says so of ``_normal_sector(p)``
    (g^2 > omega*omega0/4 + a2_coeff*omega0 to rounding); else no transition
    where ``critical_coupling``'s TRK form finds none; else normal."""
    if beyond_critical(*_normal_sector(p), omega=p.omega, omega0=p.omega0):
        return PhaseLabel.SUPERRADIANT
    return PhaseLabel.NO_TRANSITION if critical_coupling(p) is None else PhaseLabel.NORMAL


def ladder_params_from_dict(d: dict) -> LadderParams:
    """The ``ladder`` section of a CLI config, keys exactly the field names;
    ValueError naming any other key."""
    fields = (*_LADDER_FLOAT_FIELDS, "n_sites")
    unknown = set(d) - set(fields)
    if unknown:
        raise ValueError(f"unknown ladder parameter keys: {sorted(unknown)}")
    return LadderParams(**{f: d[f] for f in fields if f in d})
