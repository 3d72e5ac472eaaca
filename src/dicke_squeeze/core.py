"""Shared domain types, parameter validation, and the spin-ladder mapping.

Conventions used throughout the package: hbar = k_B = 1, every frequency and
coupling is an energy, and dimensionless ratios are formed on demand.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
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

    omega, omega0, g and a2_coeff must be real numbers and are stored as
    floats; non-finite values are rejected.
    """

    omega: float
    omega0: float
    g: float
    n_spins: int = 1
    a2_coeff: float = 0.0

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if type(value) is not float:
                _require(
                    isinstance(value, numbers.Real),
                    f"{name} must be a real number, got {value!r}",
                )
                object.__setattr__(self, name, float(value))
        _require(0 < self.omega < math.inf, "omega must be finite and > 0")
        _require(0 < self.omega0 < math.inf, "omega0 must be finite and > 0")
        _require(0 <= self.g < math.inf, "g must be finite and >= 0")
        _require(0 <= self.a2_coeff < math.inf, "a2_coeff must be finite and >= 0")
        _require(
            int(self.n_spins) == self.n_spins and self.n_spins >= 1,
            "n_spins must be an integer >= 1",
        )


@dataclass(frozen=True)
class LadderParams:
    """Two-leg spin ladder with intra-leg exchange and inter-leg coupling.

    The fast leg (exchange ``j_r``, splitting ``omega_r``) provides dispersing
    collective modes; the slow leg (``j_b``, ``omega_b``) provides the
    near-independent spins. ``j_rb_*`` are the inter-leg exchange components.
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
        _require(self.omega_r > 0, "omega_r must be > 0")
        _require(self.omega_b > 0, "omega_b must be > 0")
        _require(self.j_r >= 0, "j_r must be >= 0 (ferromagnetic leg)")
        _require(self.j_b >= 0, "j_b must be >= 0 (ferromagnetic leg)")
        _require(
            int(self.n_sites) == self.n_sites and self.n_sites >= 2,
            "n_sites must be an integer >= 2",
        )


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


def critical_coupling(p: DickeParams) -> float | None:
    """Coupling at which the soft normal mode of ``p`` would vanish.

    For a2_coeff = 0 this is sqrt(omega*omega0)/2. For a2_coeff > 0 the
    squared-displacement coefficient is treated as tracking g^2 at the
    instance's ratio (as it does for electromagnetic couplings constrained by
    the TRK sum rule), so the critical coupling solves

        g_c^2 * (1 - a2_coeff*omega0/g^2) = omega*omega0/4.

    Returns None when a2_coeff >= g^2/omega0: no coupling strength produces a
    transition in that regime. The returned value grows continuously and
    diverges as a2_coeff approaches g^2/omega0 from below.
    """
    bare = math.sqrt(p.omega * p.omega0) / 2.0
    if p.a2_coeff == 0:
        return bare
    if p.g == 0 or p.a2_coeff >= p.g**2 / p.omega0:
        return None
    return bare / math.sqrt(1.0 - p.a2_coeff * p.omega0 / p.g**2)


def classify_phase(p: DickeParams) -> PhaseLabel:
    """Phase of the instance: normal, superradiant, or no transition at all.

    Consistent with the normal-mode criterion: the instance is superradiant
    exactly when g^2 > omega*omega0/4 + a2_coeff*omega0.
    """
    gc = critical_coupling(p)
    if gc is None:
        return PhaseLabel.NO_TRANSITION
    return PhaseLabel.SUPERRADIANT if p.g > gc else PhaseLabel.NORMAL


# -- JSON ingestion ----------------------------------------------------------
#
# Plain-text key/value configuration, reference format JSON (UTF-8), with keys
# exactly matching the dataclass field names. The CLI reuses this schema.

def dicke_params_from_dict(d: dict) -> DickeParams:
    known = {f: d[f] for f in ("omega", "omega0", "g", "n_spins", "a2_coeff") if f in d}
    unknown = set(d) - {"omega", "omega0", "g", "n_spins", "a2_coeff"}
    if unknown:
        raise ValueError(f"unknown model parameter keys: {sorted(unknown)}")
    return DickeParams(**known)


def ladder_params_from_dict(d: dict) -> LadderParams:
    fields = ("j_r", "j_b", "j_rb_x", "j_rb_y", "j_rb_z", "omega_r", "omega_b", "n_sites")
    unknown = set(d) - set(fields)
    if unknown:
        raise ValueError(f"unknown ladder parameter keys: {sorted(unknown)}")
    return LadderParams(**{f: d[f] for f in fields if f in d})


def dicke_params_from_file(path) -> DickeParams:
    with open(path, encoding="utf-8") as fh:
        return dicke_params_from_dict(json.load(fh))


def ladder_params_from_file(path) -> LadderParams:
    with open(path, encoding="utf-8") as fh:
        return ladder_params_from_dict(json.load(fh))
