"""First-order perturbation theory for squeezing with dilute defect spins.

N clean spins couple collectively; m defect spins carry individual splittings
omega' and couplings g'. The clean sector is diagonalized with the coupling
renormalized to gbar = g*sqrt(N/(N+m)) and the defect coupling is treated to
first order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bogoliubov import normal_modes
from .core import DickeParams, finite_real, integer_at_least

# A defect is flagged non-perturbative when alpha*cos(gammabar)*g' exceeds
# this fraction of |omega'|.
PERTURBATIVITY_THRESHOLD = 0.1


class CriticalSectorError(ValueError):
    """The renormalized clean sector is critical (eps_minus_bar = 0), where
    the first-order formula divides by zero."""


@dataclass(frozen=True)
class DisorderEnsemble:
    """N clean spins plus an explicit list of (omega_prime, g_prime) defects.

    omega_prime may be negative (defect aligned against the clean spins) but
    never zero: a vanishing splitting closes the perturbative gap. Both must
    be finite real numbers and are stored as floats.
    """

    n_clean: int
    defects: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "n_clean", integer_at_least("n_clean", self.n_clean, 1))
        defects = tuple(_defect(i, defect) for i, defect in enumerate(self.defects))
        object.__setattr__(self, "defects", defects)
        for i, (w, gp) in enumerate(defects):
            if w == 0:
                raise ValueError(f"defect {i}: omega_prime must be nonzero")
            if gp < 0:
                raise ValueError(f"defect {i}: g_prime must be >= 0")

    @property
    def m(self) -> int:
        return len(self.defects)


def _defect(i: int, defect) -> tuple[float, float]:
    """Defect i as a pair of floats; ValueError naming it unless it is an
    (omega_prime, g_prime) pair of finite reals."""
    try:
        w, gp = defect
    except (TypeError, ValueError):
        raise ValueError(
            f"defect {i} must be an (omega_prime, g_prime) pair, got {defect!r}"
        ) from None
    return finite_real(f"defect {i}: omega_prime", w), finite_real(f"defect {i}: g_prime", gp)


@dataclass(frozen=True)
class PerturbativeReport:
    """Squeezing ratio split into its three additive contributions.

    xi = term_clean + term_pinned + term_coupling, with alpha the expansion
    parameter sqrt(omega/((N+m)*eps_minus_bar)) and gamma_bar the mixing
    angle of the renormalized clean sector. ``validity`` holds one flag
    per defect: defect i is perturbative while alpha*cos(gammabar)*g'_i stays
    within PERTURBATIVITY_THRESHOLD*|omega'_i|, and False marks it outside.
    """

    xi: float
    alpha: float
    term_clean: float
    term_pinned: float
    term_coupling: float
    gamma_bar: float
    validity: tuple[bool, ...]


def renormalized_coupling(g: float, n_clean: int, m: int) -> float:
    """Collective coupling seen by the clean spins: gbar = g*sqrt(N/(N+m)).
    ValueError unless g is a finite real number, N an integer >= 1 and m
    one >= 0."""
    g = finite_real("g", g)
    n_clean = integer_at_least("n_clean", n_clean, 1)
    m = integer_at_least("m", m, 0)
    return g * math.sqrt(n_clean / (n_clean + m))


def disorder_xi_perturbative(p: DickeParams, d: DisorderEnsemble) -> PerturbativeReport:
    """First-order squeezing ratio of the all-spin quadrature with defects.

    xi = eps_bar/omega                                        (clean sector)
         + sin^2(gammabar) * (omega0/omega) * m/(N+m)         (pinned defects)
         - (alpha cos gammabar / omega) * sqrt(eps_bar*omega0/(N+m))
           * sum_i 2<S_z^i> g'_i / (eps_bar + |omega'_i|)     (defect coupling)

    where <S_z^i> = -sign(omega'_i)/2 for the product ground state of the
    defects (a negative-splitting defect points up, and its gap enters through
    |omega'_i|). The coupling term is positive for down-pointing defects:
    disorder degrades the squeezing in proportion to the dilution m/(N+m).
    ValueError where a term overflows double precision.
    """
    modes = normal_modes(replace(p, g=renormalized_coupling(p.g, d.n_clean, d.m)))
    eps, gamma = modes.eps_minus, modes.gamma
    if eps == 0.0:
        raise CriticalSectorError("perturbation theory invalid: eps_minus_bar = 0")
    total = d.n_clean + d.m
    alpha = math.sqrt(p.omega / (total * eps))
    term_clean = eps / p.omega
    term_pinned = (math.sin(gamma) ** 2) * (p.omega0 / p.omega) * d.m / total
    s = sum(-math.copysign(1.0, w) * gp / (eps + abs(w)) for w, gp in d.defects)
    term_coupling = (
        -(alpha * math.cos(gamma) / p.omega) * math.sqrt(eps * p.omega0 / total) * s
    )
    xi = term_clean + term_pinned + term_coupling
    if not math.isfinite(xi):
        raise ValueError(f"the perturbative xi overflows double precision: {xi!r}")
    return PerturbativeReport(
        xi=xi,
        alpha=alpha,
        term_clean=term_clean,
        term_pinned=term_pinned,
        term_coupling=term_coupling,
        gamma_bar=gamma,
        validity=tuple(
            alpha * math.cos(gamma) * gp <= PERTURBATIVITY_THRESHOLD * abs(w)
            for w, gp in d.defects
        ),
    )
