"""Magnon treatment of the Dicke model with nearest-neighbor Ising coupling.

The spin chain (splitting omega0, Ising strength J = eta*omega0, ring
geometry) is bosonized to leading order: magnons with dispersion
E_k = omega0*(1 + 2 eta cos k) couple to the boson modes with a renormalized
per-momentum coupling g_k = g*(1 + eta cos k). Each momentum sector then
diagonalizes exactly like the single-mode model: ``_sector`` hands
``bogoliubov._pair_modes`` the (a^2, b^2, cross) = (w_k^2, E_k^2,
4 g_k sqrt(w_k E_k)) of the sector, and every per-k quantity here reads that
one evaluation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .bogoliubov import SuperradiantInputError, _pair_modes
from .core import finite_real, integer_at_least


@dataclass(frozen=True)
class IsingParams:
    """Dicke-Ising model parameters.

    eta        : Ising-to-splitting ratio J/omega0 (signed)
    omega0     : spin splitting
    dispersion : boson frequency, flat in k
    g          : collective spin-boson coupling
    n_spins    : chain length N (ring)

    eta, omega0, dispersion and g must be finite real numbers and are stored
    as floats; omega0 and dispersion must be > 0, g >= 0.
    """

    eta: float
    omega0: float
    dispersion: float
    g: float
    n_spins: int

    def __post_init__(self):
        for name in ("eta", "omega0", "dispersion", "g"):
            object.__setattr__(self, name, finite_real(name, getattr(self, name)))
        object.__setattr__(self, "n_spins", integer_at_least("n_spins", self.n_spins, 1))
        if self.omega0 <= 0:
            raise ValueError("omega0 must be > 0")
        if self.dispersion <= 0:
            raise ValueError(f"dispersion must be > 0, got {self.dispersion:g}")
        if self.g < 0:
            raise ValueError("g must be >= 0")

    def omega_k(self, k: float) -> float:
        return self.dispersion


@dataclass(frozen=True)
class MagnonMode:
    """Magnon data at one momentum; the coupled-mode fields are filled only by
    ``dicke_ising_modes``."""

    k: float
    E_k: float
    g_tilde_k: float | None = None
    eps_minus_k: float | None = None
    eps_plus_k: float | None = None
    gamma_k: float | None = None


def magnon_energy(ip: IsingParams, k: float) -> float:
    """Leading-order magnon dispersion E_k = omega0*(1 + 2 eta cos k);
    ValueError unless k is a finite real number."""
    return ip.omega0 * (1.0 + 2.0 * ip.eta * math.cos(finite_real("k", k)))


def magnon_spectrum(ip: IsingParams, k: float) -> MagnonMode:
    """Magnon energy at momentum k, to leading order in eta."""
    return MagnonMode(k=k, E_k=magnon_energy(ip, k))


def coupling_k(ip: IsingParams, k: float) -> float:
    """Momentum-dependent spin-boson coupling g_k = g*(1 + eta cos k)."""
    return ip.g * (1.0 + ip.eta * math.cos(k))


def _sector(ip: IsingParams, k: float):
    """(w_k, E_k, g_k, eps_minus_k^2, eps_plus_k^2, gamma_k) of the momentum-k
    sector, gamma_k = 0 at g_k = 0. ValueError where E_k <= 0, or where
    w_k E_k or the squared mode energies leave double precision: the angle
    would be a nan, or a rounded-away 0."""
    w_k = ip.omega_k(k)
    e_k = magnon_energy(ip, k)
    if e_k <= 0:
        raise ValueError(
            f"magnon description invalid at k={k:g}: E_k={e_k:g} <= 0 "
            f"(eta={ip.eta:g} too large in magnitude)"
        )
    g_k = coupling_k(ip, k)
    if not sys.float_info.min <= w_k * e_k <= sys.float_info.max:
        raise ValueError(
            f"mixing angle at k={k:g} leaves double precision: "
            f"w_k={w_k:g}, E_k={e_k:g}, g_k={g_k:g}"
        )
    em_sq, ep_sq, gamma = _pair_modes(w_k * w_k, e_k * e_k, 4.0 * g_k * math.sqrt(w_k * e_k))
    return w_k, e_k, g_k, em_sq, ep_sq, (gamma if g_k != 0.0 else 0.0)


def mixing_angle_k(ip: IsingParams, k: float) -> float:
    """Rotation angle diagonalizing the momentum-k sector, same branch as the
    single-mode model: gamma_k = atan2(4 g_k sqrt(w_k E_k), E_k^2 - w_k^2)/2.

    Defined for any parameters (it does not require the sector to be in the
    normal phase), so the squeezed quadrature's weights (``ed.p_minus_k0``)
    remain available at and beyond the per-momentum critical coupling. ValueError where w_k E_k or
    the sector's squared mode energies leave double precision.
    """
    return _sector(ip, k)[5]


def dicke_ising_modes(ip: IsingParams, k: float) -> MagnonMode:
    """Full normal-mode data of the momentum-k sector.

    eps_{pm,k}^2 = (w_k^2 + E_k^2 -+ sqrt((w_k^2-E_k^2)^2
                    + 16 g_k^2 w_k E_k))/2.

    Raises SuperradiantInputError when the sector is superradiant
    (eps_minus_k^2 < 0).
    """
    _, e_k, g_k, em_sq, ep_sq, gamma = _sector(ip, k)
    if em_sq < 0.0:
        raise SuperradiantInputError(
            f"momentum k={k:g} sector is superradiant (eps_minus_k^2 < 0)"
        )
    return MagnonMode(
        k=k,
        E_k=e_k,
        g_tilde_k=g_k,
        eps_minus_k=math.sqrt(em_sq),
        eps_plus_k=math.sqrt(ep_sq),
        gamma_k=gamma,
    )


def critical_coupling_k(ip: IsingParams, k: float) -> tuple[float, float]:
    """Critical coupling of the momentum-k sector.

    Returns (exact_within_quadratic, leading_order):

    - exact:   g such that g*(1+eta cos k) = sqrt(w_k E_k)/2, i.e.
               sqrt(w_k E_k)/(2 (1+eta cos k)); exact for the quadratic
               magnon model, itself valid to linear order in eta.
    - leading: sqrt(w_k omega0)/2, the eta-independent value. The two agree
               to O(eta^2): the Ising coupling does not shift the critical
               point at linear order.

    ValueError where w_k E_k or w_k omega0 leaves double precision.
    """
    w_k, e_k, *_ = _sector(ip, k)
    # E_k > 0 already guarantees 1 + eta*cos k > 1/2
    factor = 1.0 + ip.eta * math.cos(k)
    exact = math.sqrt(w_k * e_k) / (2.0 * factor)
    # E_k may lie far below omega0 (eta near -1/2), so w_k omega0 can
    # overflow where w_k E_k does not
    if not sys.float_info.min <= w_k * ip.omega0 <= sys.float_info.max:
        raise ValueError(
            f"leading critical coupling at k={k:g} leaves double precision: "
            f"w_k={w_k:g}, omega0={ip.omega0:g}"
        )
    leading = math.sqrt(w_k * ip.omega0) / 2.0
    return exact, leading

