import math

import numpy as np
import pytest

from dicke_squeeze import (
    DickeParams,
    IsingParams,
    SuperradiantInputError,
    critical_coupling_k,
    dicke_ising_modes,
    magnon_spectrum,
    mixing_angle_k,
    normal_modes,
)

# |exact - leading| / eta^2 approaches 1/4 at resonance; 0.3 bounds the small
# eta grid with margin (fitted once on eta in [0.01, 0.1] and frozen)
GAP_CONSTANT = 0.3


def _ip(eta, g=0.4, omega_k=1.0, omega0=1.0, n=6):
    return IsingParams(eta=eta, omega0=omega0, dispersion=omega_k, g=g, n_spins=n)


class TestMagnonSpectrum:
    def test_degenerate_at_zero_coupling(self):
        for k in (0.0, 1.0, math.pi):
            assert magnon_spectrum(_ip(0.0), k).E_k == 1.0

    def test_node_at_half_pi(self):
        for eta in (-0.3, 0.1, 0.25):
            assert magnon_spectrum(_ip(eta), math.pi / 2).E_k == pytest.approx(1.0, abs=1e-15)

    def test_linear_order_values(self):
        mode = magnon_spectrum(_ip(0.1), 0.0)
        assert mode.E_k == pytest.approx(1.2, abs=1e-15)

    def test_ferromagnetic_minimum_at_zero_momentum(self):
        ip = _ip(-0.2)
        energies = [magnon_spectrum(ip, k).E_k for k in np.linspace(0, math.pi, 20)]
        assert energies[0] == min(energies)

class TestDickeIsingModes:
    def test_reduction_to_single_mode(self):
        for w_k, w0, g in ((1.0, 1.0, 0.3), (0.8, 1.7, 0.4), (2.0, 0.5, 0.2)):
            for k in (0.0, 1.1, math.pi):
                mode = dicke_ising_modes(_ip(0.0, g=g, omega_k=w_k, omega0=w0), k)
                ref = normal_modes(DickeParams(w_k, w0, g))
                assert mode.eps_minus_k == pytest.approx(ref.eps_minus, abs=1e-14)
                assert mode.eps_plus_k == pytest.approx(ref.eps_plus, abs=1e-14)
                assert mode.gamma_k == pytest.approx(ref.gamma, abs=1e-14)

    def test_trace_determinant_with_renormalized_values(self):
        mode = dicke_ising_modes(_ip(0.1, g=0.4), 0.0)
        assert mode.E_k == pytest.approx(1.2)
        assert mode.g_tilde_k == pytest.approx(0.44)
        trace = mode.eps_minus_k**2 + mode.eps_plus_k**2
        det = (mode.eps_minus_k * mode.eps_plus_k) ** 2
        assert trace == pytest.approx(1 + 1.2**2, rel=1e-12)
        assert det == pytest.approx(1.2**2 - 4 * 0.44**2 * 1.2, rel=1e-12)

    def test_ferromagnetic_soft_direction(self):
        # J < 0 lowers the k=0 magnon below the bare splitting
        mode = dicke_ising_modes(_ip(-0.1, g=0.2), 0.0)
        assert mode.E_k == pytest.approx(0.8)
        assert mode.eps_minus_k < normal_modes(DickeParams(1, 1, 0.2 * 0.9)).eps_minus + 1e-12

    def test_superradiant_sector_signalled(self):
        with pytest.raises(SuperradiantInputError):
            dicke_ising_modes(_ip(0.1, g=0.5), 0.0)

    def test_minus_is_minimum(self):
        for eta in (-0.2, 0.0, 0.15):
            for k in np.linspace(0, math.pi, 7):
                ip = _ip(eta, g=0.3)
                mode = dicke_ising_modes(ip, float(k))
                assert mode.eps_minus_k <= mode.eps_plus_k

    def test_momentum_reflection_symmetry(self):
        ip = _ip(0.12, g=0.35)
        for k in (0.4, 1.3, 2.5):
            a = dicke_ising_modes(ip, k)
            b = dicke_ising_modes(ip, -k)
            assert a.E_k == b.E_k
            assert a.eps_minus_k == b.eps_minus_k
            assert a.gamma_k == b.gamma_k

    def test_invalid_magnon_energy_raises(self):
        with pytest.raises(ValueError, match="magnon"):
            dicke_ising_modes(_ip(0.6), math.pi)


class TestCriticalCouplingK:
    def test_no_ising_limit(self):
        exact, leading = critical_coupling_k(_ip(0.0, omega_k=1.3), 0.7)
        assert exact == leading == math.sqrt(1.3) / 2

    def test_quadratic_gap_at_zero_momentum(self):
        exact, leading = critical_coupling_k(_ip(0.1), 0.0)
        assert exact == pytest.approx(math.sqrt(1.2) / 2.2, rel=1e-14)
        assert exact == pytest.approx(0.497930, abs=5e-7)
        assert leading == 0.5
        assert abs(exact - leading) == pytest.approx(2.07e-3, abs=5e-5)

    def test_pi_momentum_value(self):
        exact, _ = critical_coupling_k(_ip(0.1), math.pi)
        assert exact == pytest.approx(math.sqrt(0.8) / 1.8, rel=1e-14)
        assert exact == pytest.approx(0.496904, abs=5e-7)

    def test_no_linear_shift(self):
        for eta in (0.01, 0.02, 0.05, 0.1):
            exact, leading = critical_coupling_k(_ip(eta), 0.0)
            assert abs(exact - leading) <= GAP_CONSTANT * eta * eta

    def test_negative_magnon_energy_rejected(self):
        with pytest.raises(ValueError, match="magnon"):
            critical_coupling_k(_ip(-0.6), 0.0)  # E_k = -0.2


    @pytest.mark.parametrize(
        "omega, omega0, g",
        # E_k^2 overflows (the angle was nan), and w_k E_k underflows (a
        # rounded-away 0)
        [(1e200, 1e200, 5e199), (1e-200, 1e-200, 5e-201)],
    )
    def test_mixing_angle_past_double_precision_is_rejected(self, omega, omega0, g):
        with pytest.raises(ValueError, match="mixing angle at k=0 leaves double precision"):
            mixing_angle_k(_ip(0.5, g=g, omega_k=omega, omega0=omega0), 0.0)

    @pytest.mark.parametrize(
        "eta, omega, omega0, g",
        [
            # sqrt(w_k E_k) overflowed: (inf, inf) came back with no error
            (0.1, 1e200, 1e200, 3e199),
            # w_k E_k underflowed: a rounded-away (0, 0)
            (0.1, 1e-200, 1e-200, 0.0),
            # E_k = 2e-4 omega0: w_k E_k fits, but w_k omega0 overflowed the
            # leading value
            (-0.4999, 9e153, 1e155, 0.0),
        ],
    )
    def test_critical_coupling_past_double_precision_is_rejected(self, eta, omega, omega0, g):
        with pytest.raises(ValueError, match="leaves double precision"):
            critical_coupling_k(_ip(eta, g=g, omega_k=omega, omega0=omega0), 0.0)

    @pytest.mark.parametrize(
        "eta, omega, omega0, g",
        # E_k^2 overflows while w_k E_k fits; at g = 0 the angle alone was 0
        [(0.3, 1e154, 1e154, 0.0), (0.0, 1e154, 1e154, 1e153), (0.0, 1e-100, 1e200, 0.0)],
    )
    def test_sector_past_double_precision_is_an_error_everywhere(self, eta, omega, omega0, g):
        ip = _ip(eta, g=g, omega_k=omega, omega0=omega0)
        for reader in (mixing_angle_k, dicke_ising_modes, critical_coupling_k):
            with pytest.raises(ValueError, match="double precision"):
                reader(ip, 0.0)


class TestSqueezedQuadratureCoefficients:
    """The squeezed quadrature at momentum k takes its weights from the
    sector's mixing angle: sqrt(w_k/2) cos gamma_k on the boson and
    sqrt(E_k/(2N)) sin gamma_k (1 - eta cos k) on the spins (``ed.p_minus_k0``
    at k = 0)."""

    def test_reduction_to_two_mode_coefficients(self):
        ip = _ip(0.0, g=0.3, omega_k=1.0, omega0=1.0, n=4)
        assert mixing_angle_k(ip, 0.0) == normal_modes(DickeParams(1, 1, 0.3)).gamma

    def test_renormalization_factor(self):
        # E_0 = 1.2 and g_0 = 0.44 at eta = 0.1
        gamma = mixing_angle_k(_ip(0.1, g=0.4, n=6), 0.0)
        assert gamma == pytest.approx(
            0.5 * math.atan2(4 * 0.44 * math.sqrt(1.2), 1.2**2 - 1.0), rel=1e-14
        )

    def test_defined_beyond_sector_criticality(self):
        # the angle stays available where the quadratic sector is already
        # ordered, as needed at the clean critical coupling for eta > 0
        ip = _ip(0.5, g=0.5)
        assert math.isfinite(mixing_angle_k(ip, 0.0))
        with pytest.raises(SuperradiantInputError):
            dicke_ising_modes(ip, 0.0)


class TestIsingParamsValidation:
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["eta", "omega0", "g", "dispersion"])
    def test_non_finite_value_rejected(self, field, bad):
        kwargs = dict(eta=0.1, omega0=1.0, dispersion=1.0, g=0.4, n_spins=6)
        kwargs[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            IsingParams(**kwargs)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("omega0", 0.0, "omega0 must be > 0"),
            # a negative dispersion constructed, and magnon_spectrum answered
            ("dispersion", -1.0, "dispersion must be > 0"),
            ("dispersion", 0.0, "dispersion must be > 0"),
            ("g", -0.1, "g must be >= 0"),
        ],
    )
    def test_out_of_range_value_rejected(self, field, value, message):
        kwargs = dict(eta=0.1, omega0=1.0, dispersion=1.0, g=0.4, n_spins=6)
        kwargs[field] = value
        with pytest.raises(ValueError, match=message):
            IsingParams(**kwargs)

    @pytest.mark.parametrize(
        "reader", [magnon_spectrum, mixing_angle_k, dicke_ising_modes, critical_coupling_k]
    )
    @pytest.mark.parametrize(
        "k, message",
        [(math.nan, "k must be finite"), (math.inf, "k must be finite"),
         ("0.1", "k must be a real number")],
    )
    def test_bad_momentum_rejected(self, reader, k, message):
        # magnon_spectrum gave E_k = nan, critical_coupling_k a bare math
        # domain error, and mixing_angle_k blamed double precision
        with pytest.raises(ValueError, match=message):
            reader(_ip(0.1), k)

    def test_non_real_values_rejected(self):
        with pytest.raises(ValueError, match="eta must be a real number"):
            IsingParams(eta="0.1", omega0=1.0, dispersion=1.0, g=0.4, n_spins=6)
        with pytest.raises(ValueError, match="n_spins must be an integer"):
            IsingParams(eta=0.1, omega0=1.0, dispersion=1.0, g=0.4, n_spins=math.nan)
        # the boson frequency is flat in k: a callable is no dispersion
        with pytest.raises(ValueError, match="dispersion must be a real number"):
            IsingParams(eta=0.1, omega0=1.0, dispersion=lambda k: 1.0, g=0.4, n_spins=6)
