import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dicke_squeeze import (
    DickeParams,
    DisorderEnsemble,
    PhaseLabel,
    SuperradiantInputError,
    classical_critical_temperature,
    classify_phase,
    disorder_xi_perturbative,
    normal_modes,
    squeezing_ratio_ground,
    superradiant_modes,
    thermal_squeezing_map,
    thermal_squeezing_ratio,
)
from dicke_squeeze import bogoliubov, cli, core
from dicke_squeeze.core import _normal_sector, critical_coupling, squared
from dicke_squeeze.ising import (
    IsingParams,
    coupling_k,
    critical_coupling_k,
    dicke_ising_modes,
    magnon_energy,
    mixing_angle_k,
)


def _pair_oracle(w, w0, g):
    # independent evaluation of the coupled-oscillator eigenvalues
    rad = math.sqrt((w0**2 - w**2) ** 2 + 16 * g * g * w * w0)
    return (
        math.sqrt((w * w + w0 * w0 - rad) / 2),
        math.sqrt((w * w + w0 * w0 + rad) / 2),
    )


class TestNormalModes:
    def test_resonant_critical_limits(self):
        m = normal_modes(DickeParams(1, 1, 0.5))
        assert m.eps_minus == 0.0
        assert m.eps_plus == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_detuned_point(self):
        # (5 -+ sqrt(17))/2 by direct substitution
        m = normal_modes(DickeParams(1, 2, 0.5))
        assert m.eps_minus == pytest.approx(math.sqrt((5 - math.sqrt(17)) / 2), abs=1e-14)
        assert m.eps_plus == pytest.approx(math.sqrt((5 + math.sqrt(17)) / 2), abs=1e-14)
        assert (m.eps_minus * m.eps_plus) ** 2 == pytest.approx(2.0, rel=1e-12)

    def test_trk_point_is_golden_ratio(self):
        # omega_t = sqrt(2), g_t = 0.5/2^(1/4) gives eps- = (sqrt(5)-1)/2
        m = normal_modes(DickeParams(1, 1, 0.5, a2_coeff=0.25))
        assert m.eps_minus == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-14)

    def test_superradiant_input_signalled(self):
        with pytest.raises(SuperradiantInputError):
            normal_modes(DickeParams(1, 1, 0.51))

    def test_renormalized_coupling_passthrough(self):
        # a renormalized coupling enters as the instance with g = gbar
        m = normal_modes(dataclasses.replace(DickeParams(1, 1, 0.9), g=0.3))
        assert m.eps_minus == pytest.approx(math.sqrt(1 - 0.6), abs=1e-15)

    def test_trace_and_determinant_identities(self):
        # 1e4 random draws across detuning and squared-displacement values
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            w = rng.uniform(0.2, 3.0)
            w0 = rng.uniform(0.2, 3.0)
            d = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.5)
            wt = math.sqrt(w * (w + 4 * d))
            gmax = 0.95 * math.sqrt(wt * w0) / 2 * (1 + 4 * d / w) ** 0.25
            g = rng.uniform(0.0, gmax)
            m = normal_modes(DickeParams(w, w0, g, a2_coeff=d))
            gt = g / (1 + 4 * d / w) ** 0.25
            trace = m.eps_minus**2 + m.eps_plus**2
            det = (m.eps_minus * m.eps_plus) ** 2
            assert trace == pytest.approx(wt * wt + w0 * w0, rel=1e-12)
            assert det == pytest.approx(wt * wt * w0 * w0 - 4 * gt * gt * wt * w0, rel=1e-12, abs=1e-12)

    def test_minimum_uncertainty_product(self):
        for g in (0.05, 0.2, 0.45):
            m = normal_modes(DickeParams(1.0, 1.3, g))
            dq = math.sqrt(1 / (2 * m.eps_minus))
            dp = math.sqrt(m.eps_minus / 2)
            assert dq * dp == pytest.approx(0.5, abs=1e-15)

    def test_gamma_branch_continuity_and_resonance(self):
        gs = np.linspace(1e-4, 0.499, 400)
        gammas = [normal_modes(DickeParams(1, 1.5, float(g))).gamma for g in gs]
        assert np.all(np.abs(np.diff(gammas)) < 0.05)
        for g in (1e-6, 0.1, 0.4999):
            assert normal_modes(DickeParams(1, 1, g)).gamma == pytest.approx(
                math.pi / 4, abs=1e-12
            )

    def test_gamma_zero_at_decoupling(self):
        assert normal_modes(DickeParams(1, 1, 0)).gamma == 0.0
        assert normal_modes(DickeParams(1, 2, 0)).gamma == 0.0

    def test_gamma_follows_the_softer_oscillator_at_decoupling(self):
        # omega0 < omega: the minus mode is the spin at g = 0 as for any g > 0
        assert normal_modes(DickeParams(1, 0.5, 0)).gamma == math.pi / 2
        assert normal_modes(DickeParams(1, 0.5, 1e-9)).gamma == pytest.approx(
            math.pi / 2, abs=1e-8
        )


class TestSuperradiantModes:
    def test_derived_point(self):
        # r = (g/gc)^2 = (0.6/0.5)^2; oracle evaluated independently
        r = (0.6 / 0.5) ** 2
        rad = math.sqrt((r * r - 1) ** 2 + 4)
        expected = math.sqrt((1 + r * r - rad) / 2)
        m = superradiant_modes(DickeParams(1, 1, 0.6))
        assert m.eps_minus == pytest.approx(expected, abs=1e-14)
        assert m.eps_minus == pytest.approx(0.63390, abs=5e-6)

    def test_soft_mode_vanishes_at_transition(self):
        m = superradiant_modes(DickeParams(1, 1, 0.5 * (1 + 1e-9)))
        assert m.eps_minus < 1e-4

    def test_deep_phase_approaches_bare_frequency(self):
        m = superradiant_modes(DickeParams(1, 1, 50.0))
        assert m.eps_minus == pytest.approx(1.0, abs=1e-4)

    def test_rejects_normal_phase_and_a2(self):
        with pytest.raises(ValueError, match="critical"):
            superradiant_modes(DickeParams(1, 1, 0.5))
        with pytest.raises(ValueError, match="a2_coeff"):
            superradiant_modes(DickeParams(1, 1, 0.9, a2_coeff=0.1))


class TestGroundSqueezing:
    def test_resonant_closed_form(self):
        for g in np.linspace(0.0, 0.4999, 100):
            report = squeezing_ratio_ground(DickeParams(1, 1, float(g)))
            assert report.xi == pytest.approx(math.sqrt(1 - 2 * g), abs=1e-12)

    def test_decoupled_is_unsqueezed(self):
        assert squeezing_ratio_ground(DickeParams(0.7, 2.3, 0)).xi == pytest.approx(
            1.0, abs=1e-14
        )

    def test_perfect_squeezing_at_critical_point(self):
        assert squeezing_ratio_ground(DickeParams(1, 1, 0.5)).xi == 0.0

    def test_reference_variance_uses_smaller_frequency(self):
        for w, w0 in ((1.0, 0.04), (0.04, 1.0)):
            p = DickeParams(w, w0, 0.05)
            assert squeezing_ratio_ground(p).xi == normal_modes(p).eps_minus / 0.04

    def test_superradiant_branch_increases_to_one(self):
        gs = np.linspace(0.501, 5.0, 200)
        xis = [squeezing_ratio_ground(DickeParams(1, 1, float(g))).xi for g in gs]
        assert all(a < b for a, b in zip(xis, xis[1:]))
        assert xis[-1] == pytest.approx(1.0, abs=2e-3)

    def test_no_go_curve_monotone_with_positive_gap(self):
        gs = np.linspace(0.0, 5.0, 500)
        xis = []
        for g in gs:
            p = DickeParams(1, 1, float(g), a2_coeff=float(g) ** 2)
            m = normal_modes(p)
            assert m.eps_minus > 0 or g == 0
            xis.append(m.eps_minus)
        assert all(a > b for a, b in zip(xis, xis[1:]))


    @pytest.mark.parametrize(
        "params, message",
        [
            # omega*omega0 overflows: g_c was inf, and the instance read as normal
            ((1e155, 1e155, 5e154), "omega*omega0 leaves double precision"),
            # (g/g_c)^2 overflows deep in the superradiant phase
            ((1.0, 1e-300, 1e100), "g/g_c**2 overflows"),
            # omega*omega0 underflows: g_c was 0, and g/g_c divided by it
            ((1e-200, 1e-200, 1e-201), "omega*omega0 leaves double precision"),
            # a normal instance whose squared energies overflow
            ((1e-100, 1e200, 1e49), "mode energies overflow"),
        ],
    )
    def test_finite_scales_past_double_precision_are_rejected(self, params, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            squeezing_ratio_ground(DickeParams(*params))

    def test_finite_scales_keep_their_ratio_in_range(self):
        # a power-of-two scale is exact: every in-range scale gives the same bits
        xi = squeezing_ratio_ground(DickeParams(1.0, 1.5, 0.3)).xi
        for k in (-480, -300, 300, 480):
            s = 2.0**k
            assert squeezing_ratio_ground(DickeParams(s, 1.5 * s, 0.3 * s)).xi == xi
        superradiant = squeezing_ratio_ground(DickeParams(1.0, 1.5, 0.9)).xi
        scaled = squeezing_ratio_ground(DickeParams(2.0**-300, 1.5 * 2.0**-300, 0.9 * 2.0**-300))
        assert scaled.xi == superradiant

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    @pytest.mark.parametrize(
        "reader, message",
        [
            (normal_modes, "omega*omega0 leaves double precision"),
            # normal_modes returned zeros at 1e-200, and this reported a
            # critical clean sector
            (
                lambda p: disorder_xi_perturbative(p, DisorderEnsemble(4, ((2 * p.omega, 0.0),))),
                "omega*omega0 leaves double precision",
            ),
            (squeezing_ratio_ground, "omega*omega0 leaves double precision"),
            (lambda p: thermal_squeezing_ratio(p, 0.1), "omega*omega0 leaves double precision"),
            (
                lambda p: mixing_angle_k(_ising(p), 0.0),
                "mixing angle at k=0 leaves double precision",
            ),
            (
                lambda p: critical_coupling_k(_ising(p), 0.0),
                "mixing angle at k=0 leaves double precision",
            ),
        ],
        ids=["normal_modes", "disorder", "ground", "thermal", "mixing_angle_k", "critical_k"],
    )
    def test_range_rule_holds_in_every_reader(self, reader, message, scale):
        # omega*omega0 (w_k*E_k per Ising sector) under- or overflows, where
        # each closed form would take the root of a 0 or an inf
        p = DickeParams(scale, scale, 0.1 * scale)
        with pytest.raises(ValueError, match=re.escape(message)) as raised:
            reader(p)
        assert type(raised.value) is ValueError

    def test_classical_critical_temperature_past_double_precision(self):
        with pytest.raises(ValueError, match=r"omega\*omega0 leaves double precision"):
            classical_critical_temperature(DickeParams(1e200, 1e200, 1e200))
        # omega*omega0/(4 g^2) underflows: atanh(0) = 0 was divided by
        with pytest.raises(ValueError, match="T_c overflows"):
            classical_critical_temperature(DickeParams(1.0, 1e-300, 1e100))
        with pytest.raises(ValueError, match=r"g\*\*2 overflows"):
            classical_critical_temperature(DickeParams(1.0, 1.0, 1e200))


def _ising(p):
    return IsingParams(eta=0.1, omega0=p.omega0, dispersion=p.omega, g=p.g, n_spins=4)


def _momentum_variances(p):
    """Ground-state variances (var_px, var_py) of the bare momentum
    quadratures, read from the normal modes: the minus mode holds
    cos^2 gamma of p_x and sin^2 gamma of p_y."""
    m = normal_modes(p)
    c2, s2 = math.cos(m.gamma) ** 2, math.sin(m.gamma) ** 2
    return 0.5 * (m.eps_minus * c2 + m.eps_plus * s2), 0.5 * (m.eps_minus * s2 + m.eps_plus * c2)


class TestSingleModeVariances:
    def test_decoupled(self):
        assert _momentum_variances(DickeParams(0.8, 1.7, 0)) == (0.4, 0.85)

    def test_critical_point_closed_forms(self):
        for w, w0 in ((1.0, 1.0), (1.0, 2.0)):
            gc = math.sqrt(w * w0) / 2
            var_px, var_py = _momentum_variances(DickeParams(w, w0, gc))
            norm = 2 * math.sqrt(w * w + w0 * w0)
            assert var_px == pytest.approx(w * w / norm, rel=1e-12)
            assert var_py == pytest.approx(w0 * w0 / norm, rel=1e-12)

    def test_sum_rule(self):
        p = DickeParams(1, 2, 0.5)
        m = normal_modes(p)
        var_px, var_py = _momentum_variances(p)
        assert var_px + var_py == pytest.approx((m.eps_minus + m.eps_plus) / 2, rel=1e-12)

    def test_rejects_superradiant(self):
        with pytest.raises(SuperradiantInputError):
            _momentum_variances(DickeParams(1, 1, 0.7))


class TestSpinSqueezingParameter:
    """The collective spin-squeezing parameter 4 Var(S_perp)/N reduces, for
    the bosonized spin, to 2 var_py/omega0."""

    def test_coherent_reference(self):
        assert 2.0 * _momentum_variances(DickeParams(1, 1, 0))[1] == 1.0

    def test_critical_resonance_value(self):
        assert 2.0 * _momentum_variances(DickeParams(1, 1, 0.5))[1] == pytest.approx(
            1 / math.sqrt(2), rel=1e-15
        )


class TestTwoModeCoefficients:
    """The soft-mode quadrature weighs the boson by sqrt(omega/2) cos gamma
    and the spin by sqrt(omega0/2) sin gamma."""

    def test_resonance_equal_weights(self):
        gamma = normal_modes(DickeParams(1, 1, 0.3)).gamma
        assert math.cos(gamma) == pytest.approx(math.sin(gamma), abs=1e-15)

    def test_fast_boson_limit_is_spin_only(self):
        gamma = normal_modes(DickeParams(50.0, 1.0, 0.5)).gamma
        assert math.cos(gamma) < 0.05
        assert math.sin(gamma) == pytest.approx(1.0, rel=1e-2)

    def test_weak_coupling_is_boson_only(self):
        gamma = normal_modes(DickeParams(1.0, 2.0, 1e-12)).gamma
        assert math.sin(gamma) < 1e-11
        assert math.cos(gamma) == pytest.approx(1.0, rel=1e-12)


class TestThermal:
    def test_zero_temperature_recovers_ground(self):
        report = thermal_squeezing_ratio(DickeParams(1, 1, 0.375), 0.0)
        assert report.xi == 0.5

    def test_quarter_temperature_point(self):
        # 0.5*coth(1) with coth(1) = (e^2+1)/(e^2-1)
        coth1 = (math.e**2 + 1) / (math.e**2 - 1)
        report = thermal_squeezing_ratio(DickeParams(1, 1, 0.375), 0.25)
        assert report.xi == pytest.approx(0.5 * coth1, rel=1e-14)
        assert report.xi == pytest.approx(0.65652, abs=5e-6)

    def test_high_temperature_asymptote(self):
        for t in (50.0, 500.0):
            xi = thermal_squeezing_ratio(DickeParams(1, 1, 0.375), t).xi
            assert xi == pytest.approx(2 * t, rel=1e-2)

    def test_monotone_in_temperature(self):
        temps = np.linspace(0.0, 2.0, 80)
        xis = [thermal_squeezing_ratio(DickeParams(1, 1.4, 0.3), float(t)).xi for t in temps]
        assert all(a < b for a, b in zip(xis, xis[1:]))

    def test_critical_point_diverges(self):
        assert thermal_squeezing_ratio(DickeParams(1, 1, 0.5), 0.1).xi == math.inf
        # just above g_c the instance is superradiant, in the thermal map as
        # in classify_phase: no band above g_c reads eps_minus = 0
        p = DickeParams(1, 1, 0.5 * (1.0 + 1e-13))
        with pytest.raises(SuperradiantInputError):
            thermal_squeezing_map([p], [0.0, 0.1])

    def test_superradiant_rejected(self):
        with pytest.raises(SuperradiantInputError):
            thermal_squeezing_ratio(DickeParams(1, 1, 0.7), 0.1)

    def test_small_argument_stability(self):
        # coth evaluated through expm1 stays accurate for tiny beta*eps
        xi = thermal_squeezing_ratio(DickeParams(1, 1, 0.5 - 5e-13), 1.0).xi
        eps = normal_modes(DickeParams(1, 1, 0.5 - 5e-13)).eps_minus
        assert xi == pytest.approx(eps * (2.0 / eps), rel=1e-8)


class TestBatchedThermal:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        omega=st.floats(0.2, 3.0),
        omega0=st.floats(0.2, 3.0),
        a2_coeff=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        fraction=st.floats(0.0, 1.0),
        temps=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=1, max_size=8),
    )
    # no transition (a2_coeff >= g^2/omega0), and normal with a2_coeff > 0
    @example(omega=1.0, omega0=1.0, a2_coeff=0.3, fraction=0.5, temps=[0.0, 0.2])
    @example(omega=1.0, omega0=1.0, a2_coeff=0.05, fraction=0.9, temps=[0.2, 0.0, 5.0])
    def test_batched_equals_scalar_bit_for_bit(self, omega, omega0, a2_coeff, fraction, temps):
        # g^2 <= omega*omega0/4 + a2_coeff*omega0 keeps the instance out of
        # the superradiant phase, up to rounding at fraction = 1
        g = fraction * math.sqrt(omega * omega0 / 4.0 + a2_coeff * omega0)
        p = DickeParams(omega, omega0, g, a2_coeff=a2_coeff)
        assume(classify_phase(p) is not PhaseLabel.SUPERRADIANT)
        batched = thermal_squeezing_map([p], temps)[0].tolist()
        assert batched == [thermal_squeezing_ratio(p, t).xi for t in temps]
        # and both follow the closed form, coth written through tanh here
        eps = normal_modes(p).eps_minus
        for t, xi in zip(temps, batched):
            if t == 0.0:
                assert xi == eps / min(omega, omega0)
            elif eps == 0.0:
                assert xi == math.inf
            else:
                expected = eps / min(omega, omega0) / math.tanh(eps / (2.0 * t))
                assert xi == pytest.approx(expected, rel=1e-12)

    def test_temperature_past_overflow_gives_the_large_t_limit(self):
        # 2T overflows, so eps/(2T) = 0: xi -> 2T/min(omega, omega0), inf where
        # that overflows too; T = inf itself is rejected (test below)
        assert thermal_squeezing_ratio(DickeParams(1, 1, 0.3), 1e308).xi == math.inf
        xis = thermal_squeezing_map([DickeParams(10, 10, 3)], [1e308, sys.float_info.max])
        assert xis.tolist() == [[2e307, 2.0 * (sys.float_info.max / 10.0)]]
        # the largest T below the underflow still takes the closed form
        xi = thermal_squeezing_map([DickeParams(10, 10, 3)], [1e300])[0, 0]
        assert xi == pytest.approx(2e299, rel=1e-12)

    def test_zero_temperature_and_critical_point(self):
        resonant, critical = [DickeParams(1, 1, 0.375)], [DickeParams(1, 1, 0.5)]
        assert thermal_squeezing_map(resonant, [0.0, 0.0]).tolist() == [[0.5, 0.5]]
        assert thermal_squeezing_map(critical, [0.0, 0.1, 2.0]).tolist() == [
            [0.0, math.inf, math.inf]
        ]
        assert thermal_squeezing_map(resonant, []).tolist() == [[]]
        assert thermal_squeezing_map(resonant, iter([0.0])).tolist() == [[0.5]]

    @pytest.mark.parametrize(
        "g, temperature, error, message",
        [
            pytest.param(0.7, 0.1, SuperradiantInputError, "normal phase", id="superradiant"),
            pytest.param(0.3, -0.1, ValueError, "temperature", id="negative-temperature"),
            # the temperature is checked before the phase on both paths
            pytest.param(0.7, -0.1, ValueError, "temperature", id="both"),
            pytest.param(0.3, math.nan, ValueError, "temperature", id="nan-temperature"),
            pytest.param(0.3, -math.nan, ValueError, "temperature", id="negative-nan"),
            # T = inf is no temperature: the Gibbs oracle and the CLI reject it too
            pytest.param(0.3, math.inf, ValueError, "temperature", id="inf-temperature"),
            # True is no temperature, not T = 1
            pytest.param(0.3, True, ValueError, "temperature", id="bool-temperature"),
            pytest.param(0.7, math.nan, ValueError, "temperature", id="both-nan"),
            # numpy's True is no T = 1 either
            pytest.param(0.3, np.True_, ValueError, "temperature", id="numpy-bool"),
            # an array conversion would parse "0.3"; none of these is a number
            pytest.param(0.3, "0.3", ValueError, "temperature", id="str-temperature"),
            pytest.param(0.3, None, ValueError, "temperature", id="none-temperature"),
            pytest.param(0.3, 1j, ValueError, "temperature", id="complex-temperature"),
            pytest.param(0.3, [0.2], ValueError, "temperature", id="list-temperature"),
        ],
    )
    def test_scalar_and_batched_reject_alike(self, g, temperature, error, message):
        p = DickeParams(1, 1, g)
        with pytest.raises(error, match=message) as scalar:
            thermal_squeezing_ratio(p, temperature)
        with pytest.raises(error, match=message) as batched:
            thermal_squeezing_map([p], [0.2, temperature])
        with pytest.raises(error, match=message) as mapped:
            thermal_squeezing_map([DickeParams(1, 1, 0.3), p], [0.2, temperature])
        assert type(scalar.value) is type(batched.value) is type(mapped.value)

    def test_numpy_scalar_temperatures_accepted(self):
        p = DickeParams(1, 1, 0.3)
        xis = thermal_squeezing_map([p], [np.float64(0.2), np.int64(1)])[0].tolist()
        assert xis == [thermal_squeezing_ratio(p, 0.2).xi, thermal_squeezing_ratio(p, 1.0).xi]
        assert thermal_squeezing_ratio(p, np.float64(0.2)).xi == xis[0]

    def test_map_equals_the_scalar_loop_bit_for_bit(self):
        # one array over instances and temperatures against one cell at a
        # time in Python floats: the critical instance's row diverges at
        # T > 0 only, T = 0 gives each ground ratio, 2/expm1 overflows at
        # 8e307, and 1e308 and the largest double take the large-T limit, with
        # no floating-point warning
        def one_cell(p, t):
            eps = normal_modes(p).eps_minus
            omega_min = min(p.omega, p.omega0)
            ground = eps / omega_min
            if eps == 0.0:
                return math.inf if t else ground
            x = eps / (2.0 * t) if t else math.inf
            if x >= 20.0:
                return ground
            if x:
                return ground * (1.0 + 2.0 / math.expm1(2.0 * x))
            return 2.0 * (t / omega_min)

        params = [DickeParams(1, 1, 0.3), DickeParams(1, 1, 0.5), DickeParams(10, 10, 3, a2_coeff=1)]
        temps = [0.0, 0.013, 0.2, 8e307, 1e308, sys.float_info.max]
        xis = thermal_squeezing_map(params, temps)
        assert xis.shape == (3, 6) and xis.dtype == np.float64
        for p, row in zip(params, xis.tolist()):
            assert [xi.hex() for xi in row] == [one_cell(p, t).hex() for t in temps]
        assert xis[1].tolist() == [0.0, *[math.inf] * 5]
        assert xis[0, 3] == math.inf
        assert thermal_squeezing_map([], temps).shape == (0, 6)
        assert thermal_squeezing_map(params, []).shape == (3, 0)

    def test_phase_is_classified_once_per_instance(self, monkeypatch):
        # normal_modes judges range and phase, so the map classifies nothing,
        # and the xi_thermal sweep once per g, for its superradiant mask
        calls = []

        def counted(p):
            calls.append(p.g)
            return core.classify_phase(p)

        for module in (bogoliubov, cli):
            monkeypatch.setattr(module, "classify_phase", counted)
        thermal_squeezing_map([DickeParams(1, 1, g) for g in (0.0, 0.3, 0.5)], [0.0, 0.1])
        assert calls == []
        gs = [0.0, 0.3, 0.5, 0.7]
        cfg = cli.resolve_config(
            "sweep", {"grids": {"g": gs, "kt": [0.0, 0.1]}, "sweep": {"quantity": "xi_thermal"}}
        )
        cli.run_sweep(cfg)
        assert calls == gs


class TestClassicalCriticalTemperature:
    def test_resonant_unit_coupling(self):
        # atanh(1/4) = log(5/3)/2, so T_c = 1/log(5/3)
        t_c = classical_critical_temperature(DickeParams(1, 1, 1.0))
        assert t_c == pytest.approx(1.0 / math.log(5 / 3), rel=1e-14)
        assert t_c == pytest.approx(1.957615, abs=1e-5)

    def test_vanishes_at_transition(self):
        # the approach is logarithmic in g - g_c, so check the trend
        values = [
            classical_critical_temperature(DickeParams(1, 1, 0.5 + delta))
            for delta in (1e-3, 1e-6, 1e-9)
        ]
        assert values[0] > values[1] > values[2]
        assert values[2] < 0.06

    def test_rejects_normal_phase(self):
        with pytest.raises(ValueError, match="no superradiant phase"):
            classical_critical_temperature(DickeParams(1, 1, 0.5))


def _raises(f, *args):
    """The type of the ValueError f(*args) raises, or None."""
    try:
        f(*args)
    except ValueError as err:
        return type(err)
    return None


class TestOnePhaseVerdict:
    """Every closed form takes its phase from one comparison, g > g_c, so
    they agree on each instance, however far from resonance."""

    DETUNINGS = [1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8]  # omega/omega0
    FRACTIONS = [0.5, 1 - 1e-13, 1.0, 1 + 1e-15, 1 + 1e-13, 1 + 1e-12, 1.01, 1.5, 50.0]  # g/g_c

    @staticmethod
    def _assert_agree(p):
        superradiant = classify_phase(p) is PhaseLabel.SUPERRADIANT
        error = SuperradiantInputError if superradiant else None
        assert _raises(normal_modes, p) is error
        assert _raises(thermal_squeezing_map, [p], [0.0, 0.1]) is error
        return superradiant

    @pytest.mark.parametrize("ratio", DETUNINGS)
    def test_ideal_model(self, ratio):
        gc = core.bare_critical_coupling(ratio, 1.0)
        phases = []
        for f in self.FRACTIONS:
            p = DickeParams(ratio, 1.0, f * gc)
            superradiant = self._assert_agree(p)
            assert (_raises(superradiant_modes, p) is None) is superradiant
            assert (_raises(classical_critical_temperature, p) is None) is superradiant
            ip = IsingParams(eta=0.0, omega0=1.0, dispersion=ratio, g=p.g, n_spins=4)
            assert _raises(dicke_ising_modes, ip, 0.0) is (
                SuperradiantInputError if superradiant else None
            )
            phases.append(superradiant)
        assert phases[:3] == [False] * 3 and phases[-3:] == [True] * 3

    @pytest.mark.parametrize("a2_coeff", [0.05, 0.3])
    @pytest.mark.parametrize("ratio", DETUNINGS)
    def test_trk_boundary(self, ratio, a2_coeff):
        # g^2 = omega omega0/4 + a2_coeff omega0, the boundary of the TRK form
        edge = math.sqrt(ratio / 4.0 + a2_coeff)
        phases = []
        for f in self.FRACTIONS:
            phases.append(self._assert_agree(DickeParams(ratio, 1.0, f * edge, a2_coeff=a2_coeff)))
        assert phases[0] is False and phases[-3:] == [True] * 3

    def test_far_detuned_superradiant_instance_is_rejected(self):
        # eps_minus^2 cancels to 0 here, which once read as a critical instance
        p = DickeParams(1e-8, 1.0, 1.5 * core.bare_critical_coupling(1e-8, 1.0))
        with pytest.raises(SuperradiantInputError):
            thermal_squeezing_map([p], [0.0, 0.1])

    def test_just_above_g_c_takes_the_superradiant_branch(self):
        xi = squeezing_ratio_ground(DickeParams(1, 1, 0.5 * (1.0 + 1e-13))).xi
        assert xi == pytest.approx(4.47e-7, rel=1e-3)


# -- reference derivations ---------------------------------------------------
#
# Each closed form used to write the two-oscillator diagonalization out on its
# own. These copies of those derivations pin every bit of the shared kernel:
# the same operands reach each sum, hypot and atan2 in the same order.

def _ref_finite_modes(ep_sq):
    if not math.isfinite(ep_sq):
        raise ValueError("mode energies overflow double precision")


def _ref_pair_modes(w_a, w_b, g):
    """(eps_minus^2, eps_plus^2, gamma) of a normal-side pair at or below its
    g_c = sqrt(w_a w_b)/2; SuperradiantInputError beyond it."""
    cross = 4.0 * g * math.sqrt(w_a * w_b)
    diff = w_b * w_b - w_a * w_a
    total = w_a * w_a + w_b * w_b
    rad = math.hypot(diff, cross)
    em_sq = max(0.5 * (total - rad), 0.0)
    ep_sq = 0.5 * (total + rad)
    _ref_finite_modes(ep_sq)
    if g > math.sqrt(w_a * w_b) / 2.0:
        raise SuperradiantInputError("superradiant input")
    gamma = 0.5 * math.atan2(cross, diff)
    return em_sq, ep_sq, gamma


def _ref_normal_modes(p):
    _, wt, omega0, gt = _normal_sector(p)
    em_sq, ep_sq, gamma = _ref_pair_modes(wt, omega0, gt)
    return math.sqrt(em_sq), math.sqrt(ep_sq), gamma


def _ref_superradiant_modes(p):
    if p.a2_coeff != 0:
        raise ValueError("superradiant closed form requires a2_coeff = 0")
    gc = critical_coupling(p)
    if p.g <= gc:
        raise ValueError("not above the critical coupling")
    w_spin = squared("g/g_c", p.g / gc) * p.omega0
    w2, s2 = squared("omega", p.omega), squared("w_spin", w_spin)
    total = w2 + s2
    rad = math.hypot(s2 - w2, 2.0 * p.omega * p.omega0)
    em_sq, ep_sq = max(0.5 * (total - rad), 0.0), 0.5 * (total + rad)
    _ref_finite_modes(ep_sq)
    gamma = 0.5 * math.atan2(2.0 * p.omega * p.omega0, s2 - w2)
    return math.sqrt(em_sq), math.sqrt(ep_sq), gamma


def _ref_sector(ip, k):
    w_k, e_k, g_k = ip.dispersion, magnon_energy(ip, k), coupling_k(ip, k)
    if e_k <= 0:
        raise ValueError("magnon description invalid")
    return w_k, e_k, g_k


def _ref_dicke_ising_modes(ip, k):
    w_k, e_k, g_k = _ref_sector(ip, k)
    em_sq, ep_sq, gamma = _ref_pair_modes(w_k, e_k, g_k)
    return math.sqrt(em_sq), math.sqrt(ep_sq), 0.0 if g_k == 0.0 else gamma


def _ref_mixing_angle_k(ip, k):
    w_k, e_k, g_k = _ref_sector(ip, k)
    if g_k == 0.0:
        return 0.0
    y, x = 4.0 * g_k * math.sqrt(w_k * e_k), e_k * e_k - w_k * w_k
    return 0.5 * math.atan2(y, x)


def _outcome(f, *args):
    """f(*args), or the type of the error it raises."""
    try:
        return f(*args)
    except ValueError as err:
        return type(err)


def _triple(result, *fields):
    """The named fields of a result, or the error type in its place."""
    return result if isinstance(result, type) else tuple(getattr(result, f) for f in fields)


_RATIOS = np.geomspace(0.04, 25.0, 13).tolist()  # omega0/omega, resonance included


class TestClosedFormBits:
    """Every closed-form mode equals its reference derivation bit for bit."""

    @staticmethod
    def _assert_same(p):
        fields = ("eps_minus", "eps_plus", "gamma")
        assert _triple(_outcome(normal_modes, p), *fields) == _outcome(_ref_normal_modes, p)
        assert _triple(_outcome(superradiant_modes, p), *fields) == _outcome(
            _ref_superradiant_modes, p
        )

    @pytest.mark.parametrize("omega", [1.0, 2.3])
    def test_ideal_model_across_detuning_and_the_transition(self, omega):
        for ratio in _RATIOS:
            omega0 = ratio * omega
            gc = math.sqrt(omega * omega0) / 2.0
            normal = [gc * f for f in np.linspace(0.0, 1.0, 41).tolist()]
            # within rounding of g_c, on both sides of the verdict
            critical = [gc * (1.0 + d * 1e-15) for d in range(-100, 101, 5)]
            superradiant = [gc * (1.0 + f) for f in np.geomspace(1e-13, 49.0, 30).tolist()]
            for g in normal + critical + superradiant:
                self._assert_same(DickeParams(omega, omega0, g))

    @pytest.mark.parametrize("a2_coeff", [0.05, 0.3, 1.2])
    def test_squared_displacement_term(self, a2_coeff):
        for ratio in _RATIOS:
            # the phase boundary g^2 = omega omega0/4 + a2_coeff omega0
            edge = math.sqrt(ratio / 4.0 + a2_coeff * ratio)
            for f in np.linspace(0.0, 1.2, 37).tolist():
                self._assert_same(DickeParams(1.0, ratio, edge * f, a2_coeff=a2_coeff))

    @pytest.mark.parametrize("eta", [-0.4, 0.0, 0.3, 1.5])
    @pytest.mark.parametrize("k", [0.0, 1.1, math.pi])
    def test_ising_sectors(self, eta, k):
        fields = ("eps_minus_k", "eps_plus_k", "gamma_k")
        for ratio in _RATIOS:
            for g in [0.0] + np.linspace(0.05, 1.5, 30).tolist():
                ip = IsingParams(eta=eta, omega0=ratio, dispersion=1.0, g=g, n_spins=6)
                modes = _triple(_outcome(dicke_ising_modes, ip, k), *fields)
                assert modes == _outcome(_ref_dicke_ising_modes, ip, k)
                assert _outcome(mixing_angle_k, ip, k) == _outcome(_ref_mixing_angle_k, ip, k)
