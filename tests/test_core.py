import math
import warnings

import numpy as np
import pytest

from dicke_squeeze import (
    DickeParams,
    LadderParams,
    PhaseLabel,
    classify_phase,
    critical_coupling,
    ladder_params_from_dict,
    map_ladder_to_dicke,
)
from dicke_squeeze.ed import build_basis, build_dicke_hamiltonian, build_hopfield_hamiltonian


class TestValidation:
    def test_accepts_valid(self):
        DickeParams(omega=1, omega0=1, g=0.5, n_spins=6, a2_coeff=0)

    def test_accepts_weak_splitting_point(self):
        # realistic weak-splitting regime: transition at omega0/omega = 0.04
        DickeParams(omega=1.0, omega0=0.04, g=0.1, n_spins=1)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(omega=-1, omega0=1, g=0.5), "omega"),
            (dict(omega=0, omega0=1, g=0.5), "omega"),
            (dict(omega=1, omega0=0, g=0.5), "omega0"),
            (dict(omega=1, omega0=1, g=-0.1), "g"),
            (dict(omega=1, omega0=1, g=0.5, a2_coeff=-1e-9), "a2_coeff"),
            (dict(omega=1, omega0=1, g=0.5, n_spins=0), "n_spins"),
            (dict(omega=1, omega0=1, g=0.5, n_spins="six"), "n_spins"),
            # a bool is an Integral and a Real to Python, never a parameter here
            (dict(omega=1, omega0=1, g=0.3, n_spins=True), "n_spins must be an integer"),
            (dict(omega=1, omega0=True, g=0.3), "omega0"),
            # a JSON string is no number, even one that parses as one
            (dict(omega=1.0, omega0=1.0, g="0.5"), "g must be a real number"),
        ],
    )
    def test_rejects_and_names_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            DickeParams(**kwargs)

    def test_nan_frequency_rejected(self):
        with pytest.raises(ValueError, match="omega"):
            DickeParams(omega=math.nan, omega0=1, g=0.5)

    @pytest.mark.parametrize("field", ["omega", "omega0", "g", "a2_coeff"])
    def test_infinite_value_rejected(self, field):
        kwargs = dict(omega=1.0, omega0=1.0, g=0.5, a2_coeff=0.0)
        kwargs[field] = math.inf
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DickeParams(**kwargs)

    def test_integer_inputs_stored_as_float(self):
        p = DickeParams(omega=1, omega0=2, g=0, n_spins=3, a2_coeff=0)
        assert all(type(v) is float for v in (p.omega, p.omega0, p.g, p.a2_coeff))
        assert type(DickeParams(1, 1, 0, n_spins=3.0).n_spins) is int
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_dicke_hamiltonian(p, build_basis(3, 4))
            build_hopfield_hamiltonian(p, 4, 4)


class TestCriticalCoupling:
    def test_plain_resonance(self):
        assert critical_coupling(DickeParams(1, 1, 0.3)) == 0.5

    def test_weak_splitting(self):
        assert critical_coupling(DickeParams(1, 0.04, 0.3)) == pytest.approx(
            0.1, abs=1e-15
        )

    def test_trk_ratio_has_no_transition(self):
        g = 0.7
        # the second lies below g^2/omega0 by one rounding, yet
        # 1 - a2_coeff*omega0/g^2 is exactly 0: the square root was divided by
        rounding = DickeParams(1.0, 0.1, 0.1, a2_coeff=0.1)
        for p in (DickeParams(1, 1, g, a2_coeff=g * g), rounding):
            assert critical_coupling(p) is None
            assert classify_phase(p) is PhaseLabel.NO_TRANSITION

    def test_monotone_increase_and_divergence_along_ratio_grid(self):
        # with the squared-displacement coefficient tracking g^2, the critical
        # coupling grows monotonically and blows up approaching the TRK ratio
        g = 0.8
        limit = g * g / 1.0
        values = []
        for d in np.linspace(0.0, limit * (1 - 1e-6), 200):
            values.append(critical_coupling(DickeParams(1, 1, g, a2_coeff=float(d))))
        values = np.array(values)
        assert np.all(np.diff(values) > 0)
        assert values[0] == 0.5
        assert values[-1] > 100.0

    def test_phase_classification(self):
        assert classify_phase(DickeParams(1, 1, 0.4)) is PhaseLabel.NORMAL
        assert classify_phase(DickeParams(1, 1, 0.6)) is PhaseLabel.SUPERRADIANT
        # below the TRK ratio a transition exists; this instance sits above it
        p = DickeParams(1, 1, 0.6, a2_coeff=0.05)
        assert classify_phase(p) is PhaseLabel.SUPERRADIANT
        assert critical_coupling(p) == pytest.approx(
            0.5 / math.sqrt(1 - 0.05 / 0.36)
        )


class TestLadderMapping:
    def _params(self, **overrides):
        base = dict(
            j_r=10.0,
            j_b=0.05,
            j_rb_x=0.4,
            j_rb_y=0.0,
            j_rb_z=0.0,
            omega_r=1.0,
            omega_b=1.0,
            n_sites=6,
        )
        base.update(overrides)
        return LadderParams(**base)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize(
        "field", ["j_r", "j_b", "j_rb_x", "j_rb_y", "j_rb_z", "omega_r", "omega_b"]
    )
    def test_non_finite_value_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            self._params(**{field: bad})

    def test_non_real_and_non_integral_values_rejected(self):
        with pytest.raises(ValueError, match="j_r must be a real number"):
            self._params(j_r="10")
        for n_sites in (2.5, math.inf, "six"):
            with pytest.raises(ValueError, match="n_sites must be an integer"):
                self._params(n_sites=n_sites)

    def test_dispersion_endpoints(self):
        spec = map_ladder_to_dicke(self._params())
        omega_by_k = {round(m.k, 12): m.omega_k for m in spec.modes}
        assert omega_by_k[0.0] == 1.0
        assert omega_by_k[round(math.pi, 12)] == pytest.approx(21.0, abs=1e-12)

    def test_all_momenta_exactly_once(self):
        n = 6
        spec = map_ladder_to_dicke(self._params(n_sites=n))
        ks = sorted(m.k for m in spec.modes)
        expected = [2 * math.pi * j / n for j in range(n)]
        assert np.allclose(ks, expected)

    def test_dispersion_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            lp = self._params(
                j_r=float(rng.uniform(0, 20)),
                omega_r=float(rng.uniform(0.1, 5)),
                n_sites=int(rng.integers(2, 12)),
            )
            spec = map_ladder_to_dicke(lp)
            for mode in spec.modes:
                assert 0.0 <= mode.omega_k - lp.omega_r <= 2 * lp.j_r + 1e-12

    def test_scale_separation_flags(self):
        spec = map_ladder_to_dicke(self._params(j_b=5.0, j_r=10.0, omega_b=1.0))
        text = " ".join(spec.validity_flags)
        assert "j_b << j_r violated" in text
        assert "j_b << omega_b violated" in text

    def test_clean_separation_no_flags(self):
        spec = map_ladder_to_dicke(self._params())
        assert spec.validity_flags == ()

    def test_z_exchange_excluded_with_flag(self):
        spec = map_ladder_to_dicke(self._params(j_rb_z=0.3))
        assert any("j_rb_z" in f for f in spec.validity_flags)

    def test_round_trip_into_hamiltonian_builder(self):
        # the k=0 mode with no y-exchange is exactly the single-mode model the
        # exact-diagonalization builder consumes
        lp = self._params(n_sites=3)
        spec = map_ladder_to_dicke(lp)
        p = spec.dicke_params(0)
        assert p == DickeParams(
            omega=lp.omega_r, omega0=lp.omega_b, g=lp.j_rb_x, n_spins=3
        )
        basis = build_basis(3, 5)
        direct = build_dicke_hamiltonian(
            DickeParams(lp.omega_r, lp.omega_b, lp.j_rb_x, 3), basis
        )
        via_map = build_dicke_hamiltonian(p, basis)
        assert (direct.matrix != via_map.matrix).nnz == 0


class TestJsonIngestion:
    def test_unknown_ladder_key_rejected(self):
        with pytest.raises(ValueError, match=r"unknown ladder parameter keys: \['j_rb'\]"):
            ladder_params_from_dict(dict(j_r=10.0, j_rb=0.4, n_sites=4))

    def test_ladder_keys(self):
        lp = ladder_params_from_dict(
            dict(
                j_r=10.0,
                j_b=0.1,
                j_rb_x=0.4,
                j_rb_y=0.1,
                j_rb_z=0.0,
                omega_r=1.0,
                omega_b=2.0,
                n_sites=4,
            )
        )
        assert lp.n_sites == 4
