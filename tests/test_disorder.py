import math

import numpy as np
import pytest

from dicke_squeeze import (
    DickeParams,
    DisorderEnsemble,
    disorder_xi_perturbative,
    normal_modes,
    renormalized_coupling,
    squeezing_ratio_ground,
)


def test_renormalized_coupling_values():
    assert renormalized_coupling(0.7, 5, 0) == 0.7
    assert renormalized_coupling(0.5, 99, 1) == pytest.approx(0.5 * math.sqrt(0.99), rel=1e-15)
    assert renormalized_coupling(0.4, 99, 1) == pytest.approx(0.4 * math.sqrt(0.99), rel=1e-15)


@pytest.mark.parametrize(
    "g, n_clean, m, message",
    [
        (math.nan, 4, 1, "g must be finite"),
        (math.inf, 4, 1, "g must be finite"),
        (0.3, 4.5, 1, "n_clean must be an integer"),
        (0.3, True, 1, "n_clean must be an integer"),
        (0.3, math.nan, 1, "n_clean must be an integer"),
        (0.3, 4, 1.5, "m must be an integer"),
        (0.3, 4, True, "m must be an integer"),
        # each count is held to its own minimum, not to -inf
        (0.3, 0, 1, "n_clean must be an integer >= 1, got 0"),
        (0.3, 4, -1, "m must be an integer >= 0, got -1"),
        # a whole numpy count is read as one, then held to the range
        (0.3, np.int64(0), 1, "n_clean must be an integer >= 1"),
        # a count that is no number is named, not compared
        (0.3, "4", 1, "n_clean must be an integer"),
        (0.3, 4, None, "m must be an integer"),
    ],
)
def test_renormalized_coupling_rejects_bad_input(g, n_clean, m, message):
    with pytest.raises(ValueError, match=message):
        renormalized_coupling(g, n_clean, m)


def test_ensemble_validation():
    with pytest.raises(ValueError, match="omega_prime"):
        DisorderEnsemble(3, ((0.0, 0.5),))
    with pytest.raises(ValueError, match="g_prime"):
        DisorderEnsemble(3, ((1.0, -0.5),))
    with pytest.raises(ValueError, match="n_clean"):
        DisorderEnsemble(0, ())
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="defect 0: omega_prime must be finite"):
            DisorderEnsemble(3, ((bad, 1.0),))
        with pytest.raises(ValueError, match="defect 1: g_prime must be finite"):
            DisorderEnsemble(3, ((2.0, 1.0), (2.0, bad)))
        with pytest.raises(ValueError, match="n_clean must be an integer"):
            DisorderEnsemble(bad, ())
    with pytest.raises(ValueError, match="omega_prime must be a real number"):
        DisorderEnsemble(3, (("2", 1.0),))
    # was "not enough values to unpack"
    for bad in ((2.0,), (2.0, 0.1, 0.3), 2.0, None):
        with pytest.raises(ValueError, match=r"defect 1 must be an \(omega_prime, g_prime\) pair"):
            DisorderEnsemble(3, ((2.0, 0.1), bad))
    assert DisorderEnsemble(3, [[2, 0.5]]).defects == ((2.0, 0.5),)
    assert DisorderEnsemble(3, ()).m == 0


def test_worked_example_term_by_term():
    # independent evaluation: N=99, m=1, defect (omega'=2, g'=1), g=0.4, resonance
    n, m = 99, 1
    gbar = 0.4 * math.sqrt(n / (n + m))
    eps = math.sqrt(1 - 2 * gbar)
    alpha = math.sqrt(1.0 / ((n + m) * eps))
    clean = eps
    pinned = 0.5 * (1.0 / 1.0) * m / (n + m)
    coupling = alpha * math.cos(math.pi / 4) * math.sqrt(eps / (n + m)) / (eps + 2.0)
    report = disorder_xi_perturbative(DickeParams(1, 1, 0.4), DisorderEnsemble(n, ((2.0, 1.0),)))
    assert report.term_clean == pytest.approx(clean, rel=1e-13)
    assert report.term_pinned == pytest.approx(pinned, rel=1e-13)
    assert report.term_coupling == pytest.approx(coupling, rel=1e-13)
    assert report.xi == report.term_clean + report.term_pinned + report.term_coupling
    assert report.xi == pytest.approx(0.45956, abs=1e-5)
    assert report.term_clean == pytest.approx(0.451675, abs=1e-6)
    assert report.term_pinned == pytest.approx(0.005, abs=1e-12)
    assert report.term_coupling == pytest.approx(0.002884, abs=1e-6)


def test_clean_limit_reduces_to_ground_ratio():
    p = DickeParams(1, 1, 0.4, n_spins=10)
    report = disorder_xi_perturbative(p, DisorderEnsemble(10, ()))
    assert report.xi == pytest.approx(squeezing_ratio_ground(p).xi, abs=1e-14)
    assert report.term_pinned == 0.0
    assert report.term_coupling == 0.0


def test_decoupled_defects_pin_only():
    # g' = 0 at resonance: xi = eps/omega + (1/2)(omega0/omega) m/(N+m)
    n, m = 20, 3
    defects = tuple((1.5, 0.0) for _ in range(m))
    report = disorder_xi_perturbative(DickeParams(1, 1, 0.3), DisorderEnsemble(n, defects))
    gbar = renormalized_coupling(0.3, n, m)
    eps = normal_modes(DickeParams(1, 1, gbar)).eps_minus
    assert report.term_coupling == 0.0
    assert report.xi == pytest.approx(eps + 0.5 * m / (n + m), rel=1e-13)


def test_dilution_scaling():
    # with N grown in proportion to m, both correction terms scale as m/(N+m)
    base = {}
    for m in (1, 2, 4):
        n = 99 * m
        defects = tuple((2.0, 1.0) for _ in range(m))
        report = disorder_xi_perturbative(DickeParams(1, 1, 0.4), DisorderEnsemble(n, defects))
        base[m] = (
            report.term_pinned * (n + m) / m,
            report.term_coupling * (n + m) / m,
        )
    for m in (2, 4):
        assert base[m][0] == pytest.approx(base[1][0], rel=1e-12)
        assert base[m][1] == pytest.approx(base[1][1], rel=1e-12)


def test_coupling_term_positive_for_down_defects():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        defects = tuple(
            (float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.01, 1.0)))
            for _ in range(m)
        )
        report = disorder_xi_perturbative(
            DickeParams(1, 1.2, 0.35), DisorderEnsemble(60, defects)
        )
        assert report.term_coupling > 0


def test_defects_stored_as_floats():
    ens = DisorderEnsemble(3, [[2, 1]])
    assert ens.defects == ((2.0, 1.0),)
    assert all(type(v) is float for v in ens.defects[0])


def test_flipped_defect_reverses_coupling_sign():
    # omega' < 0 pins the defect up: same gap |omega'|, opposite sign
    down = disorder_xi_perturbative(DickeParams(1, 1, 0.4), DisorderEnsemble(99, ((2.0, 1.0),)))
    up = disorder_xi_perturbative(DickeParams(1, 1, 0.4), DisorderEnsemble(99, ((-2.0, 1.0),)))
    assert up.term_coupling == pytest.approx(-down.term_coupling, rel=1e-13)
    assert up.term_pinned == down.term_pinned


def test_critical_clean_sector_rejected():
    with pytest.raises(ValueError, match="perturbation theory invalid"):
        disorder_xi_perturbative(
            DickeParams(1, 1, 0.5 * math.sqrt(100 / 99)), DisorderEnsemble(99, ((2.0, 1.0),))
        )


class TestPerturbativityCheck:
    """The per-defect flags of ``disorder_xi_perturbative(...).validity``,
    which fig6's perturbative_valid column reads."""

    def test_zero_coupling_always_valid(self):
        report = disorder_xi_perturbative(
            DickeParams(1, 1, 0.45), DisorderEnsemble(10, ((0.5, 0.0),))
        )
        assert report.validity == (True,)

    def test_strong_defect_flagged(self):
        # g'=2w, omega'=2.1w at g=0.5w with one defect among seven spins
        report = disorder_xi_perturbative(
            DickeParams(1, 1, 0.5), DisorderEnsemble(6, ((2.1, 2.0),))
        )
        assert report.validity == (False,)

    def test_dilute_defect_valid(self):
        report = disorder_xi_perturbative(
            DickeParams(1, 1, 0.4), DisorderEnsemble(10_000, ((1.0, 1.0),))
        )
        assert report.validity == (True,)

    def test_matches_report_validity(self):
        # each flag is alpha cos(gammabar) g' <= 0.1 |omega'| at the report's alpha
        p = DickeParams(1, 1, 0.45)
        d = DisorderEnsemble(12, ((2.0, 0.1), (0.3, 1.5)))
        report = disorder_xi_perturbative(p, d)
        gamma = normal_modes(DickeParams(1, 1, renormalized_coupling(0.45, 12, 2))).gamma
        bound = report.alpha * math.cos(gamma)
        assert report.validity == tuple(bound * gp <= 0.1 * abs(w) for w, gp in d.defects)
        assert report.validity == (True, False)


def test_overflowing_defect_coupling_is_rejected():
    # two g' = 1e308 terms sum past double precision: xi was inf
    ens = DisorderEnsemble(2, ((1e-10, 1e308), (1e-10, 1e308)))
    with pytest.raises(ValueError, match="overflows double precision"):
        disorder_xi_perturbative(DickeParams(1, 1, 0.3, 2), ens)
