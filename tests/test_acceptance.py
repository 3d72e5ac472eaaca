"""Acceptance suite: each test pins one contract criterion at its stated
tolerance and prints a PASS/FAIL line (run with -s to see them inline)."""

import json
import math

import numpy as np
import pytest

from dicke_squeeze import (
    DickeParams,
    DisorderEnsemble,
    IsingParams,
    cli,
    disorder_xi_perturbative,
    critical_coupling_k,
    magnon_spectrum,
    mixing_angle_k,
    normal_modes,
    renormalized_coupling,
    squeezing_ratio_ground,
    thermal_squeezing_ratio,
)
from dicke_squeeze.ed import (
    build_basis,
    build_dicke_hamiltonian,
    build_hopfield_hamiltonian,
    ground_state,
    hopfield_p_minus,
    lowest_eigenvalues,
    p_d,
    p_minus_k0,
    p_tilde_minus,
    s_tilde_y,
    thermal_variance,
    total_spin_expectation,
    variance,
)
from dicke_squeeze.ed.basis import lift_boson, lift_spin
from dicke_squeeze.ed.operators import boson_x, spin_flip_total
from dicke_squeeze.ed.quadratures import expectation_symmetric


def _report(label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_criterion_01_critical_point_closed_form():
    hits = []
    for omega, omega0 in ((1.0, 1.0), (1.0, 2.0), (0.7, 1.3)):
        gc = math.sqrt(omega * omega0) / 2
        hits.append(abs(squeezing_ratio_ground(DickeParams(omega, omega0, gc)).xi))
    worst_hit = max(hits)
    worst_form = 0.0
    for g in np.linspace(0.0, 0.5, 300, endpoint=False):
        xi = squeezing_ratio_ground(DickeParams(1, 1, float(g))).xi
        worst_form = max(worst_form, abs(xi - math.sqrt(1 - 2 * g)))
    ok = worst_hit < 1e-12 and worst_form < 1e-12
    _report("01 critical point", ok, f"|xi(gc)|<={worst_hit:.1e}, closed-form dev<={worst_form:.1e}")
    assert worst_hit < 1e-12
    assert worst_form < 1e-12


def test_criterion_02_no_go_with_trk_coefficient():
    grid = np.linspace(0.0, 5.0, 10_000)
    eps = np.empty(grid.size)
    for i, g in enumerate(grid):
        p = DickeParams(1.0, 1.0, float(g), a2_coeff=float(g) ** 2)
        eps[i] = normal_modes(p).eps_minus
    xi = eps  # resonance: reference frequency 1
    golden = squeezing_ratio_ground(DickeParams(1, 1, 0.5, a2_coeff=0.25)).xi
    ok = (
        eps.min() > 0
        and bool(np.all(np.diff(xi) < 0))
        and abs(golden - 0.6180340) < 1e-6
    )
    _report("02 no-go squared-displacement", ok, f"min eps-={eps.min():.4f}, xi(0.5)={golden:.7f}")
    assert eps.min() > 0
    assert np.all(np.diff(xi) < 0)
    assert golden == pytest.approx(0.6180340, abs=1e-6)


def test_criterion_03_thermal_formula_vs_gibbs_oracle():
    # 20 random normal-phase draws with eps- >= 0.1 and k_B T <= 0.5.
    # The coupling is sampled up to 0.9*g_c, the same closeness-to-criticality
    # cap the ground-state oracle-equivalence check uses; beyond it the
    # 40-state oracle itself stops converging (see the truncation test in
    # tests/test_ed.py).
    rng = np.random.default_rng(20260809)
    n_max = 40
    worst = 0.0
    draws = 0
    while draws < 20:
        omega0 = float(rng.uniform(0.5, 2.0))
        gc = math.sqrt(omega0) / 2
        g = float(rng.uniform(0.1, 0.9)) * gc
        temperature = float(rng.uniform(0.05, 0.5))
        p = DickeParams(1.0, omega0, g)
        modes = normal_modes(p)
        if modes.eps_minus < 0.1:
            continue
        draws += 1
        ref = min(1.0, omega0) / 2.0
        xi_analytic = thermal_squeezing_ratio(p, temperature).xi
        h = build_hopfield_hamiltonian(p, n_max, n_max)
        q = hopfield_p_minus(n_max, n_max, 1.0, omega0, modes.gamma)
        xi_ed = thermal_variance(h, q, temperature) / ref
        worst = max(worst, abs(xi_analytic - xi_ed))
    ok = worst < 1e-3
    _report("03 thermal formula vs Gibbs oracle", ok, f"worst |dxi|={worst:.2e} over 20 draws")
    assert worst < 1e-3


def test_criterion_04_no_squeezing_above_half_boson_frequency():
    xis = [
        thermal_squeezing_ratio(DickeParams(1, 1, float(g)), 0.55).xi
        for g in np.linspace(0.0, 0.5, 400, endpoint=False)
    ]
    ok = min(xis) > 1.0
    _report("04 thermal bound", ok, f"min xi(kT=0.55)={min(xis):.4f}")
    assert min(xis) > 1.0


def test_criterion_05_finite_temperature_optimum_detuning():
    grid = np.arange(0.04, 0.2 + 1e-12, 1e-4)
    argmins = {}
    for temperature in (0.015, 0.017, 0.019):
        xis = np.array(
            [
                thermal_squeezing_ratio(DickeParams(1.0, float(w0), 0.1), temperature).xi
                for w0 in grid
            ]
        )
        argmins[temperature] = float(grid[int(np.argmin(xis))])
    above = all(v > 0.04 for v in argmins.values())
    ordered = argmins[0.015] < argmins[0.017] < argmins[0.019]
    ok = above and ordered
    _report(
        "05 optimum away from critical splitting",
        ok,
        f"argmins={[argmins[t] for t in (0.015, 0.017, 0.019)]}",
    )
    assert above
    assert ordered


def test_criterion_06_finite_size_variances():
    variances = {}
    for n in range(1, 8):
        basis40 = build_basis(n, 40)
        basis50 = build_basis(n, 50)
        for n_max, basis in ((40, basis40), (50, basis50)):
            h = build_dicke_hamiltonian(DickeParams(1, 1, 0.5, n), basis)
            gs = ground_state(h)
            variances[(n, n_max)] = (
                variance(gs, p_tilde_minus(basis)),
                variance(gs, s_tilde_y(basis)),
            )
    # N = 1 is recorded but not asserted against
    below_one = all(
        variances[(n, nm)][i] < 1.0
        for n in range(2, 8)
        for nm in (40, 50)
        for i in (0, 1)
    )
    decreasing = all(
        variances[(n + 1, 50)][0] < variances[(n, 50)][0] for n in range(2, 7)
    )
    max_delta = max(
        abs(variances[(n, 50)][i] - variances[(n, 40)][i])
        for n in range(1, 8)
        for i in (0, 1)
    )
    ok = below_one and decreasing and max_delta < 1e-3
    _report(
        "06 finite-size squeezing",
        ok,
        f"var_p(N=7)={variances[(7, 50)][0]:.4f}, max truncation delta={max_delta:.1e}",
    )
    assert below_one
    assert decreasing
    assert max_delta < 1e-3


def test_criterion_07_two_boson_oracle():
    import scipy.sparse as sp

    from dicke_squeeze.ed.quadratures import variance_symmetric

    n_max = 80
    worst_var = 0.0
    worst_gap = 0.0
    worst_anti = 0.0
    for g in (0.1, 0.3, 0.45):
        p = DickeParams(1, 1, g)
        modes = normal_modes(p)
        h = build_hopfield_hamiltonian(p, n_max, n_max)
        gs = ground_state(h)
        q = hopfield_p_minus(n_max, n_max, 1.0, 1.0, modes.gamma)
        worst_var = max(worst_var, abs(variance(gs, q) - modes.eps_minus / 2))
        w = lowest_eigenvalues(h, 8)
        gaps = w - w[0]
        worst_gap = max(
            worst_gap,
            min(abs(gaps - modes.eps_minus).min(), 1.0),
            min(abs(gaps - modes.eps_plus).min(), 1.0),
        )
        eye = sp.identity(n_max + 1, format="csr")
        q_minus = (
            math.cos(modes.gamma) * sp.kron(boson_x(n_max) / math.sqrt(2), eye)
            - math.sin(modes.gamma) * sp.kron(eye, boson_x(n_max) / math.sqrt(2))
        ).tocsr()
        worst_anti = max(
            worst_anti,
            abs(variance_symmetric(gs.vector, q_minus) - 1 / (2 * modes.eps_minus)),
        )
    ok = worst_var < 1e-5 and worst_gap < 1e-5 and worst_anti < 1e-5
    _report(
        "07 two-boson oracle",
        ok,
        f"worst |Var(p-) - eps-/2|={worst_var:.1e}, gap dev={worst_gap:.1e}, "
        f"|Var(q-) - 1/(2 eps-)|={worst_anti:.1e}",
    )
    assert worst_var < 1e-5
    assert worst_gap < 1e-5
    assert worst_anti < 1e-5


def test_criterion_08a_disorder_worked_example():
    report = disorder_xi_perturbative(
        DickeParams(1, 1, 0.4), DisorderEnsemble(99, ((2.0, 1.0),))
    )
    ok = abs(report.xi - 0.45956) < 1e-4
    _report("08a disorder worked example", ok, f"xi={report.xi:.6f}")
    assert report.xi == pytest.approx(0.45956, abs=1e-4)


def _disorder_ed_xi(n_clean, defects, g, n_max, tol=1e-10, collective=False):
    ens = DisorderEnsemble(n_clean, defects)
    p = DickeParams(1.0, 1.0, g, n_clean)
    gbar = renormalized_coupling(g, n_clean, ens.m)
    gamma_bar = normal_modes(DickeParams(1.0, 1.0, g), g_renormalized=gbar).gamma
    basis = build_basis(n_clean + ens.m, n_max, (n_clean,) if collective else ())
    h = build_dicke_hamiltonian(p, basis, disorder=ens)
    gs = ground_state(h, tol=tol)
    return variance(gs, p_d(basis, 1.0, 1.0, gamma_bar)) / 0.5


def test_criterion_08b_disorder_perturbative_regime_cross_check():
    # weak defect (g'=0.1, omega'=2) at N=6, m=1, g=0.5: formula vs ED
    formula = disorder_xi_perturbative(
        DickeParams(1, 1, 0.5, 6), DisorderEnsemble(6, ((2.0, 0.1),))
    ).xi
    xi_ed = _disorder_ed_xi(6, ((2.0, 0.1),), 0.5, 50)
    rel = abs(xi_ed - formula) / formula
    ok = rel < 0.02
    _report(
        "08b disorder perturbative cross-check",
        ok,
        f"formula={formula:.5f}, ED={xi_ed:.5f}, rel dev={rel:.3f}",
    )
    # Tolerance pinned at 2%. The first-order formula is a thermodynamic-limit
    # statement; at N=6 the clean collective sector (renormalized coupling
    # 0.463, soft mode 0.27) still carries a finite-size offset in xi of
    # +0.115: ED of the defect-free N=6 sector at the renormalized coupling
    # reads 0.387 against the formula's 0.272. The ED-vs-formula difference
    # here is +0.070, so -0.045 is left after the offset, nearly flat in g
    # (-0.054 at g=0.4, -0.049 at g=0.45). The measured deviation sits near
    # +20% regardless of truncation. The same comparison passes at the same
    # N for couplings farther from critical (e.g. rel dev 1.7% at g=0.45,
    # 3.8% at g=0.4).
    assert rel < 0.02, (
        f"ED-vs-formula relative deviation {rel:.3f} exceeds 0.02: the N=6 "
        "clean sector's near-critical finite-size offset dominates the "
        "comparison at g=0.5"
    )


def test_criterion_08b_large_n_below_critical_convergence():
    # The same weak defect (g'=0.1, omega'=2, m=1) at g=0.4, far from the
    # transition, with N=96 clean spins held as one collective spin J=N/2
    # (dim 97*2*51 = 9894). The first-order formula is a large-N statement;
    # measured ED-vs-formula deviation falls with N: 3.8% at N=6, 0.33% at
    # N=24, 0.03% at N=96.
    formula = disorder_xi_perturbative(
        DickeParams(1, 1, 0.4, 96), DisorderEnsemble(96, ((2.0, 0.1),))
    ).xi
    xi_ed = _disorder_ed_xi(96, ((2.0, 0.1),), 0.4, 50, collective=True)
    rel = abs(xi_ed - formula) / formula
    ok = rel < 0.02
    _report(
        "08b large-N convergence below critical",
        ok,
        f"formula={formula:.5f}, ED={xi_ed:.5f}, rel dev={rel:.4f}",
    )
    assert rel < 0.02


def test_criterion_08c_disorder_fraction_monotonicity():
    xis = {}
    deltas = []
    for n in range(6, 0, -1):
        per_truncation = {}
        for n_max in (40, 50):
            per_truncation[n_max] = _disorder_ed_xi(n, ((2.1, 2.0),), 0.5, n_max)
        xis[n] = per_truncation[50]
        deltas.append(abs(per_truncation[50] - per_truncation[40]))
    ordered = [xis[n] for n in range(6, 0, -1)]  # fraction grows as N falls
    increasing = all(a < b for a, b in zip(ordered, ordered[1:]))
    ok = increasing and max(deltas) < 1e-3
    _report(
        "08c disorder fraction monotonicity",
        ok,
        f"xi over fractions={np.round(ordered, 4).tolist()}, max delta={max(deltas):.1e}",
    )
    assert increasing
    assert max(deltas) < 1e-3


def test_criterion_09a_ising_critical_coupling_gap():
    worst = 0.0
    for eta in (0.02, 0.05, 0.1):
        ip = IsingParams(eta=eta, omega0=1.0, dispersion=1.0, g=0.4, n_spins=6)
        exact, leading = critical_coupling_k(ip, 0.0)
        worst = max(worst, abs(exact - leading) / eta**2)
    ok = worst <= 1.0
    _report("09a no linear critical-coupling shift", ok, f"max |gap|/eta^2={worst:.3f}")
    assert worst <= 1.0


def test_criterion_09b_ising_monotone_saturation():
    etas = np.linspace(0.0, 1.5, 16)
    xis = {}
    deltas = []
    for eta in etas:
        ip = IsingParams(eta=float(eta), omega0=1.0, dispersion=1.0, g=0.5, n_spins=6)
        gamma0 = mixing_angle_k(ip, 0.0)
        e0 = magnon_spectrum(ip, 0.0).E_k
        per_truncation = {}
        for n_max in (40, 50):
            basis = build_basis(6, n_max)
            h = build_dicke_hamiltonian(DickeParams(1.0, 1.0, 0.5, 6), basis, eta=float(eta))
            gs = ground_state(h)
            q = p_minus_k0(basis, 1.0, e0, gamma0, float(eta))
            per_truncation[n_max] = variance(gs, q) / 0.5
        xis[float(eta)] = per_truncation[50]
        deltas.append(abs(per_truncation[50] - per_truncation[40]))
    series = [xis[float(e)] for e in etas]
    nondecreasing = all(a <= b + 1e-12 for a, b in zip(series, series[1:]))
    saturated = abs(series[-1] - 1.0) <= 0.1
    ok = nondecreasing and saturated and max(deltas) < 1e-3
    _report(
        "09b Ising-coupled squeezing trend",
        ok,
        f"xi(0)={series[0]:.4f}, xi(1.5)={series[-1]:.4f}, max delta={max(deltas):.1e}",
    )
    assert nondecreasing
    assert saturated
    assert max(deltas) < 1e-3


def test_criterion_09c_ising_zero_coupling_bitwise():
    basis = build_basis(6, 40)
    ideal = build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 6), basis)
    ising_h = build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 6), basis, eta=0.0)
    ok = (
        np.array_equal(ideal.matrix.data, ising_h.matrix.data)
        and np.array_equal(ideal.matrix.indices, ising_h.matrix.indices)
        and np.array_equal(ideal.matrix.indptr, ising_h.matrix.indptr)
    )
    _report("09c zero-coupling reduction is bitwise", ok)
    assert ok


def test_criterion_10_structural_invariants(tmp_path):
    # mode identities over 1e4 random draws
    rng = np.random.default_rng(99)
    worst_trace = worst_det = 0.0
    for _ in range(10_000):
        w = rng.uniform(0.2, 3.0)
        w0 = rng.uniform(0.2, 3.0)
        d = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.5)
        wt = math.sqrt(w * (w + 4 * d))
        gt_max = 0.95 * math.sqrt(wt * w0) / 2
        g = rng.uniform(0.0, gt_max * (1 + 4 * d / w) ** 0.25)
        m = normal_modes(DickeParams(w, w0, g, a2_coeff=d))
        gt = g / (1 + 4 * d / w) ** 0.25
        trace = m.eps_minus**2 + m.eps_plus**2
        det = (m.eps_minus * m.eps_plus) ** 2
        worst_trace = max(worst_trace, abs(trace - (wt * wt + w0 * w0)) / (wt * wt + w0 * w0))
        target = wt * wt * w0 * w0 - 4 * gt * gt * wt * w0
        scale = max(abs(target), 1e-12)
        worst_det = max(worst_det, abs(det - target) / scale)

    # parity and collective-spin conservation in the ideal model
    basis = build_basis(3, 30)
    h = build_dicke_hamiltonian(DickeParams(1, 1, 0.45, 3), basis)
    gs = ground_state(h)
    x_expect = abs(
        expectation_symmetric(gs.vector, lift_boson(boson_x(30), basis.spin_dim))
    )
    sx_expect = abs(
        expectation_symmetric(gs.vector, lift_spin(0.5 * spin_flip_total(basis), basis.boson_dim))
    )
    spin_dev = abs(total_spin_expectation(gs, basis) - 1.5 * 2.5)

    # CSV determinism
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"rng_seed": 4242, "grids": {"g_over_omega": [0.0, 0.25, 0.5]}})
    )
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for path in paths:
        assert cli.main(["fig2", "--config", str(cfg_path), "--out", str(path)]) == 0
    contents = [
        b"\n".join(
            line
            for line in path.read_bytes().split(b"\n")
            if not line.startswith(b"# generated")
        )
        for path in paths
    ]
    deterministic = contents[0] == contents[1]

    ok = (
        worst_trace < 1e-12
        and worst_det < 1e-12
        and x_expect < 1e-8
        and sx_expect < 1e-8
        and spin_dev < 1e-8
        and deterministic
    )
    _report(
        "10 structural invariants",
        ok,
        f"trace dev={worst_trace:.1e}, det dev={worst_det:.1e}, parity={max(x_expect, sx_expect):.1e}",
    )
    assert worst_trace < 1e-12
    assert worst_det < 1e-12
    assert x_expect < 1e-8
    assert sx_expect < 1e-8
    assert spin_dev < 1e-8
    assert deterministic
