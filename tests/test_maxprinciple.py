from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coefficients_oracles
import maxprinciple_oracles as mp_oracle
from volterra_smp.bsee import assemble_adjoints
from volterra_smp.coefficients import (CoefficientSet, ControlDomain, ControlPath,
                                       StructuralTags, make_problem)
from volterra_smp.grids import TimeGrid
from volterra_smp.kernels import DiscreteLaplaceKernel, build_fractional_lift
from volterra_smp.maxprinciple import (check_variational_inequality, classical_adjoint_gaps,
                                       construct_argmax_control, duality_residuals,
                                       duality_stats, gap_tables, hamiltonian,
                                       perturb_control)
from volterra_smp.simulate import sample_brownian, simulate_sve
from volterra_smp.stats import mc_mean_se, mc_mean_se_rows
from volterra_smp.variation import SpikeSpec


def test_hamiltonian_zero_data(lq):
    assert hamiltonian(make_problem("zero"), 0.1, 0.0, np.zeros((3, 1)), 0.0, 0.0).max() == 0.0


def test_hamiltonian_arithmetic():
    # b = x, sigma = u, f = u^2 at (u, x, p, q) = (2, 3, 1, 1): 3 + 2 - 4 = 1
    from volterra_smp.coefficients import StructuralTags, _scalar_problem
    pr = _scalar_problem("h", lambda t, u, x: x, lambda t, u, x: u,
                         lambda t, u, x: u * u, lambda x: 0.0 * x,
                         lambda t, u, x: 1.0, lambda t, u, x: 0.0,
                         lambda t, u, x: 0.0, lambda x: 0.0,
                         lambda t, u, x: 0.0, lambda t, u, x: 0.0,
                         lambda t, u, x: 0.0, lambda x: 0.0,
                         (0.0,), StructuralTags(), 1.0)
    val = hamiltonian(pr, 0.0, np.array([2.0]), np.array([[3.0]]), 1.0, 1.0)
    assert val[0] == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=20, deadline=None)
@given(c=st.floats(0.1, 50.0), seed=st.integers(0, 1000))
def test_argmax_invariant_under_positive_scaling(c, seed, lq):
    rng = np.random.default_rng(seed)
    p, q = rng.normal(), rng.normal()
    x = rng.normal(size=(1, 1))
    grid_pts = lq.control_domain.points[:, 0]
    vals = [hamiltonian(lq, 0.3, v, x, p, q)[0] for v in grid_pts]
    # scale (p, q, f) by c > 0: implemented by scaling the whole objective
    vals_scaled = [c * v for v in vals]
    assert np.argmax(vals) == np.argmax(vals_scaled)


def test_hfunction_reduces_to_hamiltonian_when_sigma_control_free(grid, lq, frac_kernel, ens):
    uh = ControlPath.constant(0.5, grid)
    xh = simulate_sve(lq, uh, frac_kernel, 0.4, ens)
    adj = assemble_adjoints(lq, uh, xh, frac_kernel, ens)
    t = 16 * grid.dt
    m = grid.index_of(t)
    Ab, Aq = adj.first_contractions_at(m)
    for v in lq.control_domain.points[:, 0]:
        hv = mp_oracle.hfunction(lq, adj, t, v, xh[:, m], uh.at(m))
        base = hamiltonian(lq, t, v, xh[:, m], Ab, Aq)
        assert np.max(np.abs(hv - base)) == 0.0


def test_hfunction_rejects_off_grid_time(grid, lq, frac_kernel, ens):
    uh = ControlPath.constant(0.5, grid)
    xh = simulate_sve(lq, uh, frac_kernel, 0.4, ens)
    adj = assemble_adjoints(lq, uh, xh, frac_kernel, ens)
    with pytest.raises(ValueError, match="grid node"):
        mp_oracle.hfunction(lq, adj, 0.1234567, 0.0, xh[:, 3], uh.at(3))


def test_state_free_hfunction_closed_form(grid, state_free, frac_kernel, ens):
    # hand-derived: H-hat(v) = Ab (b0 + b2 v) + Aq (s0 + s2 v) - r v^2 / 2
    #   + (risk/2) (s2 (u_hat - v))^2 with risk = mu x mu [Ms^T P Ms]
    uh = ControlPath.constant(0.2, grid)
    xh = simulate_sve(state_free, uh, frac_kernel, 0.2, ens)
    adj = assemble_adjoints(state_free, uh, xh, frac_kernel, ens)
    m = grid.index_of(0.5)
    Ab, Aq = adj.first_contractions_at(m)
    R = adj.Rss[m][0, 0]
    p = state_free
    b0, b2, s0, s2, r = 0.1, 1.0, 0.3, 0.8, 0.4
    for v in (-0.5, 0.3, 1.0):
        expect = (Ab[:, 0] * (b0 + b2 * v) + Aq[0] * (s0 + s2 * v)
                  - 0.5 * r * v * v + 0.5 * R * (s2 * (0.2 - v)) ** 2)
        got = mp_oracle.hfunction(p, adj, 0.5, v, xh[:, m], uh.at(m))
        assert np.max(np.abs(got - expect)) <= 1e-10


def test_duality_zero_problem_exact_zero(grid, frac_kernel):
    e = sample_brownian(grid, 32, 3)
    pr = make_problem("zero")
    uh = ControlPath.constant(0.0, grid)
    xh = simulate_sve(pr, uh, frac_kernel, 0.0, e)
    adj = assemble_adjoints(pr, uh, xh, frac_kernel, e)
    spike = SpikeSpec(tau=0.25, eps=0.125, v=uh)
    res = duality_residuals(pr, spike, adj, e, xi=0.0)
    r = duality_stats(res["first"])
    assert r["exact_max"] == 0.0 and float(np.mean(res["first"]["lhs"])) == 0.0


def test_duality_spike_with_same_control_zero(grid, lq, frac_kernel, ens):
    uh = ControlPath.constant(0.5, grid)
    xh = simulate_sve(lq, uh, frac_kernel, 0.4, ens)
    adj = assemble_adjoints(lq, uh, xh, frac_kernel, ens)
    spike = SpikeSpec(tau=0.25, eps=0.125, v=uh)
    res = duality_residuals(lq, spike, adj, ens, xi=0.4)
    r = duality_stats(res["first"])
    assert abs(float(np.mean(res["first"]["lhs"]))) == 0.0
    assert r["exact_max"] <= 1e-12


def test_duality_exactness_both_orders(grid, state_free, frac_kernel, ens):
    uh = ControlPath.constant(0.2, grid)
    xh = simulate_sve(state_free, uh, frac_kernel, 0.2, ens)
    adj = assemble_adjoints(state_free, uh, xh, frac_kernel, ens)
    spike = SpikeSpec(tau=0.25, eps=0.0625, v=ControlPath.constant(0.9, grid))
    res = duality_residuals(state_free, spike, adj, ens, xi=0.2)
    r1, r2 = duality_stats(res["first"]), duality_stats(res["second"])
    assert r1["exact_max"] <= 1e-12
    assert r2["exact_max"] <= 1e-12
    assert abs(r1["display_mean"]) <= 4 * r1["display_se"]
    assert abs(r2["display_mean"]) <= 4 * max(r2["display_se"], 1e-300)


def test_j12_representation_zero_spike(grid, state_free, frac_kernel, ens):
    uh = ControlPath.constant(0.2, grid)
    xh = simulate_sve(state_free, uh, frac_kernel, 0.2, ens)
    adj = assemble_adjoints(state_free, uh, xh, frac_kernel, ens)
    spike = SpikeSpec(tau=0.25, eps=0.0625, v=uh)
    res = duality_residuals(state_free, spike, adj, ens, xi=0.2)
    j12_direct, _ = res["bundle"].j12()
    j12_adjoint, _ = mc_mean_se(-res["spike_adjoint"])
    assert j12_direct == 0.0 and j12_adjoint == 0.0


def test_j12_quadratic_term_absent_when_sigma_control_free(grid, lq, frac_kernel, ens):
    uh = ControlPath.constant(0.5, grid)
    xh = simulate_sve(lq, uh, frac_kernel, 0.4, ens)
    adj = assemble_adjoints(lq, uh, xh, frac_kernel, ens)
    # risk matrix is identically zero for this problem, so the quadratic
    # block contributes nothing to the spike integral
    assert np.max(np.abs(adj.Rss)) == 0.0


def test_j12_gap_superlinear_state_free(state_free, frac_kernel):
    from volterra_smp.grids import TimeGrid
    grid = TimeGrid(1.0, 256)
    e = sample_brownian(grid, 4000, 21)
    uh = ControlPath.constant(0.2, grid)
    v = ControlPath.constant(0.9, grid)
    xh = simulate_sve(state_free, uh, frac_kernel, 0.2, e)
    adj = assemble_adjoints(state_free, uh, xh, frac_kernel, e)
    sweep = mp_oracle.j12_gap_sweep(state_free, adj, e, 0.25,
                                    [2 ** -3, 2 ** -4, 2 ** -5, 2 ** -6], v, xi=0.2)
    assert sweep["fit"] is not None
    assert sweep["fit"]["slope"] + 0.2 > 1.0


def test_vi_checker_singleton_grid(grid, lq, frac_kernel, ens):
    uh = ControlPath.constant(0.5, grid)
    xh = simulate_sve(lq, uh, frac_kernel, 0.4, ens)
    adj = assemble_adjoints(lq, uh, xh, frac_kernel, ens)
    rep = check_variational_inequality(lq, uh, adj, np.array([[0.5]]), ens, xh)
    assert rep.passed and rep.min_gap == 0.0


def test_vi_argmax_passes_and_perturbation_fails(grid, lq, delta_kernel, ens):
    u0 = ControlPath.constant(0.0, grid)
    x0 = simulate_sve(lq, u0, delta_kernel, 0.4, ens)
    adj0 = assemble_adjoints(lq, u0, x0, delta_kernel, ens, tol=1e-13)
    uh = construct_argmax_control(lq, adj0, grid)
    xh = simulate_sve(lq, uh, delta_kernel, 0.4, ens)
    adj = assemble_adjoints(lq, uh, xh, delta_kernel, ens, tol=1e-13)
    rep = check_variational_inequality(lq, uh, adj, lq.control_domain.points, ens, xh)
    assert rep.passed and rep.deterministic
    assert rep.min_gap >= -1e-8

    ub = perturb_control(uh, grid, 0.25, 0.375, 1.0)
    xb = simulate_sve(lq, ub, delta_kernel, 0.4, ens)
    adjb = assemble_adjoints(lq, ub, xb, delta_kernel, ens, tol=1e-13)
    repb = check_variational_inequality(lq, ub, adjb, lq.control_domain.points, ens, xb)
    assert not repb.passed
    viol = [t for (t, v, g, s, ok) in repb.rows if not ok]
    assert min(viol) >= 0.25 and max(viol) < 0.375


def test_classical_reference_matches_field_checker(grid, lq, delta_kernel, ens):
    uh = ControlPath.constant(-0.5, grid)
    xh = simulate_sve(lq, uh, delta_kernel, 0.4, ens)
    adj = assemble_adjoints(lq, uh, xh, delta_kernel, ens, tol=1e-13)
    rep = check_variational_inequality(lq, uh, adj, lq.control_domain.points, ens, xh)
    cl = classical_adjoint_gaps(lq, uh, lq.control_domain.points, grid, xh)
    gaps = {(t, v): g for (t, v, g, s, ok) in rep.rows}
    dev = max(abs(gaps[key] - cl["gaps"][key]) for key in cl["gaps"])
    assert dev <= 1e-10


@pytest.mark.parametrize("n_steps, n_paths", [(13, 100), (37, 3000)],
                         ids=["one_partial_block", "blocks_of_3_and_a_rest"])
def test_classical_gaps_match_loop_oracle(n_steps, n_paths, lq, delta_kernel):
    grid = TimeGrid(1.0, n_steps)
    e = sample_brownian(grid, n_paths, 99)
    uh = perturb_control(ControlPath.constant(-0.5, grid), grid, grid.t[n_steps // 3],
                         grid.t[2 * n_steps // 3], 1.0)
    xh = simulate_sve(lq, uh, delta_kernel, 0.4, e)
    args = (lq, uh, lq.control_domain.points, grid, xh)
    cl = classical_adjoint_gaps(*args)
    ref = mp_oracle.classical_adjoint_gaps_on_tables(*args)
    assert list(cl["gaps"].items()) == list(ref["gaps"].items())


def test_duality_residual_bitwise_reproducible(grid, state_free, frac_kernel):
    vals = []
    for _ in range(2):
        e = sample_brownian(grid, 400, 777)
        uh = ControlPath.constant(0.2, grid)
        xh = simulate_sve(state_free, uh, frac_kernel, 0.2, e)
        adj = assemble_adjoints(state_free, uh, xh, frac_kernel, e)
        spike = SpikeSpec(tau=0.25, eps=0.0625, v=ControlPath.constant(0.9, grid))
        r = duality_stats(duality_residuals(state_free, spike, adj, e, xi=0.2)["first"])
        vals.append(r["display_mean"])
    assert vals[0] == vals[1]


@pytest.mark.parametrize("name, u_val, v_val, xi", [("lq_linear_cost", 0.5, -0.5, 0.4),
                                                    ("state_free_quadratic", 0.2, 0.9, 0.2)],
                         ids=["deterministic", "affine"])
def test_duality_residuals_are_prefix_exact(name, u_val, v_val, xi):
    # rows :n of one run equal the run on the first n paths, byte for byte, so
    # the duality experiment takes every smaller ensemble's statistics over a prefix
    grid = TimeGrid(1.0, 64)
    kern = build_fractional_lift(0.8, 0.9, None, 1e-3, 1e5, 32)
    pr, uh = make_problem(name), ControlPath.constant(u_val, grid)
    spike = SpikeSpec(tau=0.25, eps=0.125, v=ControlPath.constant(v_val, grid))

    def run(e):   # every per-path vector of the result, by name
        xh = simulate_sve(pr, uh, kern, xi, e)
        res = duality_residuals(pr, spike, assemble_adjoints(pr, uh, xh, kern, e), e, xi=xi)
        return {"spike_adjoint": res["spike_adjoint"], "j12": res["bundle"].j12_terms,
                **{f"{order}/{key}": vec for order in ("first", "second")
                   for key, vec in res[order].items()}}

    full = sample_brownian(grid, 5003, 11)
    ref = run(full)
    for n in (7, 37, 1000, 2000):
        for key, vec in run(full.first_paths(n)).items():
            assert vec.tobytes() == ref[key][:n].tobytes(), (n, key)


@pytest.mark.parametrize("name, lsmc, u_val, v_val, xi, pair_terms", [
    ("lq_linear_cost", False, 0.5, -0.5, 0.4, "none"),
    ("state_free_quadratic", False, 0.2, 0.9, 0.2, "linear"),
    ("bilinear_lq", True, 0.1, 1.0, 0.3, "quadratic")], ids=["lq", "state_free", "bilinear"])
def test_duality_residuals_match_loop_oracle(name, lsmc, u_val, v_val, xi, pair_terms, grid,
                                             frac_kernel):
    # the tabulated accumulator against the per-step one, every per-path vector
    e = sample_brownian(grid, 200, 31)
    pr, uh = make_problem(name), ControlPath.constant(u_val, grid)
    spike = SpikeSpec(tau=0.25, eps=0.125, v=ControlPath.constant(v_val, grid))
    xh = simulate_sve(pr, uh, frac_kernel, xi, e)
    adj = assemble_adjoints(pr, uh, xh, frac_kernel, e, lsmc=lsmc)
    res = duality_residuals(pr, spike, adj, e, xi=xi)
    ref = mp_oracle.duality_residuals(pr, spike, adj, e, xh, xi=xi)
    assert res["pair_terms"] == pair_terms
    if pair_terms == "none":
        # the skipped pair terms leave exact zeros where the oracle adds them up
        for key in ("lhs", "exact", "display"):
            assert res["second"][key].tobytes() == ref["second"][key].tobytes(), key
        assert not np.any(res["second"]["lhs"] - res["second"]["exact"])
    for order in ("first", "second")[:1 if pair_terms == "none" else 2]:
        scale = np.max(np.abs(ref[order]["lhs"]))
        assert scale > 0.0
        for key in ("lhs", "exact", "display"):
            assert np.max(np.abs(res[order][key] - ref[order][key])) <= 1e-12 * scale, \
                (order, key)
    sa, sa_ref = res["spike_adjoint"], ref["spike_adjoint"]
    assert np.max(np.abs(sa - sa_ref)) <= 1e-12 * np.max(np.abs(sa_ref))


_DUALITY_CASES = {
    # problem -> (parameters drawn at random, regression solve path)
    "lq_linear_cost": (("b1", "b2", "s1", "s0", "c1", "ch"), False),
    "state_free_quadratic": (("b0", "b2", "s0", "s2", "r", "h2", "h1"), False),
    # the one problem with a nonzero pair generator; its first-order field is a
    # regression estimate, so only the pair-field identity is exact there.  Its
    # own parameters: drawn in [-1, 1], the pair Picard solve does not always
    # contract on these grids
    "bilinear_lq": ((), True),
}


@settings(max_examples=40, deadline=None)
@given(n_nodes=st.integers(1, 6), n_steps=st.integers(4, 24),
       name=st.sampled_from(sorted(_DUALITY_CASES)), zero_node=st.booleans(),
       seed=st.integers(0, 10 ** 6), data=st.data())
def test_exact_duality_residuals_vanish_on_random_atom_kernels(n_nodes, n_steps, name,
                                                               zero_node, seed, data):
    # masses in [0.1, 1], as the bridge property test draws them, so the
    # adjoint Picard solves contract on the coarsest grids
    rng = np.random.default_rng(seed)
    nodes = np.cumsum(rng.uniform(0.2, 8.0, n_nodes))
    if zero_node:
        nodes -= nodes[0]
    k = DiscreteLaplaceKernel(nodes=nodes, weights=rng.uniform(0.1, 1.0, n_nodes),
                              mb=rng.uniform(0.1, 1.0, n_nodes),
                              msigma=rng.uniform(0.1, 1.0, n_nodes))
    keys, lsmc = _DUALITY_CASES[name]
    pr = make_problem(name, **dict(zip(keys, rng.uniform(-1.0, 1.0, len(keys)))))
    grid = TimeGrid(1.0, n_steps)
    j0 = data.draw(st.integers(0, n_steps - 1), label="j0")
    width = data.draw(st.integers(1, n_steps - j0), label="width")
    u_val, v_val, xi = rng.uniform(-1.0, 1.0, 3)
    uh = ControlPath.constant(u_val, grid)
    spike = SpikeSpec(tau=j0 * grid.dt, eps=width * grid.dt, v=ControlPath.constant(v_val, grid))
    e = sample_brownian(grid, 64, seed)
    xh = simulate_sve(pr, uh, k, xi, e)
    adj = assemble_adjoints(pr, uh, xh, k, e, lsmc=lsmc)
    res = duality_residuals(pr, spike, adj, e, xi=xi)
    if not lsmc:
        assert duality_stats(res["first"])["exact_max"] <= 1e-8
    assert duality_stats(res["second"])["exact_max"] <= 1e-8


def _assert_same_report(rep, ref):
    assert rep.rows == ref.rows
    for attr in ("min_gap", "min_location", "passed", "deterministic", "tol_margin",
                 "max_quadratic_term", "state_degree", "per_path"):
        assert getattr(rep, attr) == getattr(ref, attr), attr


def test_vi_check_matches_loop_oracle_on_bundled_lq(grid, lq, frac_kernel, ens):
    # the mp-check sequence: argmax control, then a perturbation that must fail
    u0 = ControlPath.constant(0.0, grid)
    x0 = simulate_sve(lq, u0, frac_kernel, 0.3, ens)
    adj0 = assemble_adjoints(lq, u0, x0, frac_kernel, ens, tol=1e-13)
    uh = construct_argmax_control(lq, adj0, grid)
    for u in (uh, perturb_control(uh, grid, 0.25, 0.375, 1.0)):
        xh = simulate_sve(lq, u, frac_kernel, 0.3, ens)
        adj = assemble_adjoints(lq, u, xh, frac_kernel, ens, tol=1e-13)
        args = (lq, u, adj, lq.control_domain.points, ens, xh)
        _assert_same_report(check_variational_inequality(*args),
                            mp_oracle.check_variational_inequality_on_tables(*args))


def test_vi_check_matches_loop_oracle_on_per_path_adjoint(grid, state_free, frac_kernel, ens):
    uh = ControlPath.constant(0.2, grid)
    xh = simulate_sve(state_free, uh, frac_kernel, 0.2, ens)
    adj = assemble_adjoints(state_free, uh, xh, frac_kernel, ens)
    assert adj.first_contractions_at(3)[0].shape == (ens.n_paths, 1)   # affine field
    args = (state_free, uh, adj, state_free.control_domain.points, ens, xh)
    rep = check_variational_inequality(*args)
    assert rep.max_quadratic_term > 0.0 and not rep.deterministic
    assert rep.per_path and rep.state_degree == 0
    _assert_same_report(rep, mp_oracle.check_variational_inequality_on_tables(*args))


@settings(max_examples=60, deadline=None)
@given(n_rows=st.integers(1, 8), paths=st.integers(1, 9000), seed=st.integers(0, 10 ** 6),
       scale=st.floats(-8.0, 8.0), offset=st.floats(-3.0, 3.0))
def test_row_mean_se_bitwise_equals_per_row(n_rows, paths, seed, scale, offset):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(n_rows, paths)) * 10.0 ** scale + 10.0 ** offset
    means, ses = mc_mean_se_rows(s)
    assert [(m, e) for m, e in zip(means.tolist(), ses.tolist())] == [mc_mean_se(r) for r in s]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), fractional=st.booleans())
def test_argmax_control_matches_loop_oracle(seed, fractional, grid, ens, frac_kernel,
                                            delta_kernel):
    rng = np.random.default_rng(seed)
    kernel = frac_kernel if fractional else delta_kernel
    pr = make_problem("lq_linear_cost", b1=rng.uniform(-1, 1), b2=rng.uniform(-2, 2),
                      s1=rng.uniform(-1, 1), c1=rng.uniform(-1, 1), r=rng.uniform(0.1, 3),
                      ch=rng.uniform(-2, 2), u_grid=tuple(rng.uniform(-2, 2, rng.integers(1, 7))))
    u0 = ControlPath(rng.uniform(-1, 1, (grid.n_steps + 1, 1)))
    adj0 = assemble_adjoints(pr, u0, None, kernel, ens.first_paths(8))
    uh = construct_argmax_control(pr, adj0, grid)
    assert np.array_equal(uh.values, mp_oracle.construct_argmax_control(pr, adj0, grid).values)


def test_argmax_control_first_control_point_wins_a_tie(grid, delta_kernel, ens):
    # every Hamiltonian of the zero problem is 0, so each step is a three-way tie
    pr = make_problem("zero", u_grid=(0.5, -1.0, 2.0))
    adj = assemble_adjoints(pr, ControlPath.constant(0.0, grid), None, delta_kernel, ens)
    uh = construct_argmax_control(pr, adj, grid)
    assert np.array_equal(uh.values, mp_oracle.construct_argmax_control(pr, adj, grid).values)
    assert np.all(uh.values == 0.5)


@pytest.mark.parametrize("n_steps, n_paths", [(13, 100), (37, 3000), (5, 11000)],
                         ids=["one_partial_block", "blocks_of_3_and_a_rest", "blocks_of_1"])
@pytest.mark.parametrize("name, u_val", [("lq_linear_cost", 0.5), ("state_free_quadratic", 0.2)],
                         ids=["deterministic", "affine"])
def test_blocked_vi_check_matches_loop_oracle(n_steps, n_paths, name, u_val, frac_kernel):
    # where the gap takes one value per path (the affine field's Ab), a block holds
    # 2**16 // (6 * paths) steps: 109, 3 and 1 here, against 13, 37 and 5 steps
    pr = make_problem(name)
    grid = TimeGrid(1.0, n_steps)
    e = sample_brownian(grid, n_paths, 4242)
    uh = perturb_control(ControlPath.constant(u_val, grid), grid, grid.t[n_steps // 3],
                         grid.t[2 * n_steps // 3], -1.0)
    xh = simulate_sve(pr, uh, frac_kernel, 0.3, e)
    adj = assemble_adjoints(pr, uh, xh, frac_kernel, e, tol=1e-13)
    args = (pr, uh, adj, pr.control_domain.points, e, xh)
    _assert_same_report(check_variational_inequality(*args),
                        mp_oracle.check_variational_inequality_on_tables(*args))


def _assert_gaps_close(rep, ref):
    """The gap means of two reports agree within 1e-13 of the largest |gap|."""
    assert [row[:2] for row in rep.rows] == [row[:2] for row in ref.rows]
    gaps, ref_gaps = (np.array([row[2] for row in r.rows]) for r in (rep, ref))
    scale = np.max(np.abs(ref_gaps))
    assert scale > 0.0
    assert np.max(np.abs(gaps - ref_gaps)) <= 1e-13 * scale


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6), fractional=st.booleans())
def test_table_gaps_match_evaluator_loops_on_random_linear_cost_problems(
        seed, fractional, frac_kernel, delta_kernel):
    # slopes in x that do not move with u: the gap is free of x, so the tables
    # read no state and each cell is one number, against per-path evaluator calls
    rng = np.random.default_rng(seed)
    kernel = frac_kernel if fractional else delta_kernel
    pr = make_problem("lq_linear_cost", b1=rng.uniform(-1, 1), b2=rng.uniform(-2, 2),
                      s1=rng.uniform(-1, 1), s0=rng.uniform(-1, 1), c1=rng.uniform(-1, 1),
                      r=rng.uniform(0.1, 3), ch=rng.uniform(-2, 2),
                      u_grid=tuple(rng.uniform(-2, 2, rng.integers(1, 7))))
    grid = TimeGrid(1.0, 32)
    e = sample_brownian(grid, 64, seed)
    uh = ControlPath(rng.uniform(-1, 1, (grid.n_steps + 1, 1)))
    pts = pr.control_domain.points
    adj = assemble_adjoints(pr, uh, None, kernel, e)
    xh = simulate_sve(pr, uh, kernel, 0.3, e)
    rep = check_variational_inequality(pr, uh, adj, pts, e)
    assert rep.state_degree == 0 and not rep.per_path and rep.deterministic
    assert all(row[3] == 0.0 for row in rep.rows)
    _assert_gaps_close(rep, mp_oracle.check_variational_inequality(pr, uh, adj, pts, e, xh))
    if not fractional:
        cl = classical_adjoint_gaps(pr, uh, pts, grid)["gaps"]
        ref = mp_oracle.classical_adjoint_gaps(pr, uh, pts, grid, xh)["gaps"]
        assert list(cl) == list(ref)
        scale = max(map(abs, ref.values()))
        assert max(abs(cl[key] - ref[key]) for key in ref) <= 1e-13 * scale


@pytest.mark.parametrize("name, lsmc, u_val, xi, degree", [
    ("state_free_quadratic", False, 0.2, 0.2, 0), ("bilinear_lq", True, 0.1, 0.3, 1)],
    ids=["per_path_ab", "bilinear_lsmc"])
def test_table_gaps_match_evaluator_loops(name, lsmc, u_val, xi, degree, grid, ens, frac_kernel):
    # the affine field's Ab takes one value per path; bilinear_lq's slopes in x
    # move with u, a gap of degree 1 in x plus a risk term of degree 2
    pr = make_problem(name)
    e = ens.first_paths(200)
    uh = perturb_control(ControlPath.constant(u_val, grid), grid, 0.25, 0.5, -1.0)
    xh = simulate_sve(pr, uh, frac_kernel, xi, e)
    adj = assemble_adjoints(pr, uh, xh, frac_kernel, e, lsmc=lsmc)
    args = (pr, uh, adj, pr.control_domain.points, e)
    rep = check_variational_inequality(*args, xh)
    assert rep.per_path and rep.state_degree == degree and rep.max_quadratic_term > 0.0
    _assert_gaps_close(rep, mp_oracle.check_variational_inequality(*args, xh))
    _assert_same_report(rep, mp_oracle.check_variational_inequality_on_tables(*args, xh))
    if degree:
        with pytest.raises(ValueError, match="degree 1 in x here, so it needs the state x_hat"):
            check_variational_inequality(*args)
    else:
        assert check_variational_inequality(*args).rows == rep.rows


def _planar_problem() -> CoefficientSet:
    """A 2-d linear-in-state problem whose drift and diffusion slopes move
    with the control, with linear costs: the deterministic solve path, and a
    gap of degree 1 in x."""
    A, B = np.array([[-0.4, 0.3], [0.1, -0.6]]), np.array([[0.2, 0.0], [-0.1, 0.3]])
    S, C = np.array([[0.2, 0.1], [0.0, 0.3]]), np.array([[0.1, -0.2], [0.2, 0.1]])
    bu, s0, c, hl = np.array([1.0, -0.5]), np.array([0.3, 0.2]), np.array([0.6, -0.3]), \
        np.array([1.0, 0.5])

    def col(u):            # (du,) or (rows, du) -> (1 or rows, 1)
        return np.asarray(u, dtype=float).reshape(-1, 1)

    def slope(M0, M1):
        return lambda t, u, x: np.broadcast_to(M0 + col(u)[:, :, None] * M1, (len(x), 2, 2))

    def zeros(*shape):
        return lambda t, u, x: np.zeros((len(x),) + shape)
    return CoefficientSet(
        dim=2, du=1,
        b=lambda t, u, x: x @ A.T + col(u) * (x @ B.T + bu),
        sigma=lambda t, u, x: x @ S.T + s0 + col(u) * (x @ C.T),
        f=lambda t, u, x: x @ c + 0.4 * col(u)[:, 0] ** 2, h=lambda x: x @ hl,
        b_x=slope(A, B), sigma_x=slope(S, C),
        f_x=lambda t, u, x: np.broadcast_to(c, x.shape), h_x=lambda x: np.broadcast_to(hl, x.shape),
        b_xx=zeros(2, 2, 2), sigma_xx=zeros(2, 2, 2), f_xx=zeros(2, 2),
        h_xx=lambda x: np.zeros((len(x), 2, 2)),
        control_domain=ControlDomain(np.array([[-1.0], [0.0], [0.5], [1.0]])),
        tags=StructuralTags(linear_in_state=True, f_state_degree=1, h_degree=1), name="planar")


def test_table_gaps_match_evaluator_loops_on_a_planar_problem(grid, ens):
    pr = _planar_problem()
    coefficients_oracles.tag_self_test(pr)   # its tags are declared by hand
    k = DiscreteLaplaceKernel(nodes=[0.0, 1.5], weights=[0.6, 0.4],
                              mb=np.stack([0.5 * np.eye(2), np.eye(2)]),
                              msigma=np.stack([0.4 * np.eye(2), 0.3 * np.eye(2)]))
    e = ens.first_paths(200)
    uh = perturb_control(ControlPath.constant(0.5, grid), grid, 0.25, 0.5, -1.0)
    xh = simulate_sve(pr, uh, k, 0.3, e)
    adj = assemble_adjoints(pr, uh, None, k, e)
    args = (pr, uh, adj, pr.control_domain.points, e, xh)
    rep = check_variational_inequality(*args)
    assert rep.state_degree == 1 and rep.per_path
    _assert_gaps_close(rep, mp_oracle.check_variational_inequality(*args))


def test_gap_tables_name_an_untagged_evaluator(grid, lq, ens, delta_kernel):
    # (a gap that reads x without x_hat: test_table_gaps_match_evaluator_loops)
    uh = ControlPath.constant(0.5, grid)
    pts = lq.control_domain.points
    for tags, name in ((StructuralTags(f_state_degree=1), "b"),
                       (StructuralTags(linear_in_state=True, f_state_degree=3), "f")):
        with pytest.raises(ValueError, match=f"degree in x of {name},"):
            gap_tables(replace(lq, tags=tags), uh, pts, grid)
    adj = assemble_adjoints(lq, uh, None, delta_kernel, ens)
    with pytest.raises(ValueError, match="degree in x of b,"):
        construct_argmax_control(replace(lq, tags=StructuralTags(f_state_degree=1)), adj, grid)


def test_classical_gaps_refuse_an_untagged_problem(grid, lq):
    # they read b_x, sigma_x, f_x and f_xx at x = 0, which is exact only where
    # the tags fix their degree
    with pytest.raises(ValueError, match="degree in x of b_x,"):
        classical_adjoint_gaps(replace(lq, tags=StructuralTags()), ControlPath.constant(0.5, grid),
                               lq.control_domain.points, grid)
