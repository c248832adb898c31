import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bsvie_oracles as oracle
from volterra_smp.bsee import assemble_adjoints
from volterra_smp.bsvie import (BSVIEFirstTuple, bsee_to_bsvie_first, bsee_to_bsvie_second,
                                bsvie_residual_first, bsvie_residual_second,
                                m_constraint_residual_first, reconstruct_first_field,
                                reconstruct_second_field)
from volterra_smp.coefficients import ControlPath, StructuralTags, make_problem
from volterra_smp.grids import TimeGrid
from volterra_smp.kernels import (DiscreteLaplaceKernel, build_fractional_lift, constant_kernel,
                                  exponential_kernel)
from volterra_smp.simulate import sample_brownian, simulate_sve


@pytest.fixture(scope="module")
def kernels0(frac_kernel):
    """Two regular kernels and the lift of the singular one: the bridge
    identities are the same discrete algebra on every atom kernel."""
    return {"constant": constant_kernel(alpha=0.0),
            "exponential": exponential_kernel(2.0, alpha=0.0), "fractional": frac_kernel}


@pytest.fixture(scope="module", params=["constant", "exponential", "fractional"])
def kernel0(request, kernels0):
    return kernels0[request.param]


def solve(problem, kernel, grid, ens, u_val=0.3, xi=0.4, **kw):
    uh = ControlPath.constant(u_val, grid)
    xh = simulate_sve(problem, uh, kernel, xi, ens)
    adj = assemble_adjoints(problem, uh, xh, kernel, ens, tol=1e-13, **kw)
    return uh, xh, adj


def test_first_bridge_deterministic_oracle(grid, lq, kernel0, ens):
    uh, xh, adj = solve(lq, kernel0, grid, ens)
    tup = bsee_to_bsvie_first(adj, kernel0)
    assert tup.deterministic
    assert np.all(tup.q1 == 0.0)
    res = bsvie_residual_first(tup, lq, uh, kernel0, ens)
    assert res["res_line1"] <= 1e-8
    assert res["res_line2"] <= 1e-8


def test_first_bridge_roundtrip(grid, lq, kernel0, ens):
    uh, xh, adj = solve(lq, kernel0, grid, ens)
    tup = bsee_to_bsvie_first(adj, kernel0)
    rec = reconstruct_first_field(tup, kernel0)
    assert np.max(np.abs(rec - adj.first.P0[:, :, 0])) <= 1e-8


def test_first_bridge_zero_problem(grid, kernel0, ens):
    pr = make_problem("zero")
    uh, xh, adj = solve(pr, kernel0, grid, ens, xi=0.0)
    tup = bsee_to_bsvie_first(adj, kernel0)
    assert np.max(np.abs(tup.p1_0)) == 0.0
    assert np.max(np.abs(tup.p2_0)) == 0.0


def test_first_residual_refuses_an_untagged_problem(grid, lq, delta_kernel, ens):
    # it reads b_x, sigma_x and f_x at x = 0, which is exact for b_x and
    # sigma_x only where the tags fix their degree
    uh, xh, adj = solve(lq, delta_kernel, grid, ens)
    tup = bsee_to_bsvie_first(adj, delta_kernel)
    with pytest.raises(ValueError, match="degree in x of b_x,"):
        bsvie_residual_first(tup, replace(lq, tags=StructuralTags()), uh, delta_kernel, ens)


def test_first_bridge_perturbation_probe(grid, lq, kernel0, ens):
    uh, xh, adj = solve(lq, kernel0, grid, ens)
    tup = bsee_to_bsvie_first(adj, kernel0)
    res0 = bsvie_residual_first(tup, lq, uh, kernel0, ens)
    bad = BSVIEFirstTuple(grid=grid, p1_0=tup.p1_0, p2_0=tup.p2_0 * 1.01, q1=tup.q1)
    res1 = bsvie_residual_first(bad, lq, uh, kernel0, ens)
    assert res1["res_line2"] > 10 * max(res0["res_line2"], 1e-14)


def test_first_bridge_affine_regime(grid, state_free, kernel0, ens):
    uh, xh, adj = solve(state_free, kernel0, grid, ens, u_val=0.2, xi=0.2)
    tup = bsee_to_bsvie_first(adj, kernel0)
    assert not tup.deterministic
    res = bsvie_residual_first(tup, state_free, uh, kernel0, ens)
    assert res["res_line1"] <= 1e-8
    assert res["res_line2"] <= 1e-8
    assert m_constraint_residual_first(tup, ens) <= 1e-8


@pytest.mark.parametrize("q1_scale", [1.0, 1.5], ids=["solved", "perturbed"])
def test_affine_residuals_match_running_sums_bit_for_bit(state_free, q1_scale):
    # 11000 paths at 24 steps span three path blocks of 5242; the blocked
    # sums run in the loops' order, so every residual is the same float, at
    # roundoff on the solved tuple and at O(1) with q1 off by half
    grid = TimeGrid(1.0, 24)
    kern, e = exponential_kernel(2.0, alpha=0.0), sample_brownian(grid, 11000, 5)
    uh, _, adj = solve(state_free, kern, grid, e, u_val=0.2, xi=0.2)
    tup = bsee_to_bsvie_first(adj, kern)
    tup = replace(tup, q1=tup.q1 * q1_scale)
    res = bsvie_residual_first(tup, state_free, uh, kern, e)
    got = (res["res_line1"], res["res_line2"], m_constraint_residual_first(tup, e))
    assert got == oracle.running_sum_residuals_first(tup, state_free, uh, kern, e)
    assert (max(got) > 0.1) == (q1_scale != 1.0)


def test_second_bridge_quadratic_h_oracle(grid, state_free, kernels0, ens):
    for k in kernels0.values():
        uh, xh, adj = solve(state_free, k, grid, ens, u_val=0.2, xi=0.2)
        tup2 = bsee_to_bsvie_second(state_free, adj, k, ens, r_subgrid=8)
        # terminal Hessian is the constant h2 = 1.2
        assert np.allclose(tup2.P1, -1.2)
        res = bsvie_residual_second(tup2, state_free, adj, k)
        assert max(res.values()) <= 1e-8
        rec = reconstruct_second_field(tup2, k)
        assert np.max(np.abs(rec - adj.second.P[:, :, :, 0, 0])) <= 1e-8


def test_second_bridge_subgrid_validation(grid, state_free, ens):
    k = constant_kernel(alpha=0.0)
    uh, xh, adj = solve(state_free, k, grid, ens, u_val=0.2, xi=0.2)
    with pytest.raises(ValueError, match="at least 4"):
        bsee_to_bsvie_second(state_free, adj, k, ens, r_subgrid=3)


def test_second_bridge_full_r_family_holds_no_field_table(lq):
    # the full r-family has R = N + 1 rows: an (R, N+1, K) field table would
    # take (N+1)^2 K floats, 16 MiB here; the sweep keeps one (R, K) row and
    # the (R, N+1) generators, about 2 MiB
    grid = TimeGrid(1.0, 512)
    k = build_fractional_lift(0.8, 0.9, None, 1e-2, 1e4, 8, alpha=1.0 / 3.0)
    e = sample_brownian(grid, 16, 5)
    uh, xh, adj = solve(lq, k, grid, e)
    assert adj.solve_path == "deterministic"
    tracemalloc.start()
    try:
        tup2 = bsee_to_bsvie_second(lq, adj, k, e, r_subgrid="full")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tup2.P4) == grid.n_steps
    assert peak <= 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_second_bridge_coupled_consistency_order(bilinear, frac_kernel):
    # with drift coupling the pair-level identities mix terminal-point and
    # step-integrated kernel scales: residuals shrink linearly with dt
    for k in (exponential_kernel(1.5, alpha=0.0), frac_kernel):
        vals = []
        for n in (64, 128):
            grid = TimeGrid(1.0, n)
            e = sample_brownian(grid, 100, 9)
            uh = ControlPath.constant(0.3, grid)
            xh = simulate_sve(bilinear, uh, k, 0.4, e)
            adj = assemble_adjoints(bilinear, uh, xh, k, e, tol=1e-13, lsmc=True)
            tup2 = bsee_to_bsvie_second(bilinear, adj, k, e, r_subgrid="full")
            res = bsvie_residual_second(tup2, bilinear, adj, k)
            assert max(res["res_eq1"], res["res_eq2"], res["res_eq4"]) <= 1e-10
            rec = reconstruct_second_field(tup2, k)
            vals.append((res["res_eq3"],
                         float(np.max(np.abs(rec - adj.second.P[:, :, :, 0, 0])))))
        assert vals[1][0] < 0.7 * vals[0][0]
        assert vals[1][1] < 0.7 * vals[0][1]


def test_second_bridge_zero_problem(grid, kernels0, ens):
    pr = make_problem("zero")
    for k in kernels0.values():
        uh, xh, adj = solve(pr, k, grid, ens, xi=0.0)
        tup2 = bsee_to_bsvie_second(pr, adj, k, ens, r_subgrid=4)
        assert np.max(np.abs(tup2.P1)) == 0.0
        assert np.max(np.abs(tup2.P2)) == 0.0
        assert np.max(np.abs(tup2.P3)) == 0.0
        res = bsvie_residual_second(tup2, pr, adj, k)
        assert max(res.values()) == 0.0


PROPERTY_CASES = {
    # problem -> (regression solve path, reference control, initial state)
    "lq_linear_cost": (False, 0.3, 0.4),
    "state_free_quadratic": (False, 0.2, 0.2),
    "bilinear_lq": (True, 0.3, 0.4),
}


@settings(max_examples=30, deadline=None)
@given(n_nodes=st.integers(1, 6), n_steps=st.integers(4, 24),
       name=st.sampled_from(sorted(PROPERTY_CASES)), r_subgrid=st.sampled_from(["full", 4, 6]),
       zero_node=st.booleans(), seed=st.integers(0, 10 ** 6))
def test_bridge_evaluators_match_loop_oracles(n_nodes, n_steps, name, r_subgrid, zero_node, seed):
    # random regular atom kernels, with masses small enough for the adjoint
    # Picard solves to contract on the coarsest grids: the lag-table
    # contractions must reproduce the per-grid-point sums of the loop forms
    rng = np.random.default_rng(seed)
    nodes = np.cumsum(rng.uniform(0.2, 8.0, n_nodes))
    if zero_node:
        nodes -= nodes[0]
    k = DiscreteLaplaceKernel(nodes=nodes, weights=rng.uniform(0.1, 1.0, n_nodes),
                              mb=rng.uniform(0.1, 1.0, n_nodes),
                              msigma=rng.uniform(0.1, 1.0, n_nodes))
    lsmc, u_val, xi = PROPERTY_CASES[name]
    grid = TimeGrid(1.0, n_steps)
    e = sample_brownian(grid, 64, seed)
    problem = make_problem(name)
    uh, xh, adj = solve(problem, k, grid, e, u_val=u_val, xi=xi, lsmc=lsmc)

    def close(new, ref):
        np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-12)

    tup = bsee_to_bsvie_first(adj, k)
    new, ref = (f(tup, problem, uh, k, e) for f in (bsvie_residual_first,
                                                     oracle.bsvie_residual_first))
    close([new["res_line1"], new["res_line2"]], [ref["res_line1"], ref["res_line2"]])
    close(m_constraint_residual_first(tup, e), oracle.m_constraint_residual_first(tup, e))

    tup2 = bsee_to_bsvie_second(problem, adj, k, e, r_subgrid=r_subgrid)
    new = bsvie_residual_second(tup2, problem, adj, k)
    ref = oracle.bsvie_residual_second(tup2, problem, adj, k)
    close([new[key] for key in sorted(ref)], [ref[key] for key in sorted(ref)])
    close(reconstruct_second_field(tup2, k), oracle.reconstruct_second_field(tup2, k))
