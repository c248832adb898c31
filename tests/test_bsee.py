import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volterra_smp.bsde import BSDEInstance, solve_bsde_closedform
from volterra_smp.bsee import (GaussianMartingale, PicardError, assemble_adjoints,
                               assemble_first_adjoint, picard_bsee_solve,
                               s_norm_distance, theta_grid_from_kernel,
                               trivial_bsee_solve)
from volterra_smp.coefficients import ControlPath, make_problem
from volterra_smp.grids import ThetaGrid, hnorm1
from volterra_smp.kernels import step_decay_weight
from volterra_smp.simulate import sample_brownian, simulate_sve


def theta_of(kernel):
    return theta_grid_from_kernel(kernel)


def test_hnorm_zero_and_single_node():
    tg = ThetaGrid(nodes=np.array([3.0]), mu_weights=np.array([1.0]))
    psi = np.zeros((1, 1))
    assert hnorm1(psi, tg, 2.0) == 0.0
    psi = np.full((1, 1), 2.0)
    # one-term sum: 2 * sqrt((1 + 3) * r(3)) with r(3) = 3^{-1/2}
    expect = 2.0 * np.sqrt(4.0 * 3.0 ** -0.5)
    assert hnorm1(psi, tg, 1.0) == pytest.approx(expect, rel=1e-14)
    assert hnorm1(psi, tg, 1.0) == pytest.approx(3.0393427426063734, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(beta=st.floats(-1.0, 2.0), drop=st.floats(0.1, 2.0), seed=st.integers(0, 10 ** 6))
def test_hnorm_embedding_monotone(beta, drop, seed):
    rng = np.random.default_rng(seed)
    tg = ThetaGrid(nodes=np.sort(rng.uniform(0.0, 50.0, 6) + np.arange(6)),
                   mu_weights=rng.uniform(0.1, 2.0, 6))
    psi = rng.normal(size=(6, 1))
    assert hnorm1(psi, tg, beta - drop) <= hnorm1(psi, tg, beta) * (1 + 1e-12)


def test_trivial_solve_constant_data_closed_form(grid, frac_kernel):
    tg = theta_of(frac_kernel)
    c, g = 2.0, 0.7
    fld = trivial_bsee_solve(tg, grid, np.full((tg.size, 1), c),
                             np.full((grid.n_steps + 1, tg.size, 1), g))
    th = tg.nodes
    tt = grid.T - grid.t
    decay = np.exp(-np.outer(tt, th))
    tail = np.where(th[None, :] > 0, (1.0 - decay) / np.where(th[None, :] > 0, th[None, :], 1.0),
                    tt[:, None])
    assert np.max(np.abs(fld.P0[:, :, 0] - (c * decay + g * tail))) <= 1e-12


def test_trivial_solve_zero_node_limit(grid, delta_kernel):
    tg = theta_of(delta_kernel)
    fld = trivial_bsee_solve(tg, grid, np.zeros((1, 1)),
                             np.ones((grid.n_steps + 1, 1, 1)))
    # theta = 0 limit of the discounted tail is g * (T - t)
    assert np.max(np.abs(fld.P0[:, 0, 0] - (grid.T - grid.t))) <= 1e-12


def test_trivial_solve_zero_data(grid, frac_kernel):
    tg = theta_of(frac_kernel)
    fld = trivial_bsee_solve(tg, grid, np.zeros((tg.size, 1)),
                             np.zeros((grid.n_steps + 1, tg.size, 1)))
    assert np.max(np.abs(fld.P0)) == 0.0


def test_trivial_solve_brownian_terminal(grid, frac_kernel):
    e = sample_brownian(grid, 200, 15)
    tg = theta_of(frac_kernel)
    Z = GaussianMartingale(values=e.W, vol=np.ones(grid.n_steps + 1))
    a = 0.8
    fld = trivial_bsee_solve(tg, grid, np.zeros((tg.size, 1)),
                             np.zeros((grid.n_steps + 1, tg.size, 1)),
                             phi1=np.full((tg.size, 1), a), Z=Z)
    # node-wise check against the scalar closed form p = a e^{-th (T-t)} W_t
    for i, th in enumerate(tg.nodes[::5]):
        inst = BSDEInstance(grid, kappa=float(th), terminal_wt=a)
        sol = solve_bsde_closedform(inst)
        idx = 5 * i
        p_field = fld.P0[None, :, idx, 0] + fld.P1[None, :, idx, 0] * Z.values
        assert np.max(np.abs(p_field - sol.p_values(e))) <= 1e-12
        assert np.max(np.abs(fld.Q0[:-1, idx, 0] - sol.q[:-1])) <= 1e-12


def test_picard_constant_generator_one_iteration(grid, frac_kernel):
    tg = theta_of(frac_kernel)
    phi = np.zeros((tg.size, 1))

    def gen_map(P):
        return np.ones_like(P)

    fld = picard_bsee_solve(tg, grid, phi, gen_map, alpha=frac_kernel.alpha, order=1)
    assert fld.iterations <= 2  # constant map: first correction already exact
    assert fld.distances[-1] < 1e-10


def test_picard_reports_non_contraction(grid, delta_kernel):
    tg = theta_of(delta_kernel)
    phi = np.ones((1, 1))

    def expanding(P):
        return 10.0 * P + 1.0

    with pytest.raises(PicardError):
        picard_bsee_solve(tg, grid, phi, expanding, alpha=0.0, order=1, max_iter=60)


def test_picard_geometric_decay_on_linear_problem(grid, lq, frac_kernel, ens):
    uh = ControlPath.constant(0.5, grid)
    adj = assemble_first_adjoint(lq, uh, None, frac_kernel, ens)
    d = adj.first.distances
    assert d[-1] < 1e-10 and len(d) <= 50
    ratios = [d[i + 1] / d[i] for i in range(2, len(d) - 1)]
    assert all(r <= 0.9 for r in ratios)


def test_first_adjoint_terminal_only_oracle(grid, frac_kernel, ens):
    # h linear, zero state couplings, zero running slope: p = -ch e^{-th (T-t)}
    pr = make_problem("lq_linear_cost", b1=0.0, s1=0.0, c1=0.0, ch=1.3)
    uh = ControlPath.constant(0.5, grid)
    adj = assemble_first_adjoint(pr, uh, None, frac_kernel, ens)
    expect = -1.3 * np.exp(-np.outer(grid.T - grid.t, frac_kernel.nodes))
    assert np.max(np.abs(adj.first.P0[:, :, 0] - expect)) <= 1e-12
    assert np.max(np.abs(adj.first.Q0)) == 0.0


def test_first_adjoint_running_slope_oracle(grid, frac_kernel, ens):
    # f_x = c1 constant, everything else uncoupled: the node equation has
    # generator -c1, so p = -c1 (1 - e^{-th (T-t)}) / th (limit (T-t) at 0)
    pr = make_problem("lq_linear_cost", b1=0.0, s1=0.0, c1=0.6, ch=0.0)
    uh = ControlPath.constant(0.5, grid)
    adj = assemble_first_adjoint(pr, uh, None, frac_kernel, ens)
    th = frac_kernel.nodes
    tt = grid.T - grid.t
    tail = (1.0 - np.exp(-np.outer(tt, th))) / th[None, :]
    assert np.max(np.abs(adj.first.P0[:, :, 0] + 0.6 * tail)) <= 1e-12


def test_first_adjoint_node_bsde_residual(grid, lq, frac_kernel, ens):
    uh = ControlPath.constant(0.5, grid)
    adj = assemble_first_adjoint(lq, uh, None, frac_kernel, ens)
    th = adj.tgrid.nodes
    dec = np.exp(-th * grid.dt)
    om = step_decay_weight(th, grid.dt)
    P0, G0 = adj.first.P0[:, :, 0], adj.first.G0[:, :, 0]
    resid = P0[:-1] - dec[None, :] * P0[1:] - om[None, :] * G0[:-1]
    assert np.max(np.abs(resid)) <= 1e-10


def test_second_adjoint_pair_oracle(grid, frac_kernel, ens):
    pr = make_problem("state_free_quadratic", h2=2.0)
    uh = ControlPath.constant(0.5, grid)
    xh = simulate_sve(pr, uh, frac_kernel, 0.2, ens)
    adj = assemble_adjoints(pr, uh, xh, frac_kernel, ens)
    varpi = adj.tgrid.varpi2()
    expect = -2.0 * np.exp(-np.multiply.outer(grid.T - grid.t, varpi))
    assert np.max(np.abs(adj.second.P[:, :, :, 0, 0] - expect)) <= 1e-12
    assert adj.second.asymmetry <= 1e-10


def test_second_adjoint_zero_without_hessians(grid, lq, frac_kernel, ens):
    uh = ControlPath.constant(0.5, grid)
    adj = assemble_adjoints(lq, uh, None, frac_kernel, ens)
    assert np.max(np.abs(adj.second.P)) == 0.0


def test_single_zero_node_matches_classical_bsde(grid, lq, delta_kernel, ens):
    # the decay-grid solve at a single zero node is the classical pair solve
    uh = ControlPath.constant(0.5, grid)
    adj = assemble_first_adjoint(lq, uh, None, delta_kernel, ens, tol=1e-13)
    from volterra_smp.maxprinciple import classical_adjoint_gaps
    xh = simulate_sve(lq, uh, delta_kernel, 0.4, ens)
    cl = classical_adjoint_gaps(lq, uh, lq.control_domain.points, grid, xh)
    assert np.max(np.abs(adj.first.P0[:, 0, 0] - cl["p"])) <= 1e-10


def test_affine_path_requires_state(grid, state_free, frac_kernel, ens):
    uh = ControlPath.constant(0.5, grid)
    with pytest.raises(ValueError, match="reference state"):
        assemble_first_adjoint(state_free, uh, None, frac_kernel, ens)


def test_unsupported_structure_rejected(grid, bilinear, frac_kernel, ens):
    uh = ControlPath.constant(0.1, grid)
    with pytest.raises(ValueError, match="unsupported coefficient structure"):
        assemble_first_adjoint(bilinear, uh, None, frac_kernel, ens)


def test_linearity_of_weighted_energies(grid, frac_kernel, ens):
    # scaling the terminal data scales every weighted field quadratic by c^2
    pr1 = make_problem("lq_linear_cost", b1=0.0, s1=0.0, c1=0.0, ch=1.0)
    pr2 = make_problem("lq_linear_cost", b1=0.0, s1=0.0, c1=0.0, ch=3.0)
    uh = ControlPath.constant(0.5, grid)
    alpha = frac_kernel.alpha
    e1 = assemble_first_adjoint(pr1, uh, None, frac_kernel, ens)
    e2 = assemble_first_adjoint(pr2, uh, None, frac_kernel, ens)
    tg = e1.tgrid
    wts = (grid.T - grid.t) ** alpha * grid.dt
    en1 = float(np.sum(wts * hnorm1(e1.first.P0, tg, 1 + alpha) ** 2))
    en2 = float(np.sum(wts * hnorm1(e2.first.P0, tg, 1 + alpha) ** 2))
    assert en2 == pytest.approx(9.0 * en1, rel=1e-12)
    assert np.isfinite(en1)


def test_s_norm_distance_zero_fields(grid, frac_kernel):
    tg = theta_of(frac_kernel)
    z = np.zeros((grid.n_steps + 1, tg.size, 1))
    assert s_norm_distance(grid, tg, 0.3, z, order=1) == 0.0
