import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bsee_oracles as oracle
from volterra_smp.bsde import BSDEInstance, solve_bsde_closedform
from volterra_smp.bsee import (AdjointSolution, FirstOrderField, GaussianMartingale,
                               PicardError, _retained_basis, assemble_adjoints,
                               assemble_first_adjoint,
                               assemble_second_adjoint, picard_bsee_solve,
                               trivial_bsee_solve)
from volterra_smp.coefficients import (CoefficientSet, ControlDomain, ControlPath,
                                       StructuralTags, make_problem)
from volterra_smp.grids import TimeGrid
from volterra_smp.kernels import DiscreteLaplaceKernel, build_fractional_lift, step_decay_weight
from volterra_smp.simulate import lift_along, sample_brownian, simulate_lift, simulate_sve


def atoms(nodes, weights):
    """A scalar kernel that is just the decay grid (nodes, weights)."""
    ones = np.ones(len(nodes))
    return DiscreteLaplaceKernel(nodes=nodes, weights=weights, mb=ones, msigma=ones)


def test_hnorm_zero_and_single_node():
    k = atoms(np.array([3.0]), np.array([1.0]))
    psi = np.zeros((1, 1))
    assert oracle.hnorm1(psi, k, 2.0) == 0.0
    psi = np.full((1, 1), 2.0)
    # one-term sum: 2 * sqrt((1 + 3) * r(3)) with r(3) = 3^{-1/2}
    expect = 2.0 * np.sqrt(4.0 * 3.0 ** -0.5)
    assert oracle.hnorm1(psi, k, 1.0) == pytest.approx(expect, rel=1e-14)
    assert oracle.hnorm1(psi, k, 1.0) == pytest.approx(3.0393427426063734, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(beta=st.floats(-1.0, 2.0), drop=st.floats(0.1, 2.0), seed=st.integers(0, 10 ** 6))
def test_hnorm_embedding_monotone(beta, drop, seed):
    rng = np.random.default_rng(seed)
    k = atoms(np.sort(rng.uniform(0.0, 50.0, 6) + np.arange(6)), rng.uniform(0.1, 2.0, 6))
    psi = rng.normal(size=(6, 1))
    assert oracle.hnorm1(psi, k, beta - drop) <= oracle.hnorm1(psi, k, beta) * (1 + 1e-12)


def test_trivial_solve_constant_data_closed_form(grid, frac_kernel):
    K = frac_kernel.n_nodes
    c, g = 2.0, 0.7
    fld = trivial_bsee_solve(frac_kernel, grid, np.full((K, 1), c),
                             np.full((grid.n_steps + 1, K, 1), g))
    th = frac_kernel.nodes
    tt = grid.T - grid.t
    decay = np.exp(-np.outer(tt, th))
    tail = np.where(th[None, :] > 0, (1.0 - decay) / np.where(th[None, :] > 0, th[None, :], 1.0),
                    tt[:, None])
    assert np.max(np.abs(fld.P0[:, :, 0] - (c * decay + g * tail))) <= 1e-12


def test_trivial_solve_zero_node_limit(grid, delta_kernel):
    fld = trivial_bsee_solve(delta_kernel, grid, np.zeros((1, 1)),
                             np.ones((grid.n_steps + 1, 1, 1)))
    # theta = 0 limit of the discounted tail is g * (T - t)
    assert np.max(np.abs(fld.P0[:, 0, 0] - (grid.T - grid.t))) <= 1e-12


def test_trivial_solve_zero_data(grid, frac_kernel):
    K = frac_kernel.n_nodes
    fld = trivial_bsee_solve(frac_kernel, grid, np.zeros((K, 1)),
                             np.zeros((grid.n_steps + 1, K, 1)))
    assert np.max(np.abs(fld.P0)) == 0.0


def test_trivial_solve_brownian_terminal(grid, frac_kernel):
    e = sample_brownian(grid, 200, 15)
    K = frac_kernel.n_nodes
    Z = GaussianMartingale(values=e.W, vol=np.ones(grid.n_steps + 1))
    a = 0.8
    fld = trivial_bsee_solve(frac_kernel, grid, np.zeros((K, 1)),
                             np.zeros((grid.n_steps + 1, K, 1)),
                             phi1=np.full((K, 1), a), Z=Z)
    # node-wise check against the scalar closed form p = a e^{-th (T-t)} W_t
    for i, th in enumerate(frac_kernel.nodes[::5]):
        inst = BSDEInstance(grid, kappa=float(th), terminal_wt=a)
        sol = solve_bsde_closedform(inst)
        idx = 5 * i
        p_field = fld.P0[None, :, idx, 0] + fld.P1[None, :, idx, 0] * Z.values
        assert np.max(np.abs(p_field - sol.p_values(e))) <= 1e-12
        assert np.max(np.abs(fld.Q0[:-1, idx, 0] - sol.q[:-1])) <= 1e-12


def test_picard_constant_generator_one_iteration(grid, frac_kernel):
    phi = np.zeros((frac_kernel.n_nodes, 1))

    def gen_map(P):
        return np.ones_like(P)

    fld = picard_bsee_solve(frac_kernel, grid, phi, gen_map, order=1)
    assert fld.iterations <= 2  # constant map: first correction already exact
    assert fld.distances[-1] < 1e-10


def test_picard_reports_non_contraction(grid, delta_kernel):
    phi = np.ones((1, 1))

    def expanding(P):
        return 10.0 * P + 1.0

    with pytest.raises(PicardError, match="no contraction of the first-order field after"):
        picard_bsee_solve(delta_kernel, grid, phi, expanding, order=1, max_iter=60)


def test_picard_error_names_the_pair_field(grid, delta_kernel):
    # the pair solve fails with its own name, so a solver line tells it from
    # a first-order failure of the same experiment
    phi = np.ones((1, 1, 1, 1))

    def expanding(P):
        return 10.0 * P + 1.0

    with pytest.raises(PicardError, match=r"^no contraction of the pair field after \d+ iter"):
        picard_bsee_solve(delta_kernel, grid, phi, expanding, order=2, max_iter=60)
    with pytest.raises(PicardError, match="^max_iter=2 exceeded on the pair field"):
        picard_bsee_solve(delta_kernel, grid, phi, expanding, order=2, max_iter=2)


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
    th = adj.kernel.nodes
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
    varpi = adj.kernel.pair_rates
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
    wts = (grid.T - grid.t) ** alpha * grid.dt
    en1 = float(np.sum(wts * oracle.hnorm1(e1.first.P0, frac_kernel, 1 + alpha) ** 2))
    en2 = float(np.sum(wts * oracle.hnorm1(e2.first.P0, frac_kernel, 1 + alpha) ** 2))
    assert en2 == pytest.approx(9.0 * en1, rel=1e-12)
    assert np.isfinite(en1)


def test_s_norm_distance_zero_fields(grid, frac_kernel):
    z = np.zeros((grid.n_steps + 1, frac_kernel.n_nodes, 1))
    assert oracle.s_norm_distance(grid, frac_kernel, z, order=1) == 0.0


def _lsmc_against_oracle(problem, uh, xi, kernel, e):
    """The regression solve along simulate_sve's state, against the lstsq
    sweep on the lift of the state simulated from xi."""
    xh = simulate_sve(problem, uh, kernel, xi, e)
    adj = assemble_first_adjoint(problem, uh, xh, kernel, e, lsmc=True)
    ref = oracle.lsmc_first_adjoint(problem, uh, xi, kernel, e)
    for name, new, old in zip(("P0", "Q0", "G0"), (adj.first.P0, adj.first.Q0, adj.first.G0), ref):
        assert np.max(np.abs(new[:, :, 0] - old)) <= 1e-8 * np.max(np.abs(old)), name
    return adj


@settings(max_examples=40, deadline=None)
@given(n_nodes=st.integers(1, 6), n_steps=st.integers(4, 24), n_paths=st.integers(8, 400),
       zero_node=st.booleans(), xi_table=st.booleans(), seed=st.integers(0, 10 ** 6))
def test_lsmc_sweep_matches_lstsq_oracle_on_random_atom_kernels(n_nodes, n_steps, n_paths,
                                                                zero_node, xi_table, seed):
    # atom kernels drawn as in the bridge property test; xi a constant or a table
    rng = np.random.default_rng(seed)
    nodes = np.cumsum(rng.uniform(0.2, 8.0, n_nodes))
    if zero_node:
        nodes -= nodes[0]
    k = DiscreteLaplaceKernel(nodes=nodes, weights=rng.uniform(0.1, 1.0, n_nodes),
                              mb=rng.uniform(0.1, 1.0, n_nodes),
                              msigma=rng.uniform(0.1, 1.0, n_nodes))
    grid = TimeGrid(1.0, n_steps)
    xi = np.linspace(0.4, 1.4, n_steps + 1) if xi_table else 0.4
    adj = _lsmc_against_oracle(make_problem("bilinear_lq"), ControlPath.constant(0.3, grid), xi,
                               k, sample_brownian(grid, n_paths, seed))
    # Y_0 = 0: step 0 regresses on the constant alone
    reg = adj.first.regression
    assert reg["rank_min"] == 1 and reg["rank_max"] <= n_nodes + 1 and reg["cond_max"] < 1e8


def test_lsmc_sweep_matches_lstsq_oracle_on_fractional_lift(bilinear):
    grid = TimeGrid(1.0, 64)
    k = build_fractional_lift(0.8, 0.9, None, 1e-3, 1e5, 32, alpha=1.0 / 3.0)
    adj = _lsmc_against_oracle(bilinear, ControlPath.constant(0.3, grid), 0.4, k,
                               sample_brownian(grid, 1000, 5))
    assert adj.first.regression["rank_min"] == 1
    assert 1 < adj.first.regression["rank_max"] <= 33


def test_lsmc_sweep_matches_lstsq_oracle_on_per_path_control(bilinear):
    # a per-path control has no coefficient tables: every evaluator is stacked
    grid = TimeGrid(1.0, 16)
    k = build_fractional_lift(0.8, 0.9, None, 1e-2, 1e4, 6, alpha=1.0 / 3.0)
    u = np.where(np.arange(200) % 2, 0.3, -0.5)[:, None, None] + np.zeros((1, 17, 1))
    _lsmc_against_oracle(bilinear, ControlPath(u, deterministic=False), 0.4, k,
                         sample_brownian(grid, 200, 3))


@pytest.mark.parametrize("paths, n_nodes", [(50, 4), (8, 12)], ids=["tall", "wide"])
def test_retained_basis_of_zero_lift_projects_on_the_path_mean(paths, n_nodes):
    # the design [1, 0, ..., 0] has rank 1: its projection is the path mean
    rng = np.random.default_rng(paths)
    design = np.zeros((paths, n_nodes + 1), order="F")
    design[:, 0] = 1.0
    Ur, cond = _retained_basis(design)
    assert Ur.shape == (paths, 1) and cond == 1.0
    v = rng.normal(size=(paths, 3))
    np.testing.assert_allclose(Ur @ (Ur.T @ v), np.broadcast_to(v.mean(axis=0), v.shape),
                               rtol=0, atol=1e-14)


def test_lsmc_basis_is_the_lift_of_the_reference_state_table(bilinear):
    # a forcing table: the lift along simulate_sve's state is simulate_lift's, bit for bit
    grid = TimeGrid(1.0, 16)
    k = build_fractional_lift(0.8, 0.9, None, 1e-2, 1e4, 8, alpha=1.0 / 3.0)
    e = sample_brownian(grid, 64, 17)
    uh, xi = ControlPath.constant(0.3, grid), np.linspace(0.4, 1.4, grid.n_steps + 1)
    Y, X = simulate_lift(bilinear, uh, k, xi, e)
    xh = simulate_sve(bilinear, uh, k, xi, e)
    assert xh.tobytes() == X.tobytes()
    along = lift_along(bilinear, uh, k, xh, e)
    assert along.transpose(3, 0, 1, 2).tobytes() == Y.tobytes()
    # the lift of the state started from the mean initial value is another basis
    Y0, _ = simulate_lift(bilinear, uh, k, float(xh[:, 0, 0].mean()), e)
    assert np.max(np.abs(Y0 - Y)) > 0.1 * np.max(np.abs(Y))


def test_lsmc_path_requires_state(grid, bilinear, frac_kernel, ens):
    uh = ControlPath.constant(0.1, grid)
    with pytest.raises(ValueError, match="reference state"):
        assemble_first_adjoint(bilinear, uh, None, frac_kernel, ens, lsmc=True)


@pytest.mark.parametrize("n_steps, paths", [(64, 1000), (16, 64)])
def test_pair_picard_matches_einsum_oracle(bilinear, n_steps, paths):
    # one one-sided contraction for both sides of the pair generator, loop
    # invariants hoisted: the same iterations, distances and field as the
    # three-contraction form
    grid = TimeGrid(1.0, n_steps)
    k = build_fractional_lift(0.8, 0.9, None, 1e-3, 1e5, 32, alpha=1.0 / 3.0)
    e = sample_brownian(grid, paths, 9)
    uh = ControlPath.constant(0.3, grid)
    first = assemble_first_adjoint(bilinear, uh, simulate_sve(bilinear, uh, k, 0.4, e), k, e,
                                   lsmc=True)
    ref = oracle.second_adjoint_einsum(bilinear, first, k, e, tol=1e-13)
    sol = assemble_second_adjoint(bilinear, first, k, e, tol=1e-13).second
    assert sol.iterations == ref["iterations"] > 10
    np.testing.assert_allclose(sol.distances, ref["distances"], rtol=0,
                               atol=1e-12 * ref["distances"][0])
    assert np.max(np.abs(sol.P - ref["P"])) <= 1e-14
    assert sol.asymmetry == 0.0


def test_pair_picard_matches_einsum_oracle_for_vector_state():
    # n = 2 with non-symmetric b_x and sigma_x and non-commuting kernel
    # factors: the one-sided contraction serves the other side only transposed
    rng = np.random.default_rng(4)
    K, n = 3, 2
    k = DiscreteLaplaceKernel(nodes=[0.0, 1.5, 9.0], weights=[0.5, 0.3, 0.4],
                              mb=0.5 * rng.normal(size=(K, n, n)),
                              msigma=0.5 * rng.normal(size=(K, n, n)))
    A, S = np.array([[0.3, -0.4], [0.2, 0.1]]), np.array([[0.2, 0.3], [-0.1, 0.25]])
    F, H = np.array([[0.6, 0.2], [0.2, 0.4]]), np.array([[1.0, -0.3], [-0.3, 0.5]])

    def const(mat):
        return lambda t, u, x: np.broadcast_to(mat, (x.shape[0], n, n))

    none = lambda *a: None
    coeffs = CoefficientSet(
        dim=n, du=1, b=none, sigma=none, f=none, h=none, b_x=const(A), sigma_x=const(S),
        f_x=none, h_x=none, b_xx=none, sigma_xx=none, f_xx=const(F),
        h_xx=lambda x: np.broadcast_to(H, (x.shape[0], n, n)),
        control_domain=ControlDomain(np.zeros((1, 1))),
        tags=StructuralTags(linear_in_state=True, f_state_degree=2, h_degree=2))
    grid = TimeGrid(1.0, 24)
    e = sample_brownian(grid, 8, 3)
    zero = np.zeros((grid.n_steps + 1, K, n))
    first = AdjointSolution(kernel=k, grid=grid,
                            first=FirstOrderField(grid=grid, P0=zero, Q0=zero, G0=zero),
                            u_hat=ControlPath.constant(0.0, grid))
    ref = oracle.second_adjoint_einsum(coeffs, first, k, e, tol=1e-13)
    sol = assemble_second_adjoint(coeffs, first, k, e, tol=1e-13).second
    assert sol.iterations == ref["iterations"] > 3
    np.testing.assert_allclose(sol.distances, ref["distances"], rtol=0,
                               atol=1e-12 * ref["distances"][0])
    assert np.max(np.abs(sol.P - ref["P"])) <= 1e-14 * np.max(np.abs(ref["P"]))
    assert 0.0 < sol.asymmetry <= 1e-12
