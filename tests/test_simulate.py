import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma as gamma_fn

import rng_oracles
import simulate_oracles
from volterra_smp import coefficients
from volterra_smp.coefficients import (CoefficientSet, ControlDomain, ControlPath,
                                      StructuralTags, _scalar_problem, make_problem, readers)
from volterra_smp.grids import TimeGrid
from volterra_smp.kernels import (AnalyticKernel, DiscreteLaplaceKernel, build_fractional_lift,
                                  constant_kernel)
from volterra_smp.rng import normal_matrix
from volterra_smp.simulate import (LiftStep, block_steps, cnorm, run_lift, sample_brownian,
                                   simulate_lift, simulate_sve, xi_table)
from volterra_smp.variation import SpikeSpec, _spike_cosimulation


def autonomous(b, s, bx=None, sx=None, name="tmp"):
    zero = lambda *a: 0.0
    return _scalar_problem(name, b, s, zero, lambda x: 0.0 * x,
                           bx or zero, sx or zero, zero, lambda x: 0.0,
                           zero, zero, zero, lambda x: 0.0,
                           (0.0,), StructuralTags(), 1.0)


def test_brownian_scaling_and_determinism(grid):
    e1 = sample_brownian(grid, 2000, 7)
    e2 = sample_brownian(grid, 2000, 7)
    assert np.array_equal(e1.dW, e2.dW)
    var = np.var(e1.W[:, -1])
    assert abs(var - grid.T) < 5 * grid.T / np.sqrt(e1.n_paths)


def test_brownian_paths_uncorrelated(grid):
    e = sample_brownian(grid, 4, 99)
    for i in range(3):
        c = np.corrcoef(e.dW[i], e.dW[i + 1])[0, 1]
        assert abs(c) < 5.0 / np.sqrt(grid.n_steps)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n_paths=st.integers(1, 300),
       n_steps=st.integers(2, 64))
def test_normal_matrix_matches_jumped_streams(seed, n_paths, n_steps):
    out = normal_matrix(seed, n_paths, n_steps)
    ref = rng_oracles.normal_matrix(seed, n_paths, n_steps)
    assert out.tobytes() == ref.tobytes()


def test_first_paths_is_a_fresh_smaller_sample(grid):
    big = sample_brownian(grid, 100, 17)
    head = big.first_paths(64)
    assert head.n_paths == 64 and np.shares_memory(head.dW, big.dW)
    assert head.dW.tobytes() == sample_brownian(grid, 64, 17).dW.tobytes()
    with pytest.raises(ValueError):
        big.first_paths(101)


def test_brownian_paths_built_once_read_only_and_prefix_exact(grid, monkeypatch):
    e = sample_brownian(grid, 203, 11)
    calls = []
    real = np.cumsum

    def counting(a, *args, **kw):
        if np.shares_memory(a, e.dW):
            calls.append(1)
        return real(a, *args, **kw)

    monkeypatch.setattr(np, "cumsum", counting)
    W = e.W
    assert e.W is W and e.W is W
    assert len(calls) == 1
    monkeypatch.undo()
    fresh = np.zeros((203, grid.n_steps + 1))
    fresh[:, 1:] = np.cumsum(e.dW, axis=1)
    assert W.tobytes() == fresh.tobytes()
    with pytest.raises(ValueError):
        W[0, 1] = 1.0
    for n in (1, 7, 64, 131, 203):
        head = e.first_paths(n)
        assert head.W is not W and head.W.tobytes() == W[:n].tobytes()


def test_time_grid_nodes_built_once_and_read_only():
    g = TimeGrid(2.0, 8)
    assert g.t is g.t
    assert g.t.tobytes() == np.linspace(0.0, 2.0, 9).tobytes()
    with pytest.raises(ValueError):
        g.t[0] = 1.0


def test_convolve_constant_kernel_recovers_time(grid, ens):
    g = np.ones((4, grid.n_steps + 1, 1))
    out = simulate_oracles.volterra_convolve(constant_kernel(), "b", g, "lebesgue", ens)
    assert np.allclose(out[:, :, 0], grid.t[None, :], atol=1e-14)


def test_convolve_zero_integrand(grid):
    e = sample_brownian(grid, 2, 4)
    g = np.zeros((2, grid.n_steps + 1, 1))
    out = simulate_oracles.volterra_convolve(constant_kernel(), "sigma", g, "ito", e)
    assert np.all(out == 0)


def test_convolve_fractional_converges():
    # analytic integral of (t-s)^{beta-1}/Gamma(beta) ds = t^beta / Gamma(beta+1)
    ana = AnalyticKernel("fractional", beta=0.5)
    target = 1.0 / gamma_fn(1.5)
    errs = []
    for n in (128, 512):
        grid = TimeGrid(1.0, n)
        e = sample_brownian(grid, 1, 3)
        g = np.ones((1, n + 1, 1))
        out = simulate_oracles.volterra_convolve(ana, "b", g, "lebesgue", e)
        errs.append(abs(out[0, -1, 0] - target))
    assert errs[1] < errs[0]
    assert errs[1] < 0.05


def test_convolve_ito_requires_ensemble(grid):
    g = np.ones((1, grid.n_steps + 1, 1))
    with pytest.raises(ValueError):
        simulate_oracles.volterra_convolve(constant_kernel(), "sigma", g, "ito", None, grid=grid)


def test_sve_zero_coefficients_returns_forcing(grid, ens, frac_kernel):
    pr = autonomous(lambda t, u, x: 0.0 * x, lambda t, u, x: 0.0 * x)
    X = simulate_sve(pr, ControlPath.constant(0.0, grid), frac_kernel, 0.7,
                     sample_brownian(grid, 8, 1))
    assert np.allclose(X, 0.7, atol=0)


def test_sve_ode_oracle_exponential():
    pr = autonomous(lambda t, u, x: x, lambda t, u, x: 0.0 * x, bx=lambda *a: 1.0)
    errs = []
    for n in (512, 2048):
        grid = TimeGrid(1.0, n)
        e = sample_brownian(grid, 1, 1)
        X = simulate_sve(pr, ControlPath.constant(0.0, grid), constant_kernel(), 1.0, e)
        errs.append(abs(X[0, -1, 0] - np.e))
    assert errs[1] < errs[0]
    assert errs[1] < 5e-3


def test_sve_fractional_drift_oracle():
    # X(t) -> t^beta / Gamma(1+beta) for unit drift and fractional kernel
    pr = autonomous(lambda t, u, x: 1.0 + 0.0 * x, lambda t, u, x: 0.0 * x)
    k = build_fractional_lift(0.6, 0.9, None, 1e-3, 1e6, 60, alpha=0.45)
    errs = []
    for n in (512, 2048):
        grid = TimeGrid(1.0, n)
        e = sample_brownian(grid, 1, 1)
        X = simulate_sve(pr, ControlPath.constant(0.0, grid), k, 0.0, e)
        errs.append(abs(X[0, -1, 0] - 1.0 / gamma_fn(1.6)))
    assert errs[1] < errs[0]


def test_lift_direct_identity(grid, bilinear, frac_kernel):
    e = sample_brownian(grid, 64, 42)
    u = ControlPath.constant(0.1, grid)
    Xl = simulate_sve(bilinear, u, frac_kernel, 0.5, e, mode="lift")
    Xd = simulate_sve(bilinear, u, frac_kernel, 0.5, e, mode="direct")
    assert np.max(np.abs(Xl - Xd)) <= 1e-10


def test_single_zero_atom_matches_euler_maruyama(grid, bilinear, delta_kernel):
    e = sample_brownian(grid, 64, 42)
    u = ControlPath.constant(0.1, grid)
    Xk = simulate_sve(bilinear, u, delta_kernel, 0.5, e, mode="lift")
    Xe = simulate_oracles.euler_maruyama(bilinear, u, 0.5, e)
    assert np.max(np.abs(Xk - Xe)) <= 1e-12


def test_lift_fields_zero_for_zero_coefficients(grid, delta_kernel):
    pr = autonomous(lambda t, u, x: 0.0 * x, lambda t, u, x: 0.0 * x)
    e = sample_brownian(grid, 4, 9)
    Y, X = simulate_lift(pr, ControlPath.constant(0.0, grid), delta_kernel, 0.3, e)
    assert np.all(Y == 0)
    assert np.allclose(X, 0.3)


def test_cnorm_constants_and_zero(ens):
    X = np.zeros((ens.n_paths, 5, 1))
    assert cnorm(X, 2) == 0.0
    X[:] = -1.7
    assert cnorm(X, 4) == pytest.approx(1.7, rel=1e-14)
    with pytest.raises(ValueError):
        cnorm(np.zeros((0, 5, 1)), 2)
    with pytest.raises(ValueError):
        cnorm(X, 1.5)


def test_cnorm_brownian_scale():
    pr = autonomous(lambda t, u, x: 0.0 * x, lambda t, u, x: 1.0 + 0.0 * x)
    grid = TimeGrid(1.0, 256)
    e = sample_brownian(grid, 4000, 11)
    X = simulate_sve(pr, ControlPath.constant(0.0, grid), constant_kernel(), 0.0, e)
    se = 3.0 / np.sqrt(e.n_paths)
    assert abs(cnorm(X, 2) - 1.0) < 3 * se


def test_moment_stability_across_refinement(bilinear, frac_kernel):
    vals = []
    for n in (64, 128, 256):
        grid = TimeGrid(1.0, n)
        e = sample_brownian(grid, 500, 13)
        X = simulate_sve(bilinear, ControlPath.constant(0.1, grid), frac_kernel, 0.3, e)
        vals.append(cnorm(X, 2))
    assert max(vals) < 5.0 * (0.3 + 1.0)  # no blow-up across step refinement
    assert max(vals) / min(vals) < 1.5


def _state_coeffs(n: int) -> CoefficientSet:
    """A nonlinear n-dimensional state equation with a mixing drift."""
    A = np.array([[-0.5, 0.3], [0.2, -0.8]])[:n, :n]
    none = lambda *a: None
    return CoefficientSet(
        dim=n, du=1,
        b=lambda t, u, x: x @ A.T + 0.2 * np.sin(x) + u,
        sigma=lambda t, u, x: 0.3 + 0.1 * np.cos(x[:, ::-1]),
        f=none, h=none, b_x=none, sigma_x=none, f_x=none, h_x=none,
        b_xx=none, sigma_xx=none, f_xx=none, h_xx=none,
        control_domain=ControlDomain(np.zeros((1, 1))))


def test_untagged_and_per_path_forcings_never_reach_the_tables(grid, monkeypatch):
    # _state_coeffs keeps the default tags, which fix f's degree alone, and its
    # f is None: its b and sigma are untagged names, and at n = 2 the vector
    # state keeps the tagged f on its evaluator too, as does a per-path control
    rng = np.random.default_rng(6)
    e = sample_brownian(grid, 8, 8)
    u = ControlPath.constant(0.1, grid)
    lq = make_problem("lq_linear_cost")
    tabulated = simulate_sve(lq, u, constant_kernel(), 0.3, e)

    def refuse(*args):
        raise AssertionError("a reader built coefficient tables")
    monkeypatch.setattr(coefficients, "coeff_tables", refuse)
    for n in (1, 2):
        kern = DiscreteLaplaceKernel(nodes=[0.0, 0.5, 4.0], weights=[0.2, 0.3, 0.5],
                                     mb=rng.normal(size=(3, n, n)),
                                     msigma=rng.normal(size=(3, n, n)))
        coeffs, xi = _state_coeffs(n), np.linspace(0.4, -0.2, n)
        names = ("b", "sigma") if n == 1 else ("b", "sigma", "f")
        assert all(rd.taylor is None for rd in readers(coeffs, u, grid, names))
        Xl = simulate_sve(coeffs, u, kern, xi, e, mode="lift", self_test=False)
        Xd = simulate_sve(coeffs, u, kern, xi, e, mode="direct", self_test=False)
        assert np.max(np.abs(Xl - Xd)) <= 1e-10
        assert np.array_equal(simulate_lift(coeffs, u, kern, xi, e, self_test=False)[1], Xl)
    per_path = ControlPath(np.full((8, grid.n_steps + 1, 1), 0.1), deterministic=False)
    assert all(rd.taylor is None for rd in readers(lq, per_path, grid, ("b", "sigma", "f")))
    assert simulate_sve(lq, per_path, constant_kernel(), 0.3, e).tobytes() == tabulated.tobytes()


@pytest.mark.parametrize("name", ["lq_linear_cost", "state_free_quadratic", "bilinear_lq"])
def test_tabulated_forcing_matches_the_evaluators(name):
    # simulate_sve reads b and sigma from their Taylor tables; one evaluator
    # call per step gives the same bytes where the formulas read a * x + c,
    # and agrees at roundoff on bilinear_lq
    grid = TimeGrid(1.0, 64)
    kern = build_fractional_lift(0.8, 0.9, None, 1e-3, 1e5, 8)
    coeffs = make_problem(name)
    u = ControlPath(np.random.default_rng(5).uniform(-1.0, 1.0, grid.n_steps + 1))
    e = sample_brownian(grid, 203, 5)

    def evaluators(m, x):
        return coeffs.b(m * grid.dt, u.at(m), x), coeffs.sigma(m * grid.dt, u.at(m), x)
    assert all(rd.taylor is not None for rd in readers(coeffs, u, grid, ("b", "sigma")))
    X = simulate_sve(coeffs, u, kern, 0.3, e)
    ref, _ = run_lift(kern, grid, e.dW, evaluators, xi_table(0.3, grid, 1))
    if name == "bilinear_lq":
        assert np.max(np.abs(X - ref)) <= 1e-13 * np.max(np.abs(ref))
    else:
        assert X.tobytes() == ref.tobytes()


def test_vector_lift_matches_direct(grid):
    # n = 2 atoms with non-diagonal factors: the aggregated lift equals the
    # direct recursion for every state component
    rng = np.random.default_rng(3)
    kern = DiscreteLaplaceKernel(nodes=[0.0, 0.5, 4.0, 30.0], weights=[0.2, 0.3, 0.5, 0.4],
                                 mb=rng.normal(size=(4, 2, 2)),
                                 msigma=rng.normal(size=(4, 2, 2)))
    coeffs = _state_coeffs(2)
    e = sample_brownian(grid, 32, 8)
    u = ControlPath.constant(0.1, grid)
    xi = np.array([0.4, -0.2])
    Xl = simulate_sve(coeffs, u, kern, xi, e, mode="lift", self_test=False)
    Xd = simulate_sve(coeffs, u, kern, xi, e, mode="direct", self_test=False)
    assert Xl.shape == (32, grid.n_steps + 1, 2)
    assert np.max(np.abs(Xl - Xd)) <= 1e-10
    Y, X = simulate_lift(coeffs, u, kern, xi, e, self_test=False)
    assert np.array_equal(X, Xl)
    assert np.allclose(np.einsum("k,pmki->pmi", kern.weights, Y) + xi, Xl, rtol=0, atol=1e-14)


@st.composite
def atom_kernels(draw, dims=(1, 2)):
    """Random valid atom kernels: K in [1, 8], optional zero node, weights in
    [0.1, 1], factors in [-1, 1]."""
    n_nodes, n = draw(st.integers(1, 8)), draw(st.sampled_from(dims))
    decades = draw(st.lists(st.integers(-20, 40), min_size=n_nodes, max_size=n_nodes,
                            unique=True))
    nodes = 10.0 ** (np.sort(decades) / 10.0)
    if draw(st.booleans()):
        nodes[0] = 0.0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return DiscreteLaplaceKernel(nodes=nodes, weights=rng.uniform(0.1, 1.0, n_nodes),
                                 mb=rng.uniform(-1, 1, (n_nodes, n, n)),
                                 msigma=rng.uniform(-1, 1, (n_nodes, n, n)))


@settings(max_examples=60, deadline=None)
@given(kern=atom_kernels(), n_steps=st.integers(4, 32), seed=st.integers(0, 2 ** 31))
def test_lift_equals_direct_on_random_atom_kernels(kern, n_steps, seed):
    grid = TimeGrid(1.0, n_steps)
    coeffs = _state_coeffs(kern.dim)
    e = sample_brownian(grid, 8, seed)
    u = ControlPath.constant(0.1, grid)
    xi = np.linspace(0.4, -0.2, kern.dim)
    Xl = simulate_sve(coeffs, u, kern, xi, e, mode="lift", self_test=False)
    Xd = simulate_sve(coeffs, u, kern, xi, e, mode="direct", self_test=False)
    assert np.max(np.abs(Xl - Xd)) <= 1e-10


def _stack_forcing(X):
    """A nonlinear forcing of a (G, n, P) state stack that mixes coordinates."""
    return 0.3 - 0.5 * X + 0.2 * np.sin(X[:, ::-1]), 0.2 + 0.1 * np.cos(X)


@settings(max_examples=60, deadline=None)
@given(kern=atom_kernels(), blocks=st.integers(1, 4), rest=st.integers(1, 3),
       seed=st.integers(0, 2 ** 31))
def test_blocked_lift_equals_per_step_oracle(kern, blocks, rest, seed):
    # N is not a multiple of L, and the fork (slabs 1-2 copy slab 0, slab 3
    # starts from zero, as X^eps and X1 do) comes at every block phase; X and
    # the lift state read mid-block agree with the per-step lift, and a
    # one-node lift (L = 1) is the per-step lift bit for bit
    L = block_steps(kern.n_nodes)
    N = blocks * L + 1 + rest % max(L - 1, 1)
    grid = TimeGrid(1.0, N)
    e = sample_brownian(grid, 9, seed)
    G, Kn, n = 4, kern.n_nodes * kern.dim, kern.dim
    step = simulate_oracles.PerStepLift.of(kern, grid.dt)
    for j_start in range((blocks - 1) * L, blocks * L):
        lift, Y, X = LiftStep(kern, grid.dt, e.dW, G), np.zeros((G, Kn, 9)), np.zeros((G, n, 9))
        xs, ys = [], []
        for m in range(N):
            if m == j_start:
                lift.fork(0, slice(1, 3))
                Y[1:3], X[1:3] = Y[0], X[0]
            act = 1 if m < j_start else G
            for g in range(act):
                Yg = lift.state(g)
                assert Yg.shape == (Kn, 16) and not Yg[:, 9:].any()   # zero padding
                ys.append((Yg[:, :9], Y[g].copy()))
            Fb, Fs = _stack_forcing(X[:act])
            slot_b, slot_s = lift.drives()
            slot_b[:act], slot_s[:act] = _stack_forcing(lift.x[:act])
            xs.append((lift.advance(act).copy(), step(Y[:act], Fb, Fs, e.dW[:, m])))
            X[:act] = xs[-1][1]
        for got, want in (zip(*xs), zip(*ys)):
            got, want = np.concatenate(got, None), np.concatenate(want, None)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert L > 1 or got.tobytes() == want.tobytes()


def test_lift_and_cosimulation_are_prefix_exact():
    # rows :n of a run equal the run on its first n paths, bit for bit: a
    # path's bits do not depend on how many paths run with it
    grid = TimeGrid(1.0, 64)
    kern = build_fractional_lift(0.8, 0.9, None, 1e-3, 1e5, 32)
    coeffs, u = make_problem("bilinear_lq"), ControlPath.constant(0.1, grid)
    spikes = [SpikeSpec(tau=0.25, eps=0.125, v=ControlPath.constant(1.0, grid))]
    full = sample_brownian(grid, 5003, 11)
    X = simulate_sve(coeffs, u, kern, 0.3, full)
    B = _spike_cosimulation(coeffs, kern, u, spikes, 0.3, full, store=True)[0]
    for n in (1, 7, 37, 1000, 2000, 4000):
        e = full.first_paths(n)
        assert simulate_sve(coeffs, u, kern, 0.3, e).tobytes() == X[:n].tobytes(), n
        b = _spike_cosimulation(coeffs, kern, u, spikes, 0.3, e, store=True)[0]
        for key, table in (*b.tables.items(), *b.terminal.items()):
            full_table = B.tables[key] if key in B.tables else B.terminal[key]
            assert table.tobytes() == full_table[:n].tobytes(), (n, key)
        assert b.j12_terms.tobytes() == B.j12_terms[:n].tobytes(), n


@settings(max_examples=40, deadline=None)
@given(kern=atom_kernels(dims=(1,)), n_steps=st.integers(4, 32), seed=st.integers(0, 2 ** 31),
       problem=st.sampled_from(["lq_linear_cost", "bilinear_lq", "state_free_quadratic"]),
       data=st.data())
def test_cosimulated_reference_is_the_lift_state_bit_for_bit(kern, n_steps, seed, problem,
                                                             data):
    # X_hat advances alone before the first spike and as slab 0 of 1 + 3S
    # slabs after it; either way its bits are those of simulate_sve
    grid = TimeGrid(1.0, n_steps)
    v = ControlPath.constant(1.0, grid)
    spikes = []
    for _ in range(data.draw(st.integers(1, 4), label="spikes")):
        j0 = data.draw(st.integers(0, n_steps - 1), label="j0")
        width = data.draw(st.integers(1, n_steps - j0), label="width")
        spikes.append(SpikeSpec(tau=j0 * grid.dt, eps=width * grid.dt, v=v))
    coeffs = make_problem(problem)
    u_hat = ControlPath.constant(0.1, grid)
    e = sample_brownian(grid, 16, seed)
    X = simulate_sve(coeffs, u_hat, kern, 0.3, e, mode="lift")
    bundles = _spike_cosimulation(coeffs, kern, u_hat, spikes, 0.3, e)
    assert len(bundles) == len(spikes)
    for b in bundles:
        assert b.terminal["Xhat_T"].tobytes() == X[:, -1, 0].tobytes()


def test_lift_guard_names_step_and_paths(grid, delta_kernel):
    pr = autonomous(lambda t, u, x: 1e3 * x * x, lambda t, u, x: 0.0 * x,
                    bx=lambda t, u, x: 2e3 * x)
    e = sample_brownian(grid, 4, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError,
                           match=r"non-finite state at step \d+; first bad paths \[0, 1, 2, 3\]"):
            simulate_sve(pr, ControlPath.constant(0.0, grid), delta_kernel, 1.0, e, mode="lift")
