import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import variation_oracles
import volterra_smp
from simulate_oracles import volterra_convolve
from volterra_smp.coefficients import (PROBLEMS, ControlPath, StructuralTags, _scalar_problem,
                                      make_problem, polynomial_problem)
from volterra_smp.grids import TimeGrid
from volterra_smp.kernels import DiscreteLaplaceKernel, build_fractional_lift
from volterra_smp.simulate import sample_brownian, simulate_sve
from volterra_smp.variation import NORM_KEYS, SpikeSpec, _spike_cosimulation, remainder_rates


def test_spike_window_must_fit(grid):
    v = ControlPath.constant(1.0, grid)
    with pytest.raises(ValueError):
        SpikeSpec(tau=0.9, eps=0.2, v=v).window(grid)


def test_expansion_vanishes_without_control_change(grid, bilinear, frac_kernel, ens):
    u = ControlPath.constant(0.1, grid)
    spike = SpikeSpec(tau=0.25, eps=0.125, v=u)
    b = _spike_cosimulation(bilinear, frac_kernel, u, [spike], 0.3, ens)[0]
    assert all(v == 0.0 for v in b.norms.values())
    assert np.all(b.j12_terms == 0.0)
    assert np.all(b.cost_increment == 0.0)


def test_second_order_vanishes_for_control_affine(grid, lq, frac_kernel, ens):
    # linear dynamics whose x-derivatives do not depend on the control
    u = ControlPath.constant(0.1, grid)
    spike = SpikeSpec(tau=0.25, eps=0.125, v=ControlPath.constant(1.0, grid))
    b = _spike_cosimulation(lq, frac_kernel, u, [spike], 0.3, ens)[0]
    assert b.norms["X2"] == 0.0
    # and the first-order process tracks the full deviation exactly
    assert b.norms["dX1"] <= 1e-12


def test_state_free_first_order_is_direct_convolution(grid, state_free, frac_kernel):
    e = sample_brownian(grid, 32, 77)
    u = ControlPath.constant(0.2, grid)
    v = ControlPath.constant(0.9, grid)
    spike = SpikeSpec(tau=0.25, eps=0.25, v=v)
    X1 = _spike_cosimulation(state_free, frac_kernel, u, [spike], 0.2, e,
                             store=True)[0].tables["X1"][:, :, None]

    j0, j1 = spike.window(grid)
    ind = np.zeros(grid.n_steps + 1)
    ind[j0:j1] = 1.0
    x0 = np.zeros((1, 1))
    db = np.array([(state_free.b(m * grid.dt, v.at(m), x0)
                    - state_free.b(m * grid.dt, u.at(m), x0))[0, 0] * ind[m]
                   for m in range(grid.n_steps + 1)])
    ds = np.array([(state_free.sigma(m * grid.dt, v.at(m), x0)
                    - state_free.sigma(m * grid.dt, u.at(m), x0))[0, 0] * ind[m]
                   for m in range(grid.n_steps + 1)])
    oracle = (volterra_convolve(frac_kernel, "b", np.tile(db, (32, 1)), "lebesgue", e)
              + volterra_convolve(frac_kernel, "sigma", np.tile(ds, (32, 1)), "ito", e))
    assert np.max(np.abs(X1 - oracle)) <= 1e-10


def test_exact_decomposition_identities(grid, bilinear, frac_kernel):
    e = sample_brownian(grid, 16, 5)
    u = ControlPath.constant(0.1, grid)
    spike = SpikeSpec(tau=0.25, eps=0.125, v=ControlPath.constant(1.0, grid))
    b = _spike_cosimulation(bilinear, frac_kernel, u, [spike], 0.3, e, store=True)[0]
    dX = b.tables["dX"]
    X1 = b.tables["X1"]
    X2 = b.tables["X2"]
    assert np.max(np.abs(b.tables["dX1"] - (dX - X1))) == 0.0
    assert np.max(np.abs(b.tables["dX12"] - (dX - X1 - X2))) == 0.0


def test_j12_zero_for_zero_costs(grid, frac_kernel, ens):
    pr = make_problem("bilinear_lq", qx=0.0, r=0.0, h2=0.0, h1=0.0)
    u = ControlPath.constant(0.1, grid)
    spike = SpikeSpec(tau=0.25, eps=0.125, v=ControlPath.constant(1.0, grid))
    b = _spike_cosimulation(pr, frac_kernel, u, [spike], 0.3, ens)[0]
    j12, _ = b.j12()
    assert j12 == 0.0


def test_constant_terminal_cost_runs_the_cosimulation(grid, frac_kernel, ens):
    # h = 0.5 reads one value per path, so the cost increments and J12 terms
    # are those of h = 0 bit for bit
    arrays = dict(b=[[0.0, 0.3], [0.3, 0.1]], sigma=[[0.0, 0.9], [0.2, 0.7]],
                  f=[[0.0, 0.0, 0.15], [], [0.3]], u_grid=(-1.0, 1.0))
    u = ControlPath.constant(0.1, grid)
    spike = SpikeSpec(tau=0.25, eps=0.125, v=ControlPath.constant(1.0, grid))
    got, want = (_spike_cosimulation(polynomial_problem(name, h=h, **arrays), frac_kernel, u,
                                     [spike], 0.3, ens)[0]
                 for name, h in (("h_half", [0.5]), ("h_zero", [])))
    assert got.cost_increment.tobytes() == want.cost_increment.tobytes()
    assert got.j12_terms.tobytes() == want.j12_terms.tobytes()
    assert np.any(got.cost_increment != 0.0)


def test_monotone_norm_ordering_small_eps(grid, bilinear, frac_kernel):
    e = sample_brownian(grid, 2000, 12)
    u = ControlPath.constant(0.1, grid)
    v = ControlPath.constant(1.0, grid)
    res = remainder_rates(bilinear, frac_kernel, u, v, 0.25,
                          [2 ** -2, 2 ** -3, 2 ** -4, 2 ** -5], 0.3, e)
    by_eps = {}
    for row in res["rows"]:
        by_eps.setdefault(row["eps"], {})[row["quantity"]] = row["norm"]
    for eps in sorted(by_eps)[:2]:
        r = by_eps[eps]
        assert r["dX12"] <= 1.1 * r["dX1"] <= 1.1 * 1.1 * r["dX"]


def test_rates_need_enough_eps_points(grid, bilinear, frac_kernel, ens):
    u = ControlPath.constant(0.1, grid)
    v = ControlPath.constant(1.0, grid)
    with pytest.raises(ValueError, match="4 eps"):
        remainder_rates(bilinear, frac_kernel, u, v, 0.25, [0.1, 0.05, 0.025], 0.3, ens)


def test_rates_zero_case_reported(grid, bilinear, frac_kernel):
    e = sample_brownian(grid, 64, 3)
    u = ControlPath.constant(0.1, grid)
    res = remainder_rates(bilinear, frac_kernel, u, u, 0.25,
                          [2 ** -2, 2 ** -3, 2 ** -4, 2 ** -5], 0.3, e)
    assert all(res["fits"][q]["exact_zero"] for q in res["fits"])


def _kernel(name, delta_kernel):
    if name == "K1":
        return delta_kernel
    return build_fractional_lift(0.8, 0.9, None, 1e-3, 1e5, 32, alpha=1 / 3)


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


@pytest.mark.parametrize("nodes", ["K1", "K32"])
def test_sweep_matches_per_eps_bundles(grid, bilinear, delta_kernel, nodes):
    kern = _kernel(nodes, delta_kernel)
    e = sample_brownian(grid, 200, 21)
    u = ControlPath.constant(0.1, grid)
    v = ControlPath.constant(1.0, grid)
    res = remainder_rates(bilinear, kern, u, v, 0.25, [2 ** -2, 2 ** -3, 2 ** -4, 2 ** -5],
                          0.3, e)
    assert len(res["bundles"]) == 4
    for b in res["bundles"]:
        one = _spike_cosimulation(bilinear, kern, u, [b.spike], 0.3, e)[0]
        assert b.eps_snapped == one.eps_snapped
        for k in NORM_KEYS:
            assert _rel(b.norms[k], one.norms[k]) <= 1e-13
        assert _rel(b.j12_terms, one.j12_terms) <= 1e-13
        assert _rel(b.cost_increment, one.cost_increment) <= 1e-13
        assert b.terminal.keys() == one.terminal.keys()
        for k in b.terminal:
            assert _rel(b.terminal[k], one.terminal[k]) <= 1e-13


@pytest.mark.parametrize("nodes", ["K1", "K32"])
def test_store_tables_zero_before_spike(grid, bilinear, delta_kernel, nodes):
    kern = _kernel(nodes, delta_kernel)
    e = sample_brownian(grid, 50, 22)
    u = ControlPath.constant(0.1, grid)
    spike = SpikeSpec(tau=0.25, eps=0.125, v=ControlPath.constant(1.0, grid))
    j0, _ = spike.window(grid)
    b = _spike_cosimulation(bilinear, kern, u, [spike], 0.3, e, store=True)[0]
    for k in ("dX", "X1", "X2"):
        assert np.all(b.tables[k][:, :j0 + 1] == 0.0)
        assert np.any(b.tables[k][:, j0 + 1:] != 0.0)
    x_hat = simulate_sve(bilinear, u, kern, 0.3, e, mode="lift")
    assert np.array_equal(b.terminal["Xhat_T"], x_hat[:, -1, 0])


def test_spike_cosimulation_guard_names_step(grid, delta_kernel):
    # b = u x^2: the reference (u = 0) stays put, the spiked state blows up
    zero = lambda *a: 0.0
    pr = _scalar_problem("explode", lambda t, u, x: 1e3 * u * x * x, zero, zero,
                         lambda x: 0.0 * x, lambda t, u, x: 2e3 * u * x, zero, zero,
                         lambda x: 0.0, lambda t, u, x: 2e3 * u, zero, zero,
                         lambda x: 0.0, (0.0, 1.0), StructuralTags(), 1.0)
    e = sample_brownian(grid, 8, 24)
    spike = SpikeSpec(tau=0.25, eps=0.125, v=ControlPath.constant(1.0, grid))
    j0, j1 = spike.window(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite state at step") as err:
            _spike_cosimulation(pr, delta_kernel, ControlPath.constant(0.0, grid), [spike],
                                1.0, e)
    step = int(str(err.value).split("step ")[1].split(";")[0])
    assert j0 < step <= j1
    assert "first bad paths [0, 1, 2, 3, 4]" in str(err.value)


_COSIM_DIGEST = """
import hashlib
from volterra_smp.coefficients import ControlPath, make_problem
from volterra_smp.grids import TimeGrid
from volterra_smp.kernels import build_fractional_lift
from volterra_smp.simulate import sample_brownian
from volterra_smp.variation import SpikeSpec, _spike_cosimulation
grid = TimeGrid(1.0, 32)
v = ControlPath.constant(1.0, grid)
spikes = [SpikeSpec(tau=0.25, eps=eps, v=v) for eps in (0.5, 0.25)]
bundles = _spike_cosimulation(make_problem("bilinear_lq"),
                              build_fractional_lift(0.8, 0.9, None, 1e-3, 1e5, 32),
                              ControlPath.constant(0.1, grid), spikes, 0.3,
                              sample_brownian(grid, 5000, 7), store=True)
h = hashlib.sha256()
for b in bundles:
    for table in (*b.tables.values(), *b.terminal.values(), b.j12_terms, b.cost_increment):
        h.update(table.tobytes())
    h.update(repr(sorted(b.norms.items())).encode())
print(h.hexdigest())
"""


def test_cosimulation_bytes_independent_of_blas_threads():
    # 5000 paths x 32 nodes is large enough for OpenBLAS to split the dgemm
    src = str(Path(volterra_smp.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _COSIM_DIGEST], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


def _agrees(new, ref) -> bool:
    """Within 1e-13 of the largest |ref|, and exactly zero wherever ref is."""
    new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
    scale = float(np.max(np.abs(ref), initial=0.0))
    return (new.shape == ref.shape and np.all(new[ref == 0.0] == 0.0)
            and float(np.max(np.abs(new - ref), initial=0.0)) <= 1e-13 * scale)


def _nonlinear():
    """Untagged dynamics with nonzero Hessians, so that no drift or diffusion
    evaluator is tabulated and every Hessian term runs."""
    return _scalar_problem(
        "nonlinear", lambda t, u, x: 0.3 * np.sin(x) + u,
        lambda t, u, x: 0.2 + 0.1 * np.cos(x) * u,
        lambda t, u, x: 0.5 * x * x + u * u, lambda x: 0.5 * x * x,
        lambda t, u, x: 0.3 * np.cos(x), lambda t, u, x: -0.1 * np.sin(x) * u,
        lambda t, u, x: x, lambda x: x, lambda t, u, x: -0.3 * np.sin(x),
        lambda t, u, x: -0.1 * np.cos(x) * u, lambda t, u, x: 1.0, lambda x: 1.0,
        (-1.0, 1.0), StructuralTags(), 1.0)


@settings(max_examples=80, deadline=None)
@given(n_nodes=st.integers(1, 6), zero_node=st.booleans(),
       name=st.sampled_from(sorted(PROBLEMS) + ["nonlinear"]),
       n_steps=st.integers(8, 40), n_spikes=st.integers(1, 4), store=st.booleans(),
       seed=st.integers(0, 10 ** 6))
def test_cosimulation_matches_loop_oracle(n_nodes, zero_node, name, n_steps, n_spikes, store,
                                          seed):
    # random atom kernels and spikes; the controls step between a few values,
    # so each spike's Taylor coefficients switch between u_hat's and v's
    rng = np.random.default_rng(seed)
    nodes = np.cumsum(rng.uniform(0.2, 8.0, n_nodes))
    if zero_node:
        nodes -= nodes[0]
    kern = DiscreteLaplaceKernel(nodes=nodes, weights=rng.uniform(0.1, 1.0, n_nodes),
                                 mb=rng.uniform(0.1, 1.0, n_nodes),
                                 msigma=rng.uniform(0.1, 1.0, n_nodes))
    grid = TimeGrid(1.0, n_steps)
    e = sample_brownian(grid, int(rng.integers(1, 40)), seed)
    coeffs = _nonlinear() if name == "nonlinear" else make_problem(name)
    u = ControlPath(rng.choice([-0.5, 0.1, 0.1, 0.1], n_steps + 1))
    v = ControlPath(rng.choice([1.0, 1.0, -1.0], n_steps + 1))
    spikes = []
    for _ in range(n_spikes):
        j0 = int(rng.integers(0, n_steps))
        width = int(rng.integers(1, n_steps - j0 + 1))
        spikes.append(SpikeSpec(tau=(j0 + rng.uniform(-0.4, 0.4) * (j0 > 0)) * grid.dt,
                                eps=(width + rng.uniform(-0.4, 0.4)) * grid.dt, v=v))
    xi = float(rng.uniform(-1.0, 1.0))
    new = _spike_cosimulation(coeffs, kern, u, spikes, xi, e, store=store)
    ref = variation_oracles.spike_cosimulation(coeffs, kern, u, spikes, xi, e, store=store)
    x_hat = simulate_sve(coeffs, u, kern, xi, e, mode="lift")[:, -1, 0]
    for b, o in zip(new, ref, strict=True):
        assert b.eps_snapped == o.eps_snapped
        assert all(_agrees(b.norms[k], o.norms[k]) for k in NORM_KEYS), (b.norms, o.norms)
        assert _agrees(b.j12_terms, o.j12_terms) and _agrees(b.cost_increment, o.cost_increment)
        assert b.terminal.keys() == o.terminal.keys()
        assert all(_agrees(b.terminal[k], o.terminal[k]) for k in b.terminal)
        assert b.tables.keys() == o.tables.keys()
        assert all(_agrees(b.tables[k], o.tables[k]) for k in b.tables)
        assert b.terminal["Xhat_T"].tobytes() == x_hat.tobytes()
        assert b.tabulated == coeffs.tags.state_degrees()
