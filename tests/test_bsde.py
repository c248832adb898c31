import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bsde_oracles
from volterra_smp.bsde import (BSDEInstance, apriori_ratio, lsmc_relative_error,
                               martingale_check, solve_bsde_closedform, solve_bsde_lsmc)
from volterra_smp.grids import TimeGrid
from volterra_smp.simulate import BrownianEnsemble, sample_brownian


def test_constant_terminal_closed_form(grid):
    inst = BSDEInstance(grid, kappa=2.0, terminal_const=3.0)
    sol = solve_bsde_closedform(inst)
    # p_t = c e^{-kappa (T - t)}, q = 0
    assert np.allclose(sol.det, 3.0 * np.exp(-2.0 * (grid.T - grid.t)), rtol=1e-14)
    assert np.all(sol.q == 0)


def test_brownian_terminal_closed_form(grid, ens):
    inst = BSDEInstance(grid, kappa=2.0, terminal_wt=1.0)
    sol = solve_bsde_closedform(inst)
    # p_t = e^{-kappa (T-t)} W_t, q_t = e^{-kappa (T-t)}; differentiating the
    # discounted product reproduces the backward dynamics, so the discrete
    # martingale residual vanishes pathwise
    assert np.allclose(sol.q, np.exp(-2.0 * (grid.T - grid.t)), rtol=1e-14)
    mc = martingale_check(sol.p_values(ens), sol.q_values(ens), inst.generator, 2.0, ens)
    assert mc["max_pathwise"] <= 1e-12


def test_unit_generator_closed_form(grid):
    inst = BSDEInstance(grid, kappa=2.0, generator=1.0)
    sol = solve_bsde_closedform(inst)
    # elementary integral: p_t = (1 - e^{-kappa (T-t)}) / kappa
    expect = (1.0 - np.exp(-2.0 * (grid.T - grid.t))) / 2.0
    assert np.allclose(sol.det, expect, rtol=1e-13)


def test_martingale_residual_all_closed_forms(grid, ens):
    for inst in (BSDEInstance(grid, kappa=2.0, terminal_const=3.0),
                 BSDEInstance(grid, kappa=2.0, terminal_wt=1.0),
                 BSDEInstance(grid, kappa=2.0, generator=1.0)):
        sol = solve_bsde_closedform(inst)
        mc = martingale_check(sol.p_values(ens), sol.q_values(ens),
                              inst.generator, inst.kappa, ens)
        assert mc["max_pathwise"] <= 1e-10


def test_lsmc_zero_data_is_zero(grid, ens):
    inst = BSDEInstance(grid, kappa=1.0)
    out = solve_bsde_lsmc(inst, ens, degree=1, mode="now")
    assert np.max(np.abs(out["p"])) == 0.0
    assert np.max(np.abs(out["q"])) == 0.0


def test_lsmc_affine_oracle_default_mode(grid):
    inst = BSDEInstance(grid, kappa=1.0, terminal_const=0.5, terminal_wt=1.0,
                        generator=0.7)
    e = sample_brownian(grid, 4000, 8)
    assert lsmc_relative_error(inst, e, degree=1, mode="later") <= 1e-3


def test_lsmc_plain_mode_converges_with_paths(grid):
    inst = BSDEInstance(grid, kappa=1.0, terminal_wt=1.0)
    e1 = lsmc_relative_error(inst, sample_brownian(grid, 1000, 8), 1, "now")
    e2 = lsmc_relative_error(inst, sample_brownian(grid, 4000, 8), 1, "now")
    assert e2 < e1


def test_lsmc_deterministic_instance_constant_basis(grid, ens):
    inst = BSDEInstance(grid, kappa=3.0, terminal_const=2.0, generator=0.5)
    out = solve_bsde_lsmc(inst, ens, degree=1, mode="now")
    sol = solve_bsde_closedform(inst)
    assert np.max(np.abs(out["p"] - sol.det[None, :])) <= 1e-10


def test_lsmc_q_extraction_matches_oracle(grid):
    inst = BSDEInstance(grid, kappa=1.0, terminal_wt=1.0)
    e = sample_brownian(grid, 4000, 8)
    out = solve_bsde_lsmc(inst, e, degree=1, mode="later")
    sol = solve_bsde_closedform(inst)
    # q at the terminal index is unused by the backward schemes
    assert np.max(np.abs(out["q"][:, :-1] - sol.q[None, :-1])) <= 1e-10


def test_apriori_trivial_and_kappa_sweep(grid, ens):
    inst0 = BSDEInstance(grid, kappa=5.0)
    assert apriori_ratio(inst0, solve_bsde_closedform(inst0), ens)["trivial"]
    for alpha, kw in ((0.0, dict(terminal_wt=1.0)), (1 / 3, dict(generator=1.0))):
        ratios = []
        for kappa in (1.0, 10.0, 100.0, 1000.0):
            inst = BSDEInstance(grid, kappa=kappa, alpha=alpha, **kw)
            r = apriori_ratio(inst, solve_bsde_closedform(inst), ens)
            assert np.isfinite(r["ratio"])
            ratios.append(r["ratio"])
        assert max(ratios) / min(ratios) < 3.0


@settings(max_examples=15, deadline=None)
@given(c=st.floats(0.1, 20.0), kappa=st.floats(0.5, 50.0))
def test_apriori_scale_invariance(c, kappa):
    grid = TimeGrid(1.0, 32)
    e = sample_brownian(grid, 64, 2)
    base = BSDEInstance(grid, kappa=kappa, alpha=1 / 3, terminal_wt=1.0, generator=0.4)
    scaled = BSDEInstance(grid, kappa=kappa, alpha=1 / 3, terminal_wt=c, generator=0.4 * c)
    r1 = apriori_ratio(base, solve_bsde_closedform(base), e)["ratio"]
    r2 = apriori_ratio(scaled, solve_bsde_closedform(scaled), e)["ratio"]
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_lsmc_now_keeps_the_constant_alone_on_a_near_singular_design():
    # W varies across paths (so the design has a slope column) but only by
    # ~1e-13: the design [1, W_m] has condition number ~1e13, and the rank
    # rule (singular values above 1e-8 s_0) keeps the constant alone
    grid = TimeGrid(1.0, 4)
    dW = 1e-13 * np.random.default_rng(0).standard_normal((50, 4))
    ens = BrownianEnsemble(grid=grid, n_paths=50, seed=0, dW=dW)
    inst = BSDEInstance(grid, kappa=1.0, terminal_wt=1.0)
    sol = solve_bsde_lsmc(inst, ens, degree=1, mode="now")
    for key in ("p", "q"):
        table = sol[key][:, :-1]
        assert np.all(np.isfinite(table)) and np.all(table == table[0]), key


def _scaled_dev(new, ref):
    """Largest deviation relative to the largest magnitude of the reference."""
    scale = float(np.max(np.abs(ref)))
    dev = float(np.max(np.abs(new - ref)))
    return dev if scale == 0.0 else dev / scale


def _same_bytes(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


@settings(max_examples=30, deadline=None)
@given(log_kappa=st.floats(-2.0, 4.0), alpha=st.floats(0.0, 0.9),
       c=st.floats(-10.0, 10.0), a=st.floats(-10.0, 10.0),
       n_steps=st.integers(4, 300), n_paths=st.integers(1, 3000),
       degree=st.integers(1, 3), seed=st.integers(0, 2 ** 31 - 1))
def test_bsde_checks_match_oracles(log_kappa, alpha, c, a, n_steps, n_paths, degree, seed):
    """The module against the per-table forms of ``bsde_oracles``.

    Unchanged arithmetic, equal bytes: ``martingale_check`` (every output),
    ``solve_bsde_lsmc`` in mode "now", and the data bracket ``rhs`` of
    ``apriori_ratio``.  Reassociated sums, within 1e-13 relative:
    ``apriori_ratio``'s ``lhs`` and ``ratio`` (the integrals take G times a
    weight as one product), and ``solve_bsde_lsmc``'s mode "later" p and q
    relative to their largest magnitude (each is one polynomial in W_m, not
    the discounted conditional polynomial plus the generator step).
    """
    grid = TimeGrid(1.0, n_steps)
    gen = np.random.default_rng(seed).uniform(-2.0, 2.0, n_steps + 1)
    inst = BSDEInstance(grid, kappa=10.0 ** log_kappa, alpha=alpha, terminal_const=c,
                        terminal_wt=a, generator=gen)
    ens = sample_brownian(grid, n_paths, seed)
    sol = solve_bsde_closedform(inst)

    got, ref = apriori_ratio(inst, sol, ens), bsde_oracles.apriori_ratio(inst, sol, ens)
    assert got["trivial"] == ref["trivial"] and _same_bytes(got["rhs"], ref["rhs"])
    for key in ("lhs", "ratio"):
        assert got[key] == pytest.approx(ref[key], rel=1e-13, abs=0.0)

    later = solve_bsde_lsmc(inst, ens, degree=degree, mode="later")
    later_ref = bsde_oracles.solve_bsde_lsmc(inst, ens, degree=degree, mode="later")
    assert _same_bytes(later["p"][:, -1], later_ref["p"][:, -1])
    assert _scaled_dev(later["p"], later_ref["p"]) <= 1e-13
    assert _scaled_dev(later["q"], later_ref["q"]) <= 1e-13

    now = solve_bsde_lsmc(inst, ens, degree=degree, mode="now")
    now_ref = bsde_oracles.solve_bsde_lsmc(inst, ens, degree=degree, mode="now")
    assert _same_bytes(now["p"], now_ref["p"]) and _same_bytes(now["q"], now_ref["q"])

    pairs = [(sol.p_values(ens), sol.q_values(ens)), (sol.det, sol.q),
             (later["p"], later["q"])]
    for p, q in pairs:
        got = martingale_check(p, q, inst.generator, inst.kappa, ens)
        ref = bsde_oracles.martingale_check(p, q, inst.generator, inst.kappa, ens)
        assert got.keys() == ref.keys() and all(_same_bytes(got[k], ref[k]) for k in ref)


def test_instance_validation(grid):
    with pytest.raises(ValueError):
        BSDEInstance(grid, kappa=-1.0)
    with pytest.raises(ValueError):
        BSDEInstance(grid, kappa=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        BSDEInstance(grid, kappa=1.0, generator=np.zeros(3))
