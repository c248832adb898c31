from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import gamma as gamma_fn

import kernels_oracles
from volterra_smp.kernels import (AnalyticKernel, DiscreteLaplaceKernel,
                                  build_fractional_lift, constant_kernel,
                                  discounted_sweep, exponential_kernel,
                                  knorm_eps, quadrature_error, step_decay_weight)

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def test_delta_atom_is_constant_kernel():
    k = constant_kernel(matrix=2.0 * np.eye(1))
    for t in (0.0, 0.3, 1.7):
        assert k.eval("b", t)[0, 0] == pytest.approx(2.0, abs=0)


def test_two_atom_sum_exact():
    k = DiscreteLaplaceKernel(nodes=np.array([0.5, 2.0]), weights=np.array([0.3, 0.3]),
                              mb=np.ones((2, 1, 1)), msigma=np.ones((2, 1, 1)))
    t = 0.7
    expect = 0.3 * (np.exp(-0.5 * t) + np.exp(-2.0 * t))
    assert k.eval("b", t)[0, 0] == pytest.approx(expect, rel=1e-15)


def test_fractional_eval_matches_power_law():
    # direct evaluation of the analytic profile at beta = 0.7, t = 0.5
    ana = AnalyticKernel("fractional", beta=0.7)
    assert ana.eval("b", 0.5)[0, 0] == pytest.approx(0.5 ** (-0.3) / gamma_fn(0.7), rel=1e-14)
    k = build_fractional_lift(0.7, 0.7, 0.55, 1e-3, 1e5, 100, alpha=0.75)
    assert k.eval("b", 0.5)[0, 0] == pytest.approx(0.5 ** (-0.3) / gamma_fn(0.7), rel=1e-3)


def test_fractional_beta_one_degenerates_to_constant():
    ana = AnalyticKernel("fractional", beta=1.0 - 1e-12)
    assert ana.eval("b", 0.37)[0, 0] == pytest.approx(1.0, rel=1e-9)


def test_fractional_eval_at_zero_rejected():
    ana = AnalyticKernel("fractional", beta=0.7)
    with pytest.raises(ValueError):
        ana.eval("b", 0.0)


def test_exponential_single_atom_exact():
    k = exponential_kernel(1.5)
    rep = quadrature_error(k, np.linspace(0.05, 1.0, 13), "b")
    assert rep["sup_abs"] == 0.0


def test_builder_rejects_bad_parameters():
    with pytest.raises(ValueError, match="beta_sigma"):
        build_fractional_lift(0.8, 0.4, 0.6, 1e-3, 1e3, 10)
    with pytest.raises(ValueError, match="gamma"):
        build_fractional_lift(0.8, 0.9, 0.99, 1e-3, 1e3, 10, alpha=1 / 3)
    with pytest.raises(ValueError, match="theta_max"):
        build_fractional_lift(0.8, 0.9, None, 1e3, 1e3, 10, alpha=1 / 3)


def test_quadrature_error_requires_reference():
    k = DiscreteLaplaceKernel(nodes=np.array([1.0]), weights=np.array([1.0]),
                              mb=np.ones((1, 1, 1)), msigma=np.ones((1, 1, 1)))
    with pytest.raises(ValueError):
        quadrature_error(k, [0.5], "b")


def test_complete_monotonicity_on_grid(frac_kernel):
    # nonnegative factors: values and first differences are non-increasing
    ts = np.linspace(0.05, 2.0, 60)
    vals = np.array([frac_kernel.eval("b", t)[0, 0] for t in ts])
    assert np.all(np.diff(vals) <= 0)
    assert np.all(np.diff(np.diff(vals)) >= -1e-12)


def test_knorm_constant_kernel_is_eps_power():
    k = constant_kernel()
    assert knorm_eps(k, "b", 1.0, 0.37) == pytest.approx(0.37, rel=1e-14)
    assert knorm_eps(k, "b", 2.0, 0.25) == pytest.approx(0.5, rel=1e-14)


def test_knorm_fractional_closed_form():
    # antiderivative of t^{2(beta-1)} at beta = 3/4:
    # ||K||_{2,eps} = eps^{0.25} / (sqrt(0.5) * Gamma(0.75))
    ana = AnalyticKernel("fractional", beta=0.75)
    eps = 0.4
    expect = eps ** 0.25 / (np.sqrt(0.5) * gamma_fn(0.75))
    assert knorm_eps(ana, "b", 2.0, eps) == pytest.approx(expect, rel=1e-12)



@pytest.mark.parametrize("which", ["b", "sigma"])
@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("eps", [0.05, 0.2, 0.8])
def test_knorm_of_an_atom_kernel_without_reference_matches_the_closed_form(which, q, eps):
    # one atom at theta = 2 with unit weight and factors is exp(-2 t), but
    # without an analytic reference knorm_eps integrates its profile
    atom = DiscreteLaplaceKernel(nodes=np.array([2.0]), weights=np.array([1.0]),
                                 mb=np.ones((1, 1, 1)), msigma=np.ones((1, 1, 1)))
    assert atom.analytic(which) is None
    expect = knorm_eps(exponential_kernel(2.0), which, q, eps)
    assert knorm_eps(atom, which, q, eps) == pytest.approx(expect, rel=1e-12)

@pytest.mark.parametrize("beta,q,member", [
    (0.4, 1.5, True), (1 / 3 + 1e-9, 1.5, True), (0.3, 1.5, False),
    (0.9, 6.0, True), (5 / 6 - 1e-6, 6.0, False),
])
def test_knorm_membership_boundary(beta, q, member):
    ana = AnalyticKernel("fractional", beta=beta)
    if member:
        assert knorm_eps(ana, "b", q, 0.5) > 0
    else:
        with pytest.raises(ValueError, match="membership"):
            knorm_eps(ana, "b", q, 0.5)


@settings(max_examples=30, deadline=None)
@given(beta=st.floats(0.55, 0.95), qp=st.floats(1.2, 4.0),
       eps=st.floats(0.01, 0.9))
def test_knorm_hoelder_comparison(beta, qp, eps):
    assume(qp * (beta - 1.0) + 1.0 > 1e-3)  # stay inside the L^{q'} membership
    ana = AnalyticKernel("fractional", beta=beta)
    lhs = knorm_eps(ana, "b", 1.0, eps)
    rhs = knorm_eps(ana, "b", qp, eps) * eps ** (1.0 - 1.0 / qp)
    assert lhs <= rhs * (1 + 1e-12)


@settings(max_examples=20, deadline=None)
@given(beta=st.floats(0.55, 0.95), q=st.floats(1.0, 3.0),
       e1=st.floats(0.01, 0.4), scale=st.floats(1.05, 3.0))
def test_knorm_monotone_in_eps(beta, q, e1, scale):
    assume(q * (beta - 1.0) + 1.0 > 1e-3)
    ana = AnalyticKernel("fractional", beta=beta)
    assert knorm_eps(ana, "b", q, e1) <= knorm_eps(ana, "b", q, e1 * scale) * (1 + 1e-12)


def test_node_doubling_halves_error():
    t = np.geomspace(0.01, 1.0, 100)
    k1 = build_fractional_lift(0.7, 0.7, 0.55, 1e-3, 1e5, 100, alpha=0.75)
    k2 = build_fractional_lift(0.7, 0.7, 0.55, 1e-4, 1e6, 200, alpha=0.75)
    r1 = quadrature_error(k1, t, "b")["sup_rel"]
    r2 = quadrature_error(k2, t, "b")["sup_rel"]
    assert r2 <= 0.5 * r1


def test_integrability_report_finite(frac_kernel):
    rep = kernels_oracles.integrability_report(frac_kernel)
    assert all(np.isfinite(v) and v > 0 for v in rep.values())


@settings(max_examples=80, deadline=None)
@given(rate_axes=st.integers(0, 2), n_nodes=st.integers(1, 5), state_axes=st.integers(0, 2),
       n_steps=st.integers(1, 30), zero_rate=st.booleans(), seed=st.integers(0, 10 ** 6))
def test_discounted_sweep_equals_per_step_loop_bit_for_bit(rate_axes, n_nodes, state_axes,
                                                           n_steps, zero_rate, seed):
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.0, 1e3, (n_nodes,) * rate_axes)
    if zero_rate:
        rates.flat[0] = 0.0
    row = rates.shape + (2,) * state_axes
    terminal = rng.normal(size=row)
    gen = rng.normal(size=(n_steps + 1,) + row)
    dt = float(rng.uniform(1e-3, 0.5))
    out = discounted_sweep(rates if rate_axes else float(rates), dt, terminal, gen)
    # the recursion written out one step at a time, rates broadcast over state axes
    tail = (1,) * state_axes
    dec = np.exp(-rates * dt).reshape(rates.shape + tail)
    om = step_decay_weight(rates, dt).reshape(rates.shape + tail)
    ref = np.zeros((n_steps + 1,) + row)
    ref[n_steps] = terminal
    for m in range(n_steps - 1, -1, -1):
        ref[m] = dec * ref[m + 1] + om * gen[m]
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


def test_package_import_leaves_the_quadrature_module_unloaded():
    """Importing the package and building every bundled config's kernel (the
    benchmark's set-up) loads no scipy module: only knorm_eps's quadrature,
    bsde's weighted integrals and the first LiftStep import from scipy."""
    import subprocess
    import sys
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "import volterra_smp.harness, volterra_smp.cli\n"
        "assert 'scipy.integrate' not in sys.modules\n"
        f"for p in sorted(Path({str(CONFIGS)!r}).glob('*.json')):\n"
        "    volterra_smp.harness.resolve_config(p).make_kernel()\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

