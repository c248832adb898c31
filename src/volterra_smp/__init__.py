"""Monte Carlo verification toolkit for controlled Volterra dynamics with
completely monotone kernels: finite-atom kernel lifts, spike-variation
expansions, backward fields on weighted decay grids, and checks of the
risk-adjusted Hamiltonian inequality."""

__version__ = "0.1.0"
