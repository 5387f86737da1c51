import numpy as np
import pytest

from nmk_sim import dynamics as dyn
from nmk_sim import kernels as ker


@pytest.fixture(scope="session")
def flat_coupling():
    """Unit weight |vhat|^2 = 1 on [-1, 1], exact under interpolation."""
    grid = np.linspace(-1.0, 1.0, 257)
    return ker.RegularizedCoupling.from_samples(grid, np.ones_like(grid))


@pytest.fixture(scope="session")
def lorentzian_kernel():
    return ker.MemoryKernel.lorentzian_sum([(1.0, 0.0, 1.0)])


@pytest.fixture(scope="session")
def lorentzian_coupling(lorentzian_kernel):
    mol = ker.Mollifier(0.05)
    return ker.regularize(lorentzian_kernel, mol,
                          ker.choose_grid(lorentzian_kernel, mol))


@pytest.fixture()
def eigh_calls(monkeypatch):
    """Dimensions of the matrices passed to the dense propagator's `eigh`."""
    calls = []
    eigh = dyn.eigh

    def counting(a):
        calls.append(a.shape[0])
        return eigh(a)

    monkeypatch.setattr(dyn, "eigh", counting)
    return calls
