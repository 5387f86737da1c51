import numpy as np
import pytest

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


@pytest.fixture(scope="session")
def eigh_states():
    """exp(-i h t) psi0 at each of `times` by one dense eigendecomposition of
    the sparse Hermitian h: (T, dim), the reference for the propagator."""
    def states(h, psi0, times):
        vals, vecs = np.linalg.eigh(h.toarray())
        coeff = vecs.conj().T @ psi0
        return (np.exp(-1j * np.outer(times, vals)) * coeff) @ vecs.T
    return states
