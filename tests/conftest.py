import numpy as np
import pytest
import scipy.sparse as sp

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
    the sparse Hermitian h (a scipy or `nmk_sim.csr` CSR matrix): (T, dim),
    the reference for the propagator."""
    def states(h, psi0, times):
        h = sp.csr_matrix((h.data, h.indices, h.indptr), shape=h.shape)
        vals, vecs = np.linalg.eigh(h.toarray())
        coeff = vecs.conj().T @ psi0
        return (np.exp(-1j * np.outer(times, vals)) * coeff) @ vecs.T
    return states


@pytest.fixture(scope="session")
def ode_states():
    """psi(t) at each of `times` under H(t) = P_0 + sum_k f_k(t) P_k (scipy or
    `nmk_sim.csr` CSR parts) by scipy's DOP853 at rtol 3e-14 and atol
    1e-15, restarted at every output time so no row is interpolated:
    (T, dim), the reference for the time-dependent propagator."""
    from scipy.integrate import solve_ivp

    def states(parts, profiles, psi0, times):
        parts = [sp.csr_matrix((p.data, p.indices, p.indptr), shape=p.shape)
                 for p in parts]

        def rhs(t, psi):
            out = parts[0] @ psi
            for f, part in zip(profiles, parts[1:]):
                out = out + f(t) * (part @ psi)
            return -1j * out

        rows = [np.asarray(psi0, dtype=complex)]
        for t0, t1 in zip(times[:-1], times[1:]):
            sol = solve_ivp(rhs, (t0, t1), rows[-1], method="DOP853",
                            rtol=3e-14, atol=1e-15)
            rows.append(sol.y[:, -1])
        return np.array(rows)
    return states
