"""Brute-force references: direct star-geometry discretization and the exact
Lindblad solution for the delta-kernel (Markovian) limit.

The star oracle shares the Fock-space builder and the propagator with the
chain pipeline, since a star bath is the same quadratic bath in another
geometry (diagonal instead of tridiagonal).  Its Hamiltonian is constant, so
`star_evolve` propagates it by the Chebyshev recurrences of a profile-free
chain run (`dynamics._propagate_const`).  Its discretization is
independent: modes sit on a uniform frequency grid with midpoint couplings
g_k = vhat(w_k) sqrt(dw), so agreement between the two is a genuine
cross-check of the Gauss quadrature and Lanczos steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _collect, _propagate_const, output_times
from .errors import ShapeMismatch, StepControlFailure
from .fock import SystemModel, TruncatedSpace, build_hamiltonian_parts
from .kernels import RegularizedCoupling


@dataclass(frozen=True)
class StarDiscretization:
    """Uniform-grid bath modes w_k with couplings g_k = vhat(w_k) sqrt(dw)."""

    omegas: np.ndarray
    couplings: np.ndarray
    count: int
    norm_sq_gap: float    # relative gap between sum |g|^2 and the cutoff norm

    @classmethod
    def from_coupling(cls, coupling: RegularizedCoupling, omega_c: float,
                      count: int):
        dw = 2.0 * omega_c / count
        omegas = -omega_c + (np.arange(count) + 0.5) * dw
        g = np.asarray(coupling.vhat(omegas)) * math.sqrt(dw)
        target = coupling.cutoff_l2_norm(omega_c) ** 2
        got = float(np.sum(np.abs(g) ** 2))
        gap = abs(got - target) / max(target, 1e-300)
        return cls(omegas, g, count, gap)

    @property
    def onsite(self):
        return self.omegas

    @property
    def hopping(self):   # star modes couple only to the system
        return np.zeros(self.count - 1)


def _star_hamiltonian(model: SystemModel, stars, space: TruncatedSpace):
    if model.time_dependent:
        raise StepControlFailure(
            "star oracle supports constant system profiles only")
    h, _ = build_hamiltonian_parts(model, stars, space)
    return h


def star_evolve(model: SystemModel, stars, space: TruncatedSpace, psi0,
                t_final: float, out_step: float = 0.05,
                keep_states: bool = False) -> Trajectory:
    """Unitary trajectory on the star-geometry truncated space, recorded on
    `output_times` like the chain's, so the two pair up row by row."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (space.dimension,):
        raise ShapeMismatch("initial state has wrong dimension")
    times = output_times(t_final, out_step)
    states = _propagate_const(_star_hamiltonian(model, list(stars), space),
                              psi0, times)    # freed before `_collect`
    return _collect(space, times, states, keep_states, oracle=True)


def lindblad_evolve(model: SystemModel, rates, rho0, t_final: float,
                    out_step: float = 0.05):
    """Density-matrix trajectory of d rho/dt = -i [H_S, rho]
    + sum_a Gamma_a (L rho L^dag - (1/2) {L^dag L, rho}).

    Solved exactly: the constant Liouvillian acts on the row-major vec of
    rho, where vec(A rho B) = (A (x) B^T) vec(rho), and one Krylov
    `expm_multiply` propagates vec(rho0) over `output_times`.  Returns
    (times, rhos) with rhos of shape (T, ds, ds).
    """
    from scipy.sparse.linalg import expm_multiply

    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("Lindblad rates must be nonnegative")
    rho0 = np.asarray(rho0, dtype=complex)
    ds = model.sys_dim
    if rho0.shape != (ds, ds):
        raise ShapeMismatch("initial density matrix has wrong shape")
    if model.time_dependent:
        raise StepControlFailure("lindblad oracle supports constant H_S only")
    hs = model.hs_matrix(0.0)
    eye = np.eye(ds)
    liouvillian = -1j * (np.kron(hs, eye) - np.kron(eye, hs.T))
    for a, gamma in enumerate(rates):
        l = model.jump_matrix(a)
        ldl = l.conj().T @ l
        liouvillian += gamma * (np.kron(l, l.conj())
                                - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T)))
    times = output_times(t_final, out_step)
    vecs = expm_multiply(liouvillian, rho0.reshape(-1), start=times[0],
                         stop=times[-1], num=len(times), endpoint=True)
    return times, vecs.reshape(len(times), ds, ds)
