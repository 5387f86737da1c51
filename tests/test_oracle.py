import math

import numpy as np
import pytest

from nmk_sim import kernels as ker
from nmk_sim.chain import star_to_chain
from nmk_sim.dynamics import evolve, trace_distance
from nmk_sim.errors import ShapeMismatch, StepControlFailure
from nmk_sim.fock import (
    InitialEnvState,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    SystemModel,
    TimeProfile,
    assemble_initial_state,
    enumerate_basis,
)
from nmk_sim.oracle import (StarDiscretization, _star_hamiltonian,
                            lindblad_evolve, star_evolve)


def _qubit(hs=None, jump=SIGMA_MINUS):
    terms = [((0,), hs, TimeProfile())] if hs is not None else []
    return SystemModel(1, 2, tuple(terms), (((0,), jump, 0),))


def test_star_norm_gap_shrinks(lorentzian_coupling):
    gaps = [StarDiscretization.from_coupling(lorentzian_coupling, 3.0, k).norm_sq_gap
            for k in (16, 64, 256)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_star_zero_coupling_precesses():
    model = _qubit(hs=0.5 * SIGMA_Z)
    star = StarDiscretization(np.array([0.7]), np.array([0.0j]), 1, 0.0)
    space = enumerate_basis(1, 2, 1, 1, 1)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    psi0, _ = assemble_initial_state(space, plus, [InitialEnvState()])
    traj = star_evolve(model, [star], space, psi0, 4.0, out_step=0.1)
    mx = np.array([np.trace(r @ SIGMA_X).real for r in traj.rho_s])
    assert np.max(np.abs(mx - np.cos(traj.times))) < 1e-10
    assert traj.oracle


def test_star_single_mode_is_jaynes_cummings():
    g, w0 = 0.4, 0.9
    model = _qubit(hs=0.5 * w0 * SIGMA_Z)
    star = StarDiscretization(np.array([w0]), np.array([g + 0j]), 1, 0.0)
    space = enumerate_basis(1, 2, 1, 1, 2)
    psi0, _ = assemble_initial_state(space, np.array([1.0, 0.0]),
                                     [InitialEnvState()])
    traj = star_evolve(model, [star], space, psi0, 4.0, out_step=0.2)
    assert np.max(np.abs(traj.rho_ee() - np.cos(g * traj.times) ** 2)) < 1e-10


def test_star_rejects_mismatched_space():
    model = _qubit()
    star = StarDiscretization(np.array([0.0, 1.0]), np.zeros(2, complex), 2, 0.0)
    space = enumerate_basis(1, 2, 1, 3, 1)
    psi0 = np.zeros(space.dimension, dtype=complex)
    psi0[space.vacuum_index((0,))] = 1.0
    with pytest.raises(ShapeMismatch):
        star_evolve(model, [star], space, psi0, 1.0)


def test_star_rejects_driven_system():
    driven = SystemModel(1, 2, (((0,), SIGMA_X, TimeProfile("cos", 1.0)),),
                         (((0,), SIGMA_MINUS, 0),))
    star = StarDiscretization(np.array([0.5]), np.array([0.3 + 0j]), 1, 0.0)
    space = enumerate_basis(1, 2, 1, 1, 1)
    psi0, _ = assemble_initial_state(space, np.array([1.0, 0.0]),
                                     [InitialEnvState()])
    with pytest.raises(StepControlFailure):
        star_evolve(driven, [star], space, psi0, 1.0)


def test_large_star_matches_eigendecomposition(eigh_states,
                                               lorentzian_coupling):
    # 256-mode star: dim 514 to t = 2
    model = _qubit(hs=0.5 * SIGMA_Z)
    star = StarDiscretization.from_coupling(lorentzian_coupling, 3.0, 256)
    space = enumerate_basis(1, 2, 1, 256, 1)
    assert space.dimension == 514
    psi0, _ = assemble_initial_state(space, np.array([1.0, 0.0]),
                                     [InitialEnvState()])
    traj = star_evolve(model, [star], space, psi0, 2.0, out_step=0.05,
                       keep_states=True)
    h = _star_hamiltonian(model, [star], space)
    want = eigh_states(h, psi0, traj.times)
    assert np.max(np.linalg.norm(traj.states - want, axis=1)) < 1e-12


def test_star_vs_chain_converge(lorentzian_coupling):
    """Trace distance decreases along a 3-rung refinement ladder."""
    model = _qubit(hs=0.5 * SIGMA_Z)
    omega_c, t_final = 3.0, 2.0
    gaps = []
    for modes, star_modes in ((4, 24), (8, 48), (12, 96)):
        coeffs = star_to_chain(lorentzian_coupling, omega_c, modes)
        space = enumerate_basis(1, 2, 1, modes, 1)
        psi0, _ = assemble_initial_state(space, np.array([1.0, 0.0]),
                                         [InitialEnvState()])
        chain_traj = evolve(model, [coeffs], space, psi0, t_final,
                            out_step=0.2)
        star = StarDiscretization.from_coupling(lorentzian_coupling, omega_c,
                                                star_modes)
        sspace = enumerate_basis(1, 2, 1, star_modes, 1)
        spsi0, _ = assemble_initial_state(sspace, np.array([1.0, 0.0]),
                                          [InitialEnvState()])
        star_traj = star_evolve(model, [star], sspace, spsi0, t_final,
                                out_step=0.2)
        gaps.append(max(trace_distance(a, b)
                        for a, b in zip(chain_traj.rho_s, star_traj.rho_s)))
    assert gaps[0] > gaps[1] > gaps[2]


# -- lindblad --------------------------------------------------------------------

def test_lindblad_unitary_limit():
    model = _qubit(hs=0.5 * SIGMA_X)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    ts, rhos = lindblad_evolve(model, [0.0], rho0, 2.0, out_step=0.25)
    assert np.max(np.abs(rhos[:, 0, 0].real - np.cos(0.5 * ts) ** 2)) < 1e-10


def test_lindblad_amplitude_damping():
    # the reference is exact: it meets e^(-t) to rounding
    model = _qubit()
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    ts, rhos = lindblad_evolve(model, [1.0], rho0, 3.0, out_step=0.25)
    assert np.max(np.abs(rhos[:, 0, 0].real - np.exp(-ts))) < 1e-13


def test_lindblad_preserves_trace_and_hermiticity():
    model = _qubit(hs=0.3 * SIGMA_Z, jump=SIGMA_X)
    rho0 = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
    ts, rhos = lindblad_evolve(model, [0.8], rho0, 2.0, out_step=0.2)
    traces = np.trace(rhos, axis1=1, axis2=2)
    assert np.max(np.abs(traces - 1.0)) < 1e-10
    assert np.max(np.abs(rhos - rhos.conj().transpose(0, 2, 1))) < 1e-12
    for rho in rhos:
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10


def test_lindblad_rejects_negative_rate():
    model = _qubit()
    with pytest.raises(ValueError):
        lindblad_evolve(model, [-1.0], np.eye(2, dtype=complex) / 2, 1.0)
