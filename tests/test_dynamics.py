import math

import numpy as np
import pytest

from nmk_sim import dynamics as dyn
from nmk_sim import fock, kernels as ker
from nmk_sim.chain import ChainCoefficients, star_to_chain
from nmk_sim.dynamics import (
    ErrorBudget,
    StateConstants,
    StepControl,
    apriori_mu1,
    assemble_error_budget,
    chain_error_bound,
    cutoff_error_bound,
    evolve,
    measure_moments,
    moment_bound,
    regularization_error_bound,
    trace_distance,
    truncation_certificate,
)
from nmk_sim.errors import StepControlFailure
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


def _qubit_model(hs=None, jump=None, profile=None):
    hs_terms = [((0,), hs, profile or TimeProfile())] if hs is not None else []
    jumps = [((0,), jump if jump is not None else SIGMA_MINUS, 0)]
    return SystemModel(1, 2, tuple(hs_terms), tuple(jumps))


def _vacuum_start(space, sys_state=(1.0, 0.0)):
    return assemble_initial_state(space, np.array(sys_state),
                                  [InitialEnvState()] * space.baths)[0]


# -- evolve ----------------------------------------------------------------------

def test_zero_hamiltonian_is_identity():
    model = SystemModel(1, 2)
    zero = ChainCoefficients(np.zeros(2), np.zeros(1), 0.0, 1.0, 2)
    space = enumerate_basis(1, 2, 1, 2, 2)
    psi0 = _vacuum_start(space)
    traj = evolve(model, [zero], space, psi0, 1.0, StepControl(out_step=0.25),
                  keep_states=True)
    assert max(np.linalg.norm(s - psi0) for s in traj.states) == 0.0


def test_bloch_precession():
    model = _qubit_model(hs=0.5 * SIGMA_Z)
    zero = ChainCoefficients(np.zeros(1), np.zeros(0), 0.0, 1.0, 1)
    space = enumerate_basis(1, 2, 1, 1, 1)
    psi0 = _vacuum_start(space, (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)))
    traj = evolve(model, [zero], space, psi0, 6.0, StepControl(out_step=0.1))
    mx = np.array([np.trace(r @ SIGMA_X).real for r in traj.rho_s])
    assert np.max(np.abs(mx - np.cos(traj.times))) < 1e-12


def test_jaynes_cummings_population():
    g, w0 = 0.37, 1.3
    model = _qubit_model(hs=0.5 * w0 * SIGMA_Z)
    coeffs = ChainCoefficients(np.array([w0]), np.zeros(0), g, 2.0, 1)
    space = enumerate_basis(1, 2, 1, 1, 2)
    psi0 = _vacuum_start(space)
    traj = evolve(model, [coeffs], space, psi0, 4.0, StepControl(out_step=0.05))
    assert np.max(np.abs(traj.rho_ee() - np.cos(g * traj.times) ** 2)) < 1e-10
    traj.validate()


def test_krylov_path_matches_eigendecomposition(monkeypatch):
    model = _qubit_model(hs=0.5 * SIGMA_Z, jump=SIGMA_X)
    coeffs = ChainCoefficients(np.array([0.1, -0.2, 0.3]),
                               np.array([0.4, 0.5]), 0.6, 1.0, 3)
    space = enumerate_basis(1, 2, 1, 3, 2)
    psi0 = _vacuum_start(space)
    dense = evolve(model, [coeffs], space, psi0, 2.0, StepControl(out_step=0.5),
                   keep_states=True)
    monkeypatch.setattr(dyn, "DENSE_EIG_DIM", 0)
    krylov = evolve(model, [coeffs], space, psi0, 2.0, StepControl(out_step=0.5),
                    keep_states=True)
    gap = max(np.linalg.norm(a - b)
              for a, b in zip(dense.states, krylov.states))
    assert gap < 1e-8


def test_long_desk_chain_takes_dense_eigh(eigh_calls, lorentzian_coupling):
    # dim 330 to t = 20 (401 outputs): Krylov pays ||H||_1 t and every
    # output, dense one eigh; dense is about 5x faster here
    model = _qubit_model(hs=0.5 * SIGMA_Z, jump=SIGMA_X)
    chain = star_to_chain(lorentzian_coupling, 3.0, 8)
    space = enumerate_basis(1, 2, 1, 8, 3)
    assert space.dimension >= 300
    evolve(model, [chain], space, _vacuum_start(space), 20.0,
           StepControl(out_step=0.05)).validate()
    assert eigh_calls == [space.dimension]


@pytest.mark.parametrize("ceiling, expected", [(89, 0), (90, 1)],
                         ids=["above", "at"])
def test_dense_eigh_never_above_ceiling(monkeypatch, eigh_calls,
                                        lorentzian_coupling, ceiling, expected):
    # even at an infinite Krylov cost, a dim-90 Hamiltonian above the
    # DENSE_EIG_DIM ceiling takes Krylov
    monkeypatch.setattr(dyn, "KRYLOV_COST_RATIO", math.inf)
    monkeypatch.setattr(dyn, "DENSE_EIG_DIM", ceiling)
    model = _qubit_model(hs=0.5 * SIGMA_Z, jump=SIGMA_X)
    space = enumerate_basis(1, 2, 1, 8, 2)
    assert space.dimension == 90
    evolve(model, [star_to_chain(lorentzian_coupling, 3.0, 8)], space,
           _vacuum_start(space), 0.5, StepControl(out_step=0.25))
    assert len(eigh_calls) == expected


def test_time_dependent_matches_commuting_closed_form():
    # H(t) = cos(nu t) sigma_x / 2 commutes with itself at all times:
    # P_e(t) = cos^2(sin(nu t) / (2 nu)).
    nu = 1.7
    model = _qubit_model(hs=0.5 * SIGMA_X, profile=TimeProfile("cos", nu))
    zero = ChainCoefficients(np.zeros(1), np.zeros(0), 0.0, 1.0, 1)
    space = enumerate_basis(1, 2, 1, 1, 1)
    psi0 = _vacuum_start(space)
    traj = evolve(model, [zero], space, psi0, 3.0,
                  StepControl(out_step=0.25, tol=1e-10))
    expected = np.cos(np.sin(nu * traj.times) / (2.0 * nu)) ** 2
    assert np.max(np.abs(traj.rho_ee() - expected)) < 1e-9
    traj.validate()


def test_dense_and_krylov_cf4_agree(monkeypatch, lorentzian_coupling):
    # the driven case of acceptance criterion 5 (dim 30), cut to t = 0.4
    model = _qubit_model(hs=0.4 * SIGMA_X, profile=TimeProfile("cos", 2.0))
    chain = star_to_chain(lorentzian_coupling, 3.0, 4)
    space = enumerate_basis(1, 2, 1, 4, 2)
    assert space.dimension <= dyn.DENSE_EXPM_DIM
    psi0 = _vacuum_start(space)
    ctl = StepControl(out_step=0.2)
    dense = evolve(model, [chain], space, psi0, 0.4, ctl)
    monkeypatch.setattr(dyn, "DENSE_EXPM_DIM", 0)
    krylov = evolve(model, [chain], space, psi0, 0.4, ctl)
    for name in ("rho_s", "mu1", "norms"):
        gap = np.max(np.abs(getattr(dense, name) - getattr(krylov, name)))
        assert gap < 1e-12, name


@pytest.mark.parametrize("dense_dim", [dyn.DENSE_EXPM_DIM, 0],
                         ids=["dense", "krylov"])
def test_step_control_failure(monkeypatch, dense_dim):
    monkeypatch.setattr(dyn, "DENSE_EXPM_DIM", dense_dim)
    model = _qubit_model(hs=0.5 * SIGMA_X, profile=TimeProfile("cos", 2.0))
    zero = ChainCoefficients(np.zeros(1), np.zeros(0), 0.0, 1.0, 1)
    space = enumerate_basis(1, 2, 1, 1, 1)
    psi0 = _vacuum_start(space)
    with pytest.raises(StepControlFailure):
        evolve(model, [zero], space, psi0, 1.0,
               StepControl(out_step=1.0, tol=1e-18, max_halvings=2))


@pytest.mark.parametrize("rho", [
    np.array([[0.5, 0.1], [0.3, 0.5]]),      # not Hermitian
    np.array([[0.7, 0.0], [0.0, 0.5]]),      # trace drifted from 1
    np.array([[1.2, 0.0], [0.0, -0.2]]),     # not positive semidefinite
], ids=["hermitian", "trace", "psd"])
def test_validate_bad_reduced_state_is_step_control_failure(rho):
    traj = dyn.Trajectory(np.array([0.0]), rho[None].astype(complex),
                          np.zeros((1, 1)), np.zeros((1, 1)), np.ones(1))
    with pytest.raises(StepControlFailure):
        traj.validate()


def test_trajectory_state_sanity():
    model = _qubit_model(hs=0.5 * SIGMA_Z, jump=SIGMA_X)
    coeffs = ChainCoefficients(np.array([0.2, 0.1]), np.array([0.3]),
                               0.5, 1.0, 2)
    space = enumerate_basis(1, 2, 1, 2, 3)
    psi0 = _vacuum_start(space)
    traj = evolve(model, [coeffs], space, psi0, 3.0, StepControl(out_step=0.1))
    traj.validate()
    assert traj.norm_drift < 1e-8
    for rho in traj.rho_s:
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-8


# -- moments ----------------------------------------------------------------------

def test_moment_bound_base_case():
    assert moment_bound(0.5, 2.0, [0.7], 0) == [1.0]


def test_moment_bound_vacuum_first_moment():
    # M1 = 2^{-1} ell^2 t^2 (1 + 1)^2 = 2 ell^2 t^2
    out = moment_bound(0.5, 2.0, [0.0], 1)
    assert out[1] == pytest.approx(2.0 * 0.25 * 4.0)


def test_moment_bound_decoupled():
    out = moment_bound(0.0, 3.0, [0.3, 0.7], 2)
    assert out == [1.0, 0.6, 1.4]


def test_measure_moments_examples():
    space = enumerate_basis(1, 2, 1, 1, 3)
    vac = np.zeros(space.dimension, dtype=complex)
    vac[space.vacuum_index((0,))] = 1.0
    assert measure_moments(space, vac) == (pytest.approx(0.0), pytest.approx(0.0))
    one = np.zeros(space.dimension, dtype=complex)
    one[space.labels_to_index((0,), [(1,)])] = 1.0
    mu1, mu2 = measure_moments(space, one)
    assert (mu1[0], mu2[0]) == (pytest.approx(1.0), pytest.approx(1.0))
    mix = np.zeros(space.dimension, dtype=complex)
    mix[space.vacuum_index((0,))] = 1.0 / math.sqrt(2.0)
    mix[space.labels_to_index((0,), [(2,)])] = 1.0 / math.sqrt(2.0)
    mu1, mu2 = measure_moments(space, mix)
    assert (mu1[0], mu2[0]) == (pytest.approx(1.0), pytest.approx(2.0))


def test_measured_moments_below_apriori(flat_coupling):
    coeffs = star_to_chain(flat_coupling, 1.0, 6)
    scaled = ChainCoefficients(coeffs.onsite, coeffs.hopping, 0.5, 1.0, 6)
    model = _qubit_model(jump=SIGMA_X)
    space = enumerate_basis(1, 2, 1, 6, 3)
    psi0 = _vacuum_start(space)
    traj = evolve(model, [scaled], space, psi0, 4.0, StepControl(out_step=0.1))
    g = 0.5  # ||v|| ||L||
    assert np.all(traj.mu1[:, 0] <= apriori_mu1(g, traj.times) + 1e-10)
    bound_m1 = [moment_bound(g, t, [0.0], 1)[1] for t in traj.times]
    assert np.all(traj.mu1[:, 0] <= np.asarray(bound_m1) + 1e-10)


# -- truncation certificate --------------------------------------------------------

def test_certificate_zero_coupling():
    assert truncation_certificate(3, 2.0, [0.0]) == 0.0


def test_certificate_quarter_cap_halves():
    c1 = truncation_certificate(1, 2.0, [0.5])
    c4 = truncation_certificate(4, 2.0, [0.5])
    assert c4 / c1 == pytest.approx(0.5, abs=1e-10)


def test_certificate_measured_moments(flat_coupling):
    coeffs = star_to_chain(flat_coupling, 1.0, 4)
    model = _qubit_model(jump=SIGMA_X)
    space = enumerate_basis(1, 2, 1, 4, 2)
    psi0 = _vacuum_start(space)
    traj = evolve(model, [coeffs], space, psi0, 1.0, StepControl(out_step=0.1))
    g = coeffs.v_norm
    measured = truncation_certificate(2, 1.0, [g], moments="measured",
                                      trajectory=traj)
    apriori = truncation_certificate(2, 1.0, [g])
    assert 0.0 <= measured <= apriori + 1e-12


def test_certificate_dominates_cap_refinement(flat_coupling):
    """Certified bound >= measured || psi_p - psi_{p+2} || on a desk case."""
    coeffs = star_to_chain(flat_coupling, 1.0, 4)
    scaled = ChainCoefficients(coeffs.onsite, coeffs.hopping, 0.5, 1.0, 4)
    model = _qubit_model(jump=SIGMA_X)
    t_final = 2.0
    states = {}
    for cap in (1, 3):
        space = enumerate_basis(1, 2, 1, 4, cap)
        psi0 = _vacuum_start(space)
        traj = evolve(model, [scaled], space, psi0, t_final,
                      StepControl(out_step=0.5), keep_states=True)
        states[cap] = (space, traj.states[-1])
    small_space, small = states[1]
    big_space, big = states[3]
    embedded = np.zeros(big_space.dimension, dtype=complex)
    for idx in range(small_space.dimension):
        digits, blocks = small_space.index_to_labels(idx)
        embedded[big_space.labels_to_index(digits, blocks)] = small[idx]
    gap = float(np.linalg.norm(big - embedded))
    cert = truncation_certificate(1, t_final, [0.5])
    assert cert >= gap


# -- pipeline bounds ---------------------------------------------------------------

def test_cutoff_bound_zero_time(lorentzian_coupling):
    assert cutoff_error_bound([1.0], [lorentzian_coupling], 4.0, 0.0) == 0.0


def test_cutoff_bound_sqrt2_scaling(lorentzian_coupling):
    b1 = cutoff_error_bound([1.0], [lorentzian_coupling], 4.0, 1.0)
    b2 = cutoff_error_bound([1.0], [lorentzian_coupling], 8.0, 1.0)
    assert (b1 / b2) ** 2 == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_cutoff_bound_dominates_measured(lorentzian_coupling):
    """Certified cutoff bound >= trace distance between omega_c and 2 omega_c."""
    model = _qubit_model(hs=0.5 * SIGMA_Z, jump=SIGMA_X)
    t_final = 1.0
    rhos = {}
    for wc in (2.0, 4.0):
        coeffs = star_to_chain(lorentzian_coupling, wc, 10)
        space = enumerate_basis(1, 2, 1, 10, 2)
        psi0 = _vacuum_start(space)
        traj = evolve(model, [coeffs], space, psi0, t_final,
                      StepControl(out_step=0.25))
        rhos[wc] = traj.rho_s
    measured = max(trace_distance(a, b) for a, b in zip(rhos[2.0], rhos[4.0]))
    cert = cutoff_error_bound([1.0], [lorentzian_coupling], 2.0, t_final)
    assert cert >= measured


def test_chain_bound_trivial_zeros(flat_coupling):
    coeffs = star_to_chain(flat_coupling, 1.0, 6)
    assert chain_error_bound([1.0], [flat_coupling], [coeffs], 0.0) == 0.0
    assert chain_error_bound([0.0], [flat_coupling], [coeffs], 1.0) == 0.0


def test_chain_bound_flat_twenty_modes(flat_coupling):
    """Bound below 1e-3 at omega_c = 1, N_m = 20, t = 1 for unit strengths."""
    grid = np.linspace(-1, 1, 257)
    unit = ker.RegularizedCoupling.from_samples(grid, np.full(257, math.sqrt(0.5)))
    coeffs = star_to_chain(unit, 1.0, 20)
    assert coeffs.v_norm == pytest.approx(1.0, rel=1e-10)
    sampled = chain_error_bound([1.0], [unit], [coeffs], 1.0, n_sup=16)
    certified = chain_error_bound([1.0], [unit], [coeffs], 1.0,
                                  use_certificate=True)
    assert sampled < 1e-3
    assert certified < 1e-3


def test_chain_bound_dominates_measured(flat_coupling):
    """Certified chain bound >= trace distance between N_m and N_m + 8."""
    grid = np.linspace(-1, 1, 257)
    unit = ker.RegularizedCoupling.from_samples(grid, np.full(257, 0.5))
    model = _qubit_model(hs=0.5 * SIGMA_Z, jump=SIGMA_X)
    t_final = 2.0
    rhos = {}
    for modes in (4, 12):
        coeffs = star_to_chain(unit, 1.0, modes)
        space = enumerate_basis(1, 2, 1, modes, 2)
        psi0 = _vacuum_start(space)
        traj = evolve(model, [coeffs], space, psi0, t_final,
                      StepControl(out_step=0.25))
        rhos[modes] = traj.rho_s
    measured = max(trace_distance(a, b) for a, b in zip(rhos[4], rhos[12]))
    coeffs4 = star_to_chain(unit, 1.0, 4)
    cert = chain_error_bound([1.0], [unit], [coeffs4], t_final)
    assert cert >= measured


def test_regularization_bound_zero_jump(lorentzian_kernel):
    sc = StateConstants.vacuum(1)
    assert regularization_error_bound([0.0], [lorentzian_kernel], 0.05, 1.0,
                                      sc) == 0.0


def test_regularization_bound_eps_window(lorentzian_kernel):
    from nmk_sim.errors import EpsilonTooLarge

    sc = StateConstants.vacuum(1)
    with pytest.raises(EpsilonTooLarge):
        regularization_error_bound([1.0], [lorentzian_kernel], 0.5, 1.0, sc)


def test_regularization_bound_linear_in_eps(lorentzian_kernel):
    sc = StateConstants.vacuum(1)
    b1 = regularization_error_bound([1.0], [lorentzian_kernel], 0.05, 1.0, sc)
    b2 = regularization_error_bound([1.0], [lorentzian_kernel], 0.025, 1.0, sc)
    assert b1 / b2 == pytest.approx(2.0, rel=0.1)


def test_regularization_bound_delta_interior_linear():
    kernel = ker.MemoryKernel.delta_train([(1.0, 0.5)])
    sc = StateConstants.vacuum(1)
    b1 = regularization_error_bound([1.0], [kernel], 0.04, 2.0, sc)
    b2 = regularization_error_bound([1.0], [kernel], 0.02, 2.0, sc)
    assert b1 / b2 == pytest.approx(2.0, rel=0.1)


def test_state_constants_photon_counts(lorentzian_kernel):
    sc = StateConstants.from_photon_counts([lorentzian_kernel], [1.5], [2.5])
    assert sc.c_mu[0] > 0 and sc.c_reg[0] > 0
    # integral of mu_hat / (1 + w^2) for the unit lorentzian is pi/2
    assert sc.c_mu[0] == pytest.approx(math.sqrt(1.5 * math.pi / 2.0), rel=1e-3)


# -- assembled budget ---------------------------------------------------------------

def test_error_budget_total_and_validation():
    budget = ErrorBudget(0.1, 0.2, 0.3, 0.4, 0.0, parameters={"epsilon": 0.1})
    assert budget.total == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ErrorBudget(-0.1, 0.0, 0.0, 0.0, 0.0)


def test_assemble_error_budget(lorentzian_kernel, lorentzian_coupling):
    model = _qubit_model(hs=0.5 * SIGMA_Z, jump=SIGMA_X)
    coeffs = star_to_chain(lorentzian_coupling, 3.0, 6)
    space = enumerate_basis(1, 2, 1, 6, 2)
    budget = assemble_error_budget(model, [lorentzian_kernel],
                                   [lorentzian_coupling], [coeffs], space, 0.5)
    for name in ("regularization", "cutoff", "chain", "truncation",
                 "initialization"):
        assert getattr(budget, name) >= 0.0
    assert budget.total == pytest.approx(
        budget.regularization + budget.cutoff + budget.chain
        + budget.truncation + budget.initialization)
    assert budget.parameters["particle_cap"] == 2
