"""Time propagation on the truncated space and certified error budgets.

The budget items mirror the approximation pipeline: mollifier
regularization, frequency cutoff, chain truncation, and particle-number
truncation.  Squared-norm bounds are square-rooted before entering the
budget; the total is their plain sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh, expm
from scipy.sparse.linalg import expm_multiply

from .chain import chain_error_bound_value, chain_error_single
from .errors import EpsilonTooLarge, StepControlFailure, UnsupportedInitialState
from .fock import (
    SystemModel,
    TruncatedSpace,
    build_hamiltonian_parts,
)
from .kernels import error_functions, eval_spectral_density, total_variation

# A constant Hamiltonian is propagated by one dense `eigh`, at about
# 1e-9 dim^3 s whatever the time span, or by Krylov `expm_multiply` (Al-Mohy &
# Higham, SIAM J. Sci. Comput. 33, 488 (2011)), at about
# 2e-7 nnz (||H||_1 t + n_out) s: its step count follows ||H||_1 t and each
# output time costs a few more products.  Dense runs when
# dim^3 < KRYLOV_COST_RATIO nnz (||H||_1 t + n_out), and never above
# DENSE_EIG_DIM, which bounds its memory.  Measured with one BLAS thread on a
# 2-vCPU x86 KVM guest (desk chains, the delta-train chain and stars of
# configs/feedback-delay.json; out_step 0.05, 0.1 at t = 1), dense against
# Krylov, with ratio = dim^3 / (nnz (||H||_1 t + n_out)):
#
#    dim    nnz   ||H||_1   t    dense     Krylov   ratio
#     56    224     8.0     2    1.0 ms     19 ms     14
#    330   1770    12.3    20     60 ms    314 ms     31
#     90    378     8.0     2    3.2 ms     26 ms     34
#    330   1770    12.3    10     49 ms    157 ms     63
#    130    382    22.7     2    7.3 ms     40 ms     67   chain
#    462   2142     8.0    20    184 ms    167 ms     82
#    130    256    20.1     2    5.7 ms     30 ms    106   star
#    330   1770    12.3     5     41 ms     36 ms    125
#    462   2142     8.0    10    107 ms     89 ms    164
#    910   5278    12.3    20    965 ms    608 ms    221
#    168    840    12.3     1    8.0 ms    6.5 ms    242
#    306   1394     8.0     2     31 ms     25 ms    360
#    330   1770    12.3     1     40 ms    8.9 ms    871
#    514   1024    36.6     2    153 ms     41 ms   1162   star
#   1026   2048    51.7     2   1036 ms     86 ms   3652   star
#
# Below a ratio of about 80, Krylov's fixed cost of norm estimation and
# per-output products dominates; above about 250 one eigh costs more than the
# whole Krylov run.  In between, the two come within a factor of 1.6 of
# each other and can swap order from run to run (dim 462 at t = 20 took
# 178 ms dense against 240 ms Krylov in a second run); the split at 150 sits
# in that band.
DENSE_EIG_DIM = 1400
KRYLOV_COST_RATIO = 150.0
# A driven step pays for its dense exponentials every step, not once, so dense
# `expm` beats Krylov `expm_multiply` only on small spaces: one CF4 step at
# dim 30 takes 0.3 ms dense against 1.9 ms Krylov, at dim 72 1.7 ms against
# 2.4 ms, at dim 90 3.0 ms against 1.9 ms and at dim 702 710 ms against
# 2.7 ms (one BLAS thread, 2-vCPU x86 KVM guest).
DENSE_EXPM_DIM = 80

# Fourth-order commutator-free scheme (Alvermann & Fehske, JCP 230, 5930
# (2011)): Gauss nodes c1, c2 and the weights of H(t + c dt) in its two
# exponentials.
_CF4_C1 = 0.5 - math.sqrt(3.0) / 6.0
_CF4_C2 = 0.5 + math.sqrt(3.0) / 6.0
_CF4_A1 = 0.25 + math.sqrt(3.0) / 6.0
_CF4_A2 = 0.25 - math.sqrt(3.0) / 6.0


@dataclass(frozen=True)
class StepControl:
    """Output grid step and local-error tolerance for the propagator."""

    out_step: float = 0.05
    tol: float = 1e-9
    max_halvings: int = 18


@dataclass
class Trajectory:
    """Output time grid with reduced states, moments, and norm diagnostics."""

    times: np.ndarray
    rho_s: np.ndarray          # (T, ds, ds)
    mu1: np.ndarray            # (T, M)
    mu2: np.ndarray            # (T, M)
    norms: np.ndarray          # (T,)
    states: list | None = None
    oracle: bool = False

    def validate(self, tol: float = 1e-8):
        drift = self.norm_drift
        if drift > tol:
            raise StepControlFailure(f"norm drift {drift:.2e} exceeds {tol:.0e}")
        for rho in self.rho_s:
            herm = np.max(np.abs(rho - rho.conj().T))
            if herm > 1e-10:
                raise StepControlFailure(
                    f"reduced state not Hermitian: {herm:.2e}")
            tr = abs(np.trace(rho).real - self.norms[0] ** 2)
            if tr > tol:
                raise StepControlFailure(f"reduced state trace drift {tr:.2e}")
            evs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
            if float(np.min(evs)) < -tol:
                raise StepControlFailure(
                    f"reduced state not PSD: {np.min(evs):.2e}")
        return self

    @property
    def norm_drift(self):
        return float(np.max(np.abs(self.norms - self.norms[0])))

    def rho_ee(self):
        """Population of basis state 0 of the system along the grid."""
        return self.rho_s[:, 0, 0].real


def _reduced_density(space: TruncatedSpace, psi):
    mat = psi.reshape(space.sys_dim, space.env_dim)
    return mat @ mat.conj().T


def measure_moments(space: TruncatedSpace, psi):
    """Per-bath (mu1, mu2): first two moments of the occupation number."""
    prob = np.abs(np.asarray(psi)) ** 2
    mu1 = np.empty(space.baths)
    mu2 = np.empty(space.baths)
    for alpha in range(space.baths):
        s = space.bath_occupancy_sums(alpha)
        mu1[alpha] = float(prob @ s)
        mu2[alpha] = float(prob @ (s.astype(float) ** 2))
    return mu1, mu2


def _expm_apply(a, psi):
    """exp(a) psi: dense `expm` for arrays, Krylov for sparse matrices."""
    if isinstance(a, np.ndarray):
        return expm(a) @ psi
    return expm_multiply(a, psi)


def _cf4_step(h_of_t, t, dt, psi):
    """Fourth-order commutator-free exponential step."""
    h1 = h_of_t(t + _CF4_C1 * dt)
    h2 = h_of_t(t + _CF4_C2 * dt)
    psi = _expm_apply(-1j * dt * (_CF4_A2 * h1 + _CF4_A1 * h2), psi)
    psi = _expm_apply(-1j * dt * (_CF4_A1 * h1 + _CF4_A2 * h2), psi)
    return psi


def evolve(model: SystemModel, chains, space: TruncatedSpace, psi0,
           t_final: float, dt_control: StepControl | None = None,
           keep_states: bool = False) -> Trajectory:
    """Propagate psi0 under the dilated Hamiltonian and record the trajectory.

    Time-independent Hamiltonians use one dense eigendecomposition or Krylov
    `expm_multiply` over the whole output grid, whichever costs less by
    estimate: dense costs dim^3, Krylov `KRYLOV_COST_RATIO` times
    nnz (||H||_1 t_final + output count), and dense never runs above
    `DENSE_EIG_DIM`.  Time-dependent ones use a
    commutator-free fourth-order scheme with step halving until the
    Richardson estimate meets the tolerance.  At or below
    `DENSE_EXPM_DIM` a driven Hamiltonian is converted to dense arrays once
    and each step takes dense `expm` exponentials; above it the steps stay
    sparse and use Krylov `expm_multiply`.
    """
    ctl = dt_control or StepControl()
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (space.dimension,):
        raise ValueError("initial state has wrong dimension")
    n_out = max(int(round(t_final / ctl.out_step)), 1)
    times = np.linspace(0.0, n_out * ctl.out_step, n_out + 1)
    if abs(times[-1] - t_final) > 1e-12:
        times = np.linspace(0.0, t_final, n_out + 1)

    h_const, profiled = build_hamiltonian_parts(model, chains, space)
    if not profiled:
        states = _propagate_const(h_const, psi0, times)
    else:
        if psi0.size <= DENSE_EXPM_DIM:
            h_const = h_const.toarray()
            profiled = [(term.toarray(), profile) for term, profile in profiled]

        def h_of_t(t):
            h = h_const
            for term, profile in profiled:
                h = h + profile(t) * term
            return h

        states = _propagate_cf4(h_of_t, psi0, times, ctl)

    return _collect(space, times, states, keep_states, oracle=False)


def _propagate_const(h, psi0, times):
    dim = psi0.size
    if dim <= DENSE_EIG_DIM:
        # exact sparse 1-norm: the quantity expm_multiply's step count follows
        norm1 = float(abs(h).sum(axis=0).max())
        krylov_cost = h.nnz * (norm1 * (times[-1] - times[0]) + len(times))
        if dim**3 < KRYLOV_COST_RATIO * krylov_cost:
            vals, vecs = eigh(h.toarray())
            coeff = vecs.conj().T @ psi0
            return [vecs @ (np.exp(-1j * vals * t) * coeff) for t in times]
    out = expm_multiply(-1j * h.tocsc(), psi0, start=times[0], stop=times[-1],
                        num=len(times), endpoint=True)
    return list(out)


def _propagate_cf4(h_of_t, psi0, times, ctl):
    states = [psi0]
    psi = psi0
    for t0, t1 in zip(times[:-1], times[1:]):
        n_sub = 4
        prev = None
        for _ in range(ctl.max_halvings):
            cur = psi
            dt = (t1 - t0) / n_sub
            for k in range(n_sub):
                cur = _cf4_step(h_of_t, t0 + k * dt, dt, cur)
            # a unitary step drifts in norm only by rounding, far below tol;
            # Trajectory.validate checks the drift of the whole trajectory
            if (prev is not None
                    and float(np.linalg.norm(cur - prev)) / 15.0 < ctl.tol):
                break
            prev = cur
            n_sub *= 2
        else:
            raise StepControlFailure(
                f"CF4 controller failed on [{t0}, {t1}] at {n_sub} substeps"
            )
        psi = cur
        states.append(psi)
    return states


def _collect(space, times, states, keep_states, oracle):
    n = len(times)
    rho = np.empty((n, space.sys_dim, space.sys_dim), dtype=complex)
    mu1 = np.empty((n, space.baths))
    mu2 = np.empty((n, space.baths))
    norms = np.empty(n)
    for i, psi in enumerate(states):
        rho[i] = _reduced_density(space, psi)
        mu1[i], mu2[i] = measure_moments(space, psi)
        norms[i] = float(np.linalg.norm(psi))
    return Trajectory(np.asarray(times), rho, mu1, mu2, norms,
                      states=list(states) if keep_states else None,
                      oracle=oracle)


def trace_distance(rho, sigma) -> float:
    """(1/2) ||rho - sigma||_1."""
    diff = rho - sigma
    evs = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return 0.5 * float(np.sum(np.abs(evs)))


# -- particle-number moments and certificates --------------------------------

def moment_bound(ell: float, t: float, initial_moments, k_max: int,
                 norm_sq: float = 1.0):
    """A-priori bounds M^(k)(t) on the occupation moments, k = 0..k_max.

    Recursion: M^(0) = ||Phi||^2 and
    M^(k) = 2 mu^(k)(0) + 2^(2k-3) ell^2 t^2 (||Phi||^2 + M^(k-1))^2.
    """
    if ell < 0 or t < 0:
        raise ValueError("ell and t must be nonnegative")
    mu0 = list(initial_moments)
    if len(mu0) < k_max:
        raise ValueError("need initial moments up to k_max")
    out = [norm_sq]
    for k in range(1, k_max + 1):
        prev = out[-1]
        out.append(2.0 * mu0[k - 1]
                   + 2.0 ** (2 * k - 3) * ell**2 * t**2 * (norm_sq + prev) ** 2)
    return out


def apriori_mu1(g: float, t, mu1_0: float = 0.0):
    """Integrated moment ODE bound mu1(t) <= (sqrt(mu1(0)) + g t)^2."""
    t = np.asarray(t, dtype=float)
    return (math.sqrt(mu1_0) + g * t) ** 2


def apriori_mu2(g: float, t, mu1_0: float = 0.0, mu2_0: float = 0.0):
    """Bound on mu2(t) from the integrated second-moment ODE.

    Uses sqrt(mu2) - sqrt(sqrt(mu2)/2)... relaxed via log(1+x) <= sqrt(x):
    with u = mu2(t)^(1/4), u^2 - u / sqrt(2) <= R(t), solved exactly.
    """
    t = np.asarray(t, dtype=float)
    r = math.sqrt(mu2_0) + 2.0 * g * (math.sqrt(mu1_0) * t + 0.5 * g * t**2)
    u = (1.0 / math.sqrt(2.0) + np.sqrt(0.5 + 4.0 * r)) / 2.0
    return u**4


def truncation_certificate(p: int, t: float, couplings_strength,
                           moments: str = "apriori",
                           trajectory: Trajectory | None = None,
                           mu1_0=None, mu2_0=None, n_grid: int = 257) -> float:
    """Certified bound on || psi(t) - U_P(t,0) P psi0 || for per-bath cap p.

    cert = sqrt(sum_a mu1_a(t) / p)
         + int_0^t sum_a g_a sqrt(mu2_a(s) sum_b mu1_b(s) / p) ds

    with g_a = ||v_a|| ||L_a||.  Moment curves come either from the a-priori
    ODE bounds (default) or from a measured trajectory.
    """
    g = np.asarray(couplings_strength, dtype=float)
    m = g.size
    if moments == "measured":
        if trajectory is None:
            raise ValueError("measured moments need a trajectory")
        ts = trajectory.times
        sel = ts <= t + 1e-12
        ts = ts[sel]
        mu1 = trajectory.mu1[sel]
        mu2 = trajectory.mu2[sel]
    elif moments == "apriori":
        ts = np.linspace(0.0, t, n_grid)
        mu1_0 = np.zeros(m) if mu1_0 is None else np.asarray(mu1_0, float)
        mu2_0 = np.zeros(m) if mu2_0 is None else np.asarray(mu2_0, float)
        mu1 = np.stack([apriori_mu1(g[a], ts, mu1_0[a]) for a in range(m)], axis=1)
        mu2 = np.stack([apriori_mu2(g[a], ts, mu1_0[a], mu2_0[a]) for a in range(m)],
                       axis=1)
    else:
        raise ValueError("moments must be 'apriori' or 'measured'")

    mu1_tot = mu1.sum(axis=1)
    leak = math.sqrt(mu1_tot[-1] / p)
    integrand = np.zeros(len(ts))
    for a in range(m):
        integrand += g[a] * np.sqrt(mu2[:, a] * mu1_tot / p)
    return leak + float(np.trapezoid(integrand, ts))


# -- pipeline error bounds ----------------------------------------------------

def cutoff_error_bound(jump_norms, couplings, omega_c: float, t: float,
                       mu1_0: float = 0.0) -> float:
    """Norm-distance bound for the sharp frequency cutoff.

    Squared bound: (2/sqrt(omega_c)) sum_a ||L_a|| ||w vhat_a||_inf
    (||L_a|| ||v_a|| t^2 + 2 mu1(0) t); the square root is returned.
    """
    total = 0.0
    for l_norm, coupling in zip(jump_norms, couplings):
        total += l_norm * coupling.sup_omega_vhat * (
            l_norm * coupling.l2_norm * t**2 + 2.0 * mu1_0 * t)
    return math.sqrt(max(2.0 / math.sqrt(omega_c) * total, 0.0))


def chain_error_bound(jump_norms, couplings, chains, t: float,
                      mu1_0: float = 0.0, n_sup: int = 64,
                      use_certificate: bool = False) -> float:
    """Norm-distance bound between cutoff dynamics and its chain group.

    ||psi_tau - psi_nu|| <= 2 t (1 + 2 mu1 + 2 t^2 (sum ||L|| ||v||)^2)^(1/2)
    * sum_a ||L_a|| sup_s ||nu_s v_a - tau_s v_a||.

    The sup over s is sampled on `n_sup` equispaced times and inflated by 10%
    (trend monotonicity is asserted separately); with ``use_certificate`` the
    a-priori single-particle bound replaces the sampled sup.
    """
    if t == 0.0:
        return 0.0
    gsum = sum(l * c.v_norm for l, c in zip(jump_norms, chains))
    prefactor = 2.0 * t * math.sqrt(1.0 + 2.0 * mu1_0 + 2.0 * t**2 * gsum**2)
    total = 0.0
    for l_norm, coupling, coeffs in zip(jump_norms, couplings, chains):
        if l_norm == 0.0:
            continue
        if use_certificate:
            half_sq = chain_error_bound_value(coeffs.v_norm**2, coeffs.omega_c,
                                              coeffs.modes, t)
            sup = math.sqrt(2.0 * half_sq) if math.isfinite(half_sq) else math.inf
        else:
            svals = np.linspace(0.0, t, n_sup)
            worst = float(np.max(chain_error_single(coeffs, coupling, svals)[0]))
            sup = 1.1 * math.sqrt(2.0 * worst)
        total += l_norm * sup
    return prefactor * total


@dataclass(frozen=True)
class StateConstants:
    """Initial-state regularity constants entering the regularization bound.

    ``c_mu[alpha]`` bounds ||a^-_{tau_t v_eps} Psi0|| uniformly in eps and t;
    ``c_reg[alpha]`` is the slope of the regularization difference in eps.
    Vacuum states have both identically zero.
    """

    c_mu: np.ndarray
    c_reg: np.ndarray

    @classmethod
    def vacuum(cls, baths: int):
        return cls(np.zeros(baths), np.zeros(baths))

    @classmethod
    def from_photon_counts(cls, kernels, n1_k1, n1_k2, k: int = 0,
                           omega_span: float = 400.0):
        """Constants for states with known N_{1,k+1}, N_{1,k+2} bounds.

        c_mu = sqrt(N_{1,k+1}) ||(1+w^2)^-(k+1) mu_hat||_1^(1/2) and the same
        integral enters c_reg with N_{1,k+2}.
        """
        c_mu, c_reg = [], []
        w = np.linspace(-omega_span, omega_span, 200001)
        for kernel, n1, n2 in zip(kernels, n1_k1, n1_k2):
            mu = np.asarray(eval_spectral_density(kernel, w))
            integral = float(np.trapezoid(mu / (1.0 + w**2) ** (k + 1), w))
            c_mu.append(math.sqrt(n1 * integral))
            c_reg.append(math.sqrt(n2 * integral))
        return cls(np.array(c_mu), np.array(c_reg))


def regularization_error_bound(jump_norms, kernels, eps: float, t: float,
                               state_constants: StateConstants,
                               hs_commutator_sups=None,
                               n_grid: int = 257) -> float:
    """Squared-norm bound on the mollifier-regularization error at time t.

    Assembles int_0^t (E_a(tau) + D_a(tau)) dtau where E is the smaller of
    the total-variation form 4 ||L||^2 TV_[-1, tau+1] and the error-function
    form built from (Delta0, Delta1) on [0, tau] at eps and 2 eps; D is the
    initial-state term 4 ||L|| c_reg eps.  The one-sided limit of the
    comparison regularization is taken (its error functions vanish).
    Requires eps < 1/2 so the doubled mollifier support stays inside the
    [-1, t+1] total-variation window.
    """
    if not 0.0 < eps < 0.5:
        raise EpsilonTooLarge("regularization scale must lie in (0, 1/2)")
    jump_norms = np.asarray(jump_norms, dtype=float)
    m = jump_norms.size
    if state_constants.c_mu.shape != (m,):
        raise UnsupportedInitialState("state constants must match bath count")
    if hs_commutator_sups is None:
        hs_commutator_sups = np.zeros(m)
    taus = np.linspace(0.0, t, n_grid)

    tv = np.array([[total_variation(kern, (-1.0, tau + 1.0)) for kern in kernels]
                   for tau in taus])
    total = 0.0
    for a in range(m):
        l = jump_norms[a]
        if l == 0.0:
            continue
        e_vals = np.empty(len(taus))
        for i, tau in enumerate(taus):
            e_tv = 4.0 * l**2 * tv[i, a]
            e_best = e_tv
            if tau > 4.0 * eps:
                d0a, d1a = error_functions(kernels[a], (0.0, tau), eps)
                d0b, d1b = error_functions(kernels[a], (0.0, tau), 2.0 * eps)
                c_tau = (l * hs_commutator_sups[a]
                         + 4.0 * l**2 * float(jump_norms @ state_constants.c_mu)
                         + 6.0 * l**2 * float(jump_norms**2 @ tv[i]))
                e_delta = (2.0 * (2.0 * d1a + d1b) * c_tau
                           + 2.0 * (2.0 * d0a + d0b) * l**2)
                e_best = min(e_tv, e_delta)
            e_vals[i] = e_best + 4.0 * l * state_constants.c_reg[a] * eps
        total += float(np.trapezoid(e_vals, taus))
    return total


# -- the assembled budget ------------------------------------------------------

@dataclass(frozen=True)
class ErrorBudget:
    """Itemized certified bounds; total is the plain sum of the terms."""

    regularization: float
    cutoff: float
    chain: float
    truncation: float
    initialization: float
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("regularization", "cutoff", "chain", "truncation",
                     "initialization"):
            if getattr(self, name) < 0:
                raise ValueError(f"budget term {name} must be nonnegative")

    @property
    def total(self):
        return (self.regularization + self.cutoff + self.chain
                + self.truncation + self.initialization)

    def to_json_dict(self):
        doc = {name: float(getattr(self, name))
               for name in ("regularization", "cutoff", "chain", "truncation",
                            "initialization")}
        doc["total"] = float(self.total)
        doc["parameters"] = dict(self.parameters)
        return doc


def hs_commutator_sup(model: SystemModel, bath: int, t: float,
                      n_samples: int = 64) -> float:
    """sup_s ||[H_S(s), L_bath]|| over [0, t], sampled."""
    l_mat = model.jump_matrix(bath)
    worst = 0.0
    for s in np.linspace(0.0, t, n_samples):
        hs = model.hs_matrix(s)
        worst = max(worst, float(np.linalg.norm(hs @ l_mat - l_mat @ hs, 2)))
    return worst


def assemble_error_budget(model: SystemModel, kernels, couplings, chains,
                          space: TruncatedSpace, t: float,
                          state_constants: StateConstants | None = None,
                          mu1_0: float = 0.0,
                          initialization: float = 0.0) -> ErrorBudget:
    """Evaluate all four pipeline bounds at the configured parameters."""
    m = space.baths
    jump_norms = [model.jump_norm(a) for a in range(m)]
    consts = state_constants or StateConstants.vacuum(m)
    comms = [hs_commutator_sup(model, a, t) for a in range(m)]
    reg_sq = regularization_error_bound(jump_norms, kernels,
                                        couplings[0].epsilon, t, consts,
                                        hs_commutator_sups=comms)
    omega_c = chains[0].omega_c
    cut = cutoff_error_bound(jump_norms, couplings, omega_c, t, mu1_0)
    chn = chain_error_bound(jump_norms, couplings, chains, t, mu1_0)
    strengths = [jump_norms[a] * chains[a].v_norm for a in range(m)]
    trunc = truncation_certificate(space.cap, t, strengths, mu1_0=[mu1_0] * m)
    params = {"epsilon": couplings[0].epsilon, "omega_c": omega_c,
              "modes": space.modes, "particle_cap": space.cap, "t": t}
    return ErrorBudget(math.sqrt(reg_sq), cut, chn, trunc, initialization,
                       parameters=params)
