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
import scipy.sparse as sp

from .chain import chain_error_bound_value, chain_error_single
from .errors import (
    EpsilonTooLarge,
    StepControlFailure,
    UnsupportedInitialState,
)
from .fock import (
    SystemModel,
    TruncatedSpace,
    build_hamiltonian_parts,
    embed_system_operator,
)
from .kernels import (
    error_functions,
    total_variation,
    weighted_density_integral,
)

# Every run propagates by Taylor series on the vector (`PartStack`), keeping
# its Hamiltonian parts dense at or below DENSE_EXPM_DIM and on one shared
# CSR pattern above it.  One CF4 step (two Taylor exponentials of degree 5 at
# dt = 0.2 / 512, driven desk qubit) takes, dense against CSR, best of
# 15 x 200 steps with one BLAS thread on a 2-vCPU x86 KVM guest:
#
#    dim    nnz    dense      CSR
#     30     98    33 us     50 us
#     56    208    48 us     53 us
#     72    278    65 us     55 us
#     90    358    76 us     57 us
#    330   1678  1040 us    110 us
#
# A dense product pays dim^2 per matrix-vector product, CSR a fixed call cost
# of a few microseconds; they cross between 56 and 72.
DENSE_EXPM_DIM = 64
# `PartStack.expm_apply` splits exp(A) into ceil(theta / TAYLOR_PIECE_NORM)
# pieces for the norm bound theta.  Pieces of norm up to 4 need degree 33,
# about 8 matrix-vector products per unit of norm against about 18 for
# pieces of norm 1 (degree 18), and no Taylor term of a piece exceeds
# e^4 ~ 55 times its input, so rounding stays near 1e-15.
TAYLOR_PIECE_NORM = 4.0
# Largest norm-time product theta_run = (t_final - t_0) sum_k ||P_k||_1 a run
# may have; every profile is at most 1 in size, so theta_run bounds the total
# exponent norm.  A constant run costs about 8 theta_run matrix-vector
# products and a driven one far more, so a run above the limit would take
# minutes to hours; the shipped configs and benchmark workloads reach at most
# 165 (feedback-delay certify), 400 times below it.
NORM_TIME_LIMIT = 2.0**16
# CF4 local-error tolerance per output interval, and the halvings of its
# substep (from 4) allowed before the controller fails.
CF4_TOL = 1e-9
CF4_MAX_HALVINGS = 18
VALIDATE_TOL = 1e-8       # see `Trajectory.validate`
# Points of the [0, t] grid on which the truncation and regularization bounds
# integrate their a-priori curves.
BOUND_GRID = 257

# Fourth-order commutator-free scheme (Alvermann & Fehske, JCP 230, 5930
# (2011)): Gauss nodes c1, c2, and in row e the weights of H(t + c1 dt) and
# H(t + c2 dt) in its exponential e.
_CF4_C1 = 0.5 - math.sqrt(3.0) / 6.0
_CF4_C2 = 0.5 + math.sqrt(3.0) / 6.0
_CF4_WEIGHTS = 0.25 + math.sqrt(3.0) / 6.0 * np.array([[-1.0, 1.0],
                                                       [1.0, -1.0]])


@dataclass
class Trajectory:
    """Output time grid with reduced states, moments, and norm diagnostics."""

    times: np.ndarray
    rho_s: np.ndarray          # (T, ds, ds)
    mu1: np.ndarray            # (T, M)
    mu2: np.ndarray            # (T, M)
    norms: np.ndarray          # (T,)
    states: np.ndarray | None = None     # (T, dim)
    oracle: bool = False

    def validate(self):
        """Raise `StepControlFailure` unless all values are finite and norm
        drift, trace drift and negative eigenvalues stay within VALIDATE_TOL."""
        # every check below reads `x > tol`, which NaN passes
        if not all(np.isfinite(a).all()
                   for a in (self.rho_s, self.mu1, self.mu2, self.norms)):
            raise StepControlFailure("trajectory holds non-finite values")
        drift = self.norm_drift
        if drift > VALIDATE_TOL:
            raise StepControlFailure(
                f"norm drift {drift:.2e} exceeds {VALIDATE_TOL:.0e}")
        rho = self.rho_s
        rho_h = rho.conj().swapaxes(-1, -2)
        herm = float(np.max(np.abs(rho - rho_h)))
        if herm > 1e-10:
            raise StepControlFailure(f"reduced state not Hermitian: {herm:.2e}")
        tr = float(np.max(np.abs(np.trace(rho, axis1=1, axis2=2).real
                                 - self.norms[0] ** 2)))
        if tr > VALIDATE_TOL:
            raise StepControlFailure(f"reduced state trace drift {tr:.2e}")
        low = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho_h))))
        if low < -VALIDATE_TOL:
            raise StepControlFailure(f"reduced state not PSD: {low:.2e}")
        return self

    @property
    def norm_drift(self):
        return float(np.max(np.abs(self.norms - self.norms[0])))

    def rho_ee(self):
        """Population of basis state 0 of the system along the grid."""
        return self.rho_s[:, 0, 0].real


def measure_moments(space: TruncatedSpace, psi):
    """Per-bath (mu1, mu2): first two moments of the occupation number, of
    shape (M,) for one state (dim,) or (..., M) for a stack (..., dim).

    Each bath's marginal of |psi|^2 viewed as (sys_dim, B, ..., B) is dotted
    with the occupation sums of the B block states.
    """
    psi = np.asarray(psi)
    prob = np.abs(psi.reshape((-1, space.sys_dim)
                              + (space.block_size,) * space.baths)) ** 2
    occupation = space.table.sum(axis=1).astype(float)
    marginals = [prob.sum(axis=tuple(ax for ax in range(1, prob.ndim)
                                     if ax != 2 + a))
                 for a in range(space.baths)]
    mu1 = np.stack([m @ occupation for m in marginals], axis=-1)
    mu2 = np.stack([m @ occupation**2 for m in marginals], axis=-1)
    shape = psi.shape[:-1] + (space.baths,)
    return mu1.reshape(shape), mu2.reshape(shape)


class PartStack:
    """Hamiltonian parts P_0, P_1, ... on one storage layout, for the
    exponentials exp(sum_k w_k P_k) psi of a run.

    At or below `DENSE_EXPM_DIM` each part is a dense (dim, dim) array; above
    it every part is stored on one CSR pattern, the union of their patterns,
    with one data row per part.  Either way the stack is (parts, n), and an
    exponent is one `weights @ stack` product written into the buffer behind
    the operator.  Every part must be Hermitian: `SystemModel` rejects
    non-Hermitian system terms and the bath part is Hermitian by
    construction, so each part's 1-norm, taken once here, bounds its 2-norm.
    """

    def __init__(self, parts, dense: bool):
        dim = parts[0].shape[0]
        self.norms = np.array([float(abs(p).sum(axis=0).max()) for p in parts])
        if dense:
            self._stack = np.stack([p.toarray().ravel() for p in parts])
            self._op = np.empty((dim, dim), dtype=complex)
            self._buf = self._op.reshape(-1)
            return
        coos = [p.tocoo() for p in parts]
        for c in coos:
            c.sum_duplicates()
        keys = [c.row.astype(np.int64) * dim + c.col for c in coos]
        union = np.unique(np.concatenate(keys))
        self._stack = np.zeros((len(parts), union.size), dtype=complex)
        for row, key, c in zip(self._stack, keys, coos):
            row[np.searchsorted(union, key)] = c.data
        indptr = np.searchsorted(union // dim, np.arange(dim + 1))
        self._op = sp.csr_matrix(
            (np.empty(union.size, dtype=complex), union % dim, indptr),
            shape=(dim, dim))
        self._buf = self._op.data

    def expm_apply(self, weights, psi):
        """exp(A) psi for A = sum_k weights[k] P_k, by a Taylor series on the
        vector.

        theta = sum_k |w_k| ||P_k||_1 bounds ||A||_2.  The exponential is split
        into s = ceil(theta / TAYLOR_PIECE_NORM) pieces exp(A / s), each summed
        to the smallest degree m with (theta/s)^(m+1) e^(theta/s) / (m+1)!
        <= 2^-53, which bounds the truncated tail relative to the piece's
        input.  A zero exponent returns psi itself; a non-finite theta raises
        `StepControlFailure`.
        """
        theta = float(np.abs(weights) @ self.norms)
        if not math.isfinite(theta):
            raise StepControlFailure(f"exponent norm bound is {theta}")
        if theta == 0.0:
            return psi
        np.dot(weights, self._stack, out=self._buf)
        pieces = math.ceil(theta / TAYLOR_PIECE_NORM)
        x = theta / pieces
        degree, tail = 0, x * math.exp(x)
        while tail > 2.0**-53:
            degree += 1
            tail *= x / (degree + 1)
        for _ in range(pieces):
            term = psi
            for j in range(1, degree + 1):
                term = self._op @ term
                term *= 1.0 / (pieces * j)
                psi = psi + term
        return psi

    def check_norm_time(self, times):
        """Raise `StepControlFailure` when the run over `times` has a
        norm-time product (t_final - t_0) sum_k ||P_k||_1 above
        `NORM_TIME_LIMIT`."""
        theta_run = float((times[-1] - times[0]) * self.norms.sum())
        if not theta_run <= NORM_TIME_LIMIT:
            raise StepControlFailure(
                f"norm-time product (t_final - t_0) * sum_k ||P_k||_1 = "
                f"{theta_run:.3g} exceeds the limit {NORM_TIME_LIMIT:.0f}")


def _cf4_step(stack, profiles, t, dt, psi):
    """Fourth-order commutator-free exponential step.  Row e of
    `_CF4_WEIGHTS` mixes H at the two Gauss nodes into exponential e; the
    constant part has profile 1."""
    values = np.array([[1.0] + [f(t + c * dt) for f in profiles]
                       for c in (_CF4_C1, _CF4_C2)])
    for weights in (-1j * dt) * (_CF4_WEIGHTS @ values):
        psi = stack.expm_apply(weights, psi)
    return psi


def output_count(t_final: float, out_step: float) -> int:
    """len(output_times(t_final, out_step)), without building the grid; an
    infinite ratio counts as 2^62 steps."""
    return max(round(min(t_final / out_step, 2.0**62)), 1) + 1


def output_times(t_final: float, out_step: float) -> np.ndarray:
    """round(t_final / out_step) >= 1 equal steps from 0 to t_final; chain
    and star runs both record on this grid."""
    return np.linspace(0.0, t_final, output_count(t_final, out_step))


def evolve(model: SystemModel, chains, space: TruncatedSpace, psi0,
           t_final: float, out_step: float = 0.05,
           keep_states: bool = False) -> Trajectory:
    """Propagate psi0 under the dilated Hamiltonian and record the trajectory.

    Every exponential is a Taylor series on the vector
    (`PartStack.expm_apply`), with the parts stored dense at or below
    `DENSE_EXPM_DIM` and on one CSR pattern above it.  A time-independent
    Hamiltonian takes one exponential per output interval; a time-dependent
    one a commutator-free fourth-order scheme with step halving until the
    Richardson estimate meets `CF4_TOL`.  Either run fails with
    `StepControlFailure` before its first step when its norm-time product
    exceeds `NORM_TIME_LIMIT`.  States are recorded on
    `output_times(t_final, out_step)`, the grid the star oracle also uses.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (space.dimension,):
        raise ValueError("initial state has wrong dimension")
    times = output_times(t_final, out_step)

    h_const, profiled = build_hamiltonian_parts(model, chains, space)
    if not profiled:
        states = _propagate_const(h_const, psi0, times)
    else:
        stack = PartStack([h_const] + [term for term, _ in profiled],
                          dense=psi0.size <= DENSE_EXPM_DIM)
        states = _propagate_cf4(stack, [f for _, f in profiled], psi0, times)

    return _collect(space, times, states, keep_states, oracle=False)


def _propagate_const(h, psi0, times):
    """States exp(-i h t) psi0 at `times`, one row each: (T, dim); one
    exponential per output interval."""
    stack = PartStack([h], dense=psi0.size <= DENSE_EXPM_DIM)
    stack.check_norm_time(times)
    states = np.empty((len(times), psi0.size), dtype=complex)
    states[0] = psi = psi0
    for i, dt in enumerate(np.diff(times)):
        states[i + 1] = psi = stack.expm_apply(np.array([-1j * dt]), psi)
    return states


def _propagate_cf4(stack, profiles, psi0, times):
    """CF4 states at `times`, one row each: (T, dim).

    Each output interval starts at half the substep count the previous one
    accepted (at least 4), so a steady run computes one discarded level per
    interval; the finest level allowed is 4 * 2^(CF4_MAX_HALVINGS - 1).
    """
    stack.check_norm_time(times)
    states = np.empty((len(times), psi0.size), dtype=complex)
    states[0] = psi = psi0
    n_max = 4 << (CF4_MAX_HALVINGS - 1)
    accepted = 4
    for i, (t0, t1) in enumerate(zip(times[:-1], times[1:])):
        n_sub = max(4, accepted // 2)
        prev = None
        while True:
            cur = psi
            dt = (t1 - t0) / n_sub
            for k in range(n_sub):
                cur = _cf4_step(stack, profiles, t0 + k * dt, dt, cur)
            # a unitary step drifts in norm only by rounding, far below tol;
            # Trajectory.validate checks the drift of the whole trajectory
            if (prev is not None
                    and float(np.linalg.norm(cur - prev)) / 15.0 < CF4_TOL):
                break
            if n_sub >= n_max:
                raise StepControlFailure(
                    f"CF4 controller failed on [{t0}, {t1}] at {n_sub} "
                    "substeps")
            prev = cur
            n_sub *= 2
        states[i + 1] = psi = cur
        accepted = n_sub
    return states


def _collect(space, times, states, keep_states, oracle):
    """Trajectory of the (T, dim) states: reduced states by one batched
    product over their (T, sys_dim, env_dim) view, moments and norms."""
    states = np.asarray(states)
    mat = states.reshape(len(times), space.sys_dim, space.env_dim)
    rho = mat @ mat.conj().swapaxes(1, 2)
    mu1, mu2 = measure_moments(space, states)
    return Trajectory(np.asarray(times), rho, mu1, mu2,
                      np.linalg.norm(states, axis=1),
                      states=states if keep_states else None, oracle=oracle)


def trace_distance(rho, sigma):
    """(1/2) ||rho - sigma||_1: a float for one pair of (ds, ds) states, an
    array for stacks (..., ds, ds)."""
    diff = np.asarray(rho) - np.asarray(sigma)
    evs = np.linalg.eigvalsh(0.5 * (diff + diff.conj().swapaxes(-1, -2)))
    dist = 0.5 * np.sum(np.abs(evs), axis=-1)
    return float(dist) if dist.ndim == 0 else dist


# -- particle-number moments and certificates --------------------------------

def apriori_mu1(g: float, t, mu1_0: float = 0.0):
    """Integrated moment ODE bound mu1(t) <= (sqrt(mu1(0)) + g t)^2."""
    t = np.asarray(t, dtype=float)
    return (math.sqrt(mu1_0) + g * t) ** 2


def apriori_mu2(g: float, t, mu1_0: float = 0.0, mu2_0: float = 0.0):
    """Integrated moment ODE bound on mu2(t).

    With u = mu2(t)^(1/4), the second-moment ODE integrates (after relaxing
    log(1 + x) <= sqrt(x)) to u^2 - u / sqrt(2) <= R(t), where
    R(t) = sqrt(mu2(0)) + 2 g (sqrt(mu1(0)) t + g t^2 / 2).  The bound is the
    fourth power of the larger root of u^2 - u / sqrt(2) = R(t).
    """
    t = np.asarray(t, dtype=float)
    r = math.sqrt(mu2_0) + 2.0 * g * (math.sqrt(mu1_0) * t + 0.5 * g * t**2)
    u = (1.0 / math.sqrt(2.0) + np.sqrt(0.5 + 4.0 * r)) / 2.0
    return u**4


def truncation_certificate(p: int, t: float, couplings_strength,
                           mu1_0=None, mu2_0=None) -> float:
    """Certified bound on || psi(t) - U_P(t,0) P psi0 || for per-bath cap p.

    cert = sqrt(sum_a mu1_a(t) / p)
         + int_0^t sum_a g_a sqrt(mu2_a(s) sum_b mu1_b(s) / p) ds

    with g_a = ||v_a|| ||L_a|| and the a-priori moment curves `apriori_mu1`
    and `apriori_mu2` from the per-bath initial moments (vacuum by default).
    The cap must be at least 1.
    """
    if p < 1:
        raise ValueError(f"particle cap {p} leaves no quanta to certify")
    g = np.asarray(couplings_strength, dtype=float)
    m = g.size
    ts = np.linspace(0.0, t, BOUND_GRID)
    mu1_0 = np.zeros(m) if mu1_0 is None else np.asarray(mu1_0, float)
    mu2_0 = np.zeros(m) if mu2_0 is None else np.asarray(mu2_0, float)
    mu1 = np.stack([apriori_mu1(g[a], ts, mu1_0[a]) for a in range(m)], axis=1)
    mu2 = np.stack([apriori_mu2(g[a], ts, mu1_0[a], mu2_0[a]) for a in range(m)],
                   axis=1)

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


def chain_error_bound(jump_norms, chains, t: float,
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
    for l_norm, coeffs in zip(jump_norms, chains):
        if l_norm == 0.0:
            continue
        if use_certificate:
            half_sq = chain_error_bound_value(coeffs.v_norm**2, coeffs.omega_c,
                                              coeffs.modes, t)
            sup = math.sqrt(2.0 * half_sq) if math.isfinite(half_sq) else math.inf
        else:
            svals = np.linspace(0.0, t, n_sup)
            worst = float(np.max(chain_error_single(coeffs, svals)[0]))
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
    def from_photon_counts(cls, kernels, n1_1, n1_2):
        """Constants for states with known N_{1,1}, N_{1,2} bounds.

        c_mu = sqrt(N_{1,1}) ||(1+w^2)^-1 mu_hat||_1^(1/2) and the same
        integral enters c_reg with N_{1,2}; the integral is taken in closed
        form (`kernels.weighted_density_integral`).
        """
        c_mu, c_reg = [], []
        for kernel, n1, n2 in zip(kernels, n1_1, n1_2):
            integral = weighted_density_integral(kernel)
            c_mu.append(math.sqrt(n1 * integral))
            c_reg.append(math.sqrt(n2 * integral))
        return cls(np.array(c_mu), np.array(c_reg))


def regularization_error_bound(jump_norms, kernels, eps: float, t: float,
                               state_constants: StateConstants,
                               hs_commutator_sups=None) -> float:
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
    taus = np.linspace(0.0, t, BOUND_GRID)

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

    TERMS = ("regularization", "cutoff", "chain", "truncation",
             "initialization")

    regularization: float
    cutoff: float
    chain: float
    truncation: float
    initialization: float
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in self.TERMS:
            if not getattr(self, name) >= 0:    # NaN fails too
                raise ValueError(f"budget term {name} must be nonnegative")

    @property
    def total(self):
        return sum(getattr(self, name) for name in self.TERMS)

    def to_json_dict(self):
        doc = {name: float(getattr(self, name)) for name in self.TERMS}
        doc["total"] = float(self.total)
        doc["parameters"] = dict(self.parameters)
        return doc


def hs_commutator_sup(model: SystemModel, bath: int) -> float:
    """A-priori bound on sup_s ||[H_S(s), L_bath]||: the sum over system
    terms of ||[H_i, L_bath]||, since every profile is at most 1 in size."""
    l_mat = model.jump_matrix(bath)
    total = 0.0
    for support, mat, _ in model.hs_terms:
        h = embed_system_operator(model.n, model.d, support, mat)
        total += float(np.linalg.norm(h @ l_mat - l_mat @ h, 2))
    return total


def regularization_term(model: SystemModel, kernels, eps: float, t: float,
                        state_constants: StateConstants) -> float:
    """Regularization budget term: the square root of
    `regularization_error_bound`, independent of cutoff, modes and cap."""
    jump_norms = [model.jump_norm(a) for a in range(len(kernels))]
    comms = [hs_commutator_sup(model, a) for a in range(len(kernels))]
    return math.sqrt(regularization_error_bound(
        jump_norms, kernels, eps, t, state_constants,
        hs_commutator_sups=comms))


def assemble_error_budget(model: SystemModel, couplings, chains,
                          space: TruncatedSpace, t: float,
                          regularization: float, initial_moments=None,
                          initialization: float = 0.0) -> ErrorBudget:
    """Evaluate the cutoff, chain and truncation bounds at the configured
    parameters; the regularization and initialization terms come as values
    (see `regularization_term`).  `initial_moments` holds one (mu1, mu2) per
    bath (vacuum by default): the truncation bound takes them per bath, the
    cutoff and chain bounds their summed mu1."""
    m = space.baths
    jump_norms = [model.jump_norm(a) for a in range(m)]
    moments = (np.zeros((m, 2)) if initial_moments is None
               else np.asarray(initial_moments, dtype=float))
    mu1_0, mu2_0 = moments.T
    mu1_sum = float(mu1_0.sum())
    omega_c = chains[0].omega_c
    cut = cutoff_error_bound(jump_norms, couplings, omega_c, t, mu1_sum)
    chn = chain_error_bound(jump_norms, chains, t, mu1_sum)
    strengths = [jump_norms[a] * chains[a].v_norm for a in range(m)]
    trunc = truncation_certificate(space.cap, t, strengths, mu1_0, mu2_0)
    params = {"epsilon": couplings[0].epsilon, "omega_c": omega_c,
              "modes": space.modes, "particle_cap": space.cap, "t": t}
    return ErrorBudget(regularization, cut, chn, trunc, initialization,
                       parameters=params)
