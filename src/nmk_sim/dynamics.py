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

# Every run propagates by one Taylor series in time (`_propagate`), its
# Hamiltonian parts stacked into one operator (`PartStack`).  One piece of a
# dt = 0.2 interval of the driven desk qubit (sigma_x cos(2t), two parts) and
# of its constant part alone, best of 40 x 50 pieces with one BLAS thread on
# a 2-vCPU x86 KVM guest:
#    dim    nnz   degree   driven dense / CSR   degree   constant dense / CSR
#     30    128     24        154 /  201 us        20          61 /  99 us
#     56    264     24        191 /  223 us        21          77 / 111 us
#     72    350     24        229 /  221 us        21          94 / 116 us
#     90    448     24        302 /  235 us        21         114 / 124 us
#    132    680     24        358 /  245 us        21         201 / 166 us
#    330   2008     27       3740 /  418 us        25         914 / 336 us
# A dense product pays (parts x dim) x dim per order, CSR a fixed call cost;
# driven pieces cross between 56 and 72, constant ones between 90 and 132.
DENSE_EXPM_DIM = 64
# Pieces of norm up to TAYLOR_PIECE_NORM = 4 (`_taylor_plan`) need degree
# about 31, about 8 matrix-vector products per unit of norm against about
# 18 for pieces of norm 1, and no Taylor term of a piece exceeds e^4 ~ 55
# times its input, so rounding stays near 1e-15.
TAYLOR_PIECE_NORM = 4.0
# Largest norm-time product theta_run = (t_final - t_0) (sum_k ||P_k||_1 +
# max_k |omega_k|) a run may have.  Every profile is at most 1 in size, so
# theta_run bounds the exponent's norm and the profiles' phase, and with
# them the pieces: a run above the limit would take minutes to hours.  The
# shipped configs and benchmark workloads reach at most 165 (feedback-delay
# certify), 400 times below it.
NORM_TIME_LIMIT = 2.0**16
VALIDATE_TOL = 1e-8       # see `Trajectory.validate`
# Points of the [0, t] grid on which the truncation and regularization bounds
# integrate their a-priori curves.
BOUND_GRID = 257


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
    """Hamiltonian parts P_0, P_1, ..., P_K stacked vertically into one
    ((K + 1) dim, dim) operator, dense at or below `DENSE_EXPM_DIM` and CSR
    above it, so that one product returns every P_k phi.  Every part must be
    Hermitian: `SystemModel` rejects non-Hermitian system terms and the bath
    part is Hermitian by construction, so each part's 1-norm, taken once
    here, bounds its 2-norm."""

    def __init__(self, parts):
        self.norms = np.array([float(abs(p).sum(axis=0).max()) for p in parts])
        stack = sp.vstack(parts, format="csr")
        self._stack = (stack.toarray() if parts[0].shape[0] <= DENSE_EXPM_DIM
                       else stack)

    def products(self, phi):
        """(K + 1, dim) array whose row k is P_k phi."""
        return (self._stack @ phi).reshape(self.norms.size, -1)


def _majorant(a, beta, n):
    """Taylor coefficients y_0 .. y_n of
    y(s) = exp(sum_k a_k (e^{beta_k s} - 1) / beta_k), with a_k s for
    beta_k = 0.  As y' = (sum_k a_k e^{beta_k s}) y: y_0 = 1 and
    (m + 1) y_{m+1} = sum_{j <= m} d_j y_{m-j}, d_j = sum_k a_k beta_k^j / j!."""
    steps = np.column_stack([np.ones_like(beta),
                             np.outer(beta, 1.0 / np.arange(1, n))])
    d = a @ np.cumprod(steps, axis=1)
    y = np.zeros(n + 1)
    y[0] = 1.0
    for m in range(n):
        y[m + 1] = d[:m + 1] @ y[m::-1] / (m + 1)
    return y


def _taylor_plan(norms, omegas, dt):
    """(pieces, degree) for an output interval of length dt.

    Pieces: the fewest equal pieces h with h sum_k ||P_k||_1 e^{|omega_k| h}
    <= TAYLOR_PIECE_NORM, by doubling and bisection up from the constant
    count ceil(dt sum_k ||P_k||_1 / TAYLOR_PIECE_NORM).

    Degree: with a_k = h ||P_k||_1 >= ||h P_k||_2 and beta_k = h |omega_k|,
    |c_{k,j}| <= beta_k^j / j! for either sign of omega_k, so bounding each
    term of the recursion of `_taylor_terms` gives ||phi_m|| <= y_m ||psi||
    by induction, with y_m >= 0 the coefficients of `_majorant`; truncating
    after degree M errs by at most ||psi|| sum_{m > M} y_m.  The sum is
    never formed as y(1) minus a partial sum, which would cancel: its terms
    up to n are added as they are, and Cauchy's estimate y_m <= y(r) r^-m
    bounds the rest by y(r) r^-n / (r - 1) for the best r > 1 of a fixed
    set, with log y(r) <= r sum_k a_k e^{beta_k r} as (e^x - 1) / x <= e^x.
    n doubles until the rest is at most 2^-54; the degree is the smallest M
    whose bound is at most 2^-53.
    """
    def too_long(pieces):
        h = dt / pieces
        with np.errstate(over="ignore"):      # an overflow is too long
            return h * float(norms @ np.exp(omegas * h)) > TAYLOR_PIECE_NORM

    pieces = max(1, math.ceil(dt * norms.sum() / TAYLOR_PIECE_NORM))
    fewer = pieces - 1
    while too_long(pieces):
        fewer, pieces = pieces, 2 * pieces
    while pieces - fewer > 1:
        mid = (fewer + pieces) // 2
        fewer, pieces = (mid, pieces) if too_long(mid) else (fewer, mid)
    h = dt / pieces
    keep = norms > 0.0
    a, beta = h * norms[keep], h * omegas[keep]
    radii = 1.0 + 2.0 ** np.arange(-6.0, 8.0)
    with np.errstate(over="ignore"):    # an infinite radius is never best
        log_y = radii * (a @ np.exp(np.outer(beta, radii)))
    for n in 2 ** np.arange(5, 13):
        rest = math.exp(min(np.min(log_y - n * np.log(radii)
                                   - np.log(radii - 1.0)), 0.0))
        if rest <= 2.0**-54:
            y = _majorant(a, beta, n)
            after = np.append(np.cumsum(y[::-1])[-2::-1], 0.0) + rest
            return pieces, int(np.argmax(after <= 2.0**-53))
    raise StepControlFailure("no Taylor degree up to 4096 bounds the "
                             "truncation error of a piece")


def _taylor_terms(stack, profiles, t0, h, degree, psi):
    """phi_0 = psi, phi_1, ..., phi_degree: the coefficients of
    psi(t0 + s h) = sum_m phi_m s^m under H = P_0 + sum_k f_k P_k, from
    (m + 1) phi_{m+1} = -i h [P_0 phi_m + sum_k sum_{j <= m} c_{k,j} P_k
    phi_{m-j}] with c_k the Taylor coefficients of f_k
    (`TimeProfile.taylor`).  Only the profiled parts' products are kept;
    the constant part enters at j = 0 only, so a run without profiles does
    no convolution work."""
    # row degree - j holds c_{., j}: order m meets the last m + 1 rows
    reversed_coeffs = np.array([f.taylor(t0, h, degree)[::-1]
                                for f in profiles], dtype=complex).T
    kept = np.empty((degree, len(profiles) * psi.size), dtype=complex)
    phi = psi
    yield phi
    for m in range(degree):
        products = stack.products(phi)
        phi = products[0]
        if profiles:
            kept[m] = products[1:].ravel()
            phi = phi + (reversed_coeffs[degree - m:].ravel()
                         @ kept[:m + 1].reshape(-1, psi.size))
        phi *= -1j * h / (m + 1)
        yield phi


def _propagate(stack, profiles, psi0, times):
    """States at `times`, (T, dim), under H(t) = P_0 + sum_k f_k(t) P_k
    for the parts of `stack` and the profiles f_1 .. f_K: each output
    interval is cut into the pieces of `_taylor_plan` (planned once per
    distinct length), each summing its Taylor series (`_taylor_terms`).
    Fails with `StepControlFailure` before the first step when the run's
    norm-time product exceeds `NORM_TIME_LIMIT`."""
    omegas = np.abs([0.0] + [f.frequency for f in profiles])
    theta_run = float((times[-1] - times[0])
                      * (stack.norms.sum() + omegas.max()))
    if not theta_run <= NORM_TIME_LIMIT:
        raise StepControlFailure(
            f"norm-time product (t_final - t_0) * (sum_k ||P_k||_1 + "
            f"max_k |omega_k|) = {theta_run:.3g} exceeds the limit "
            f"{NORM_TIME_LIMIT:.0f}")
    states = np.empty((len(times), psi0.size), dtype=complex)
    states[0] = psi = psi0
    plans = {}
    for i, (t0, dt) in enumerate(zip(times[:-1], np.diff(times))):
        if dt not in plans:
            plans[dt] = _taylor_plan(stack.norms, omegas, dt)
        pieces, degree = plans[dt]
        h = dt / pieces
        for p in range(pieces):
            terms = _taylor_terms(stack, profiles, t0 + p * h, h, degree, psi)
            psi = sum(terms, next(terms))      # phi_0 + phi_1 + ...
        states[i + 1] = psi
    return states


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

    The constant part and the profiled system terms form one `PartStack`,
    propagated by one Taylor series in time (`_propagate`).  States are
    recorded on `output_times(t_final, out_step)`, the grid the star oracle
    also uses.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (space.dimension,):
        raise ValueError("initial state has wrong dimension")
    times = output_times(t_final, out_step)
    h_const, profiled = build_hamiltonian_parts(model, chains, space)
    stack = PartStack([h_const] + [term for term, _ in profiled])
    states = _propagate(stack, [f for _, f in profiled], psi0, times)
    del h_const, profiled, stack    # free the Hamiltonian before `_collect`
    return _collect(space, times, states, keep_states, oracle=False)


# `oracle.star_evolve` calls this by name: the benchmark subtracts it from
# the star oracle's time to report the star Hamiltonian's build time.
def _propagate_const(h, psi0, times):
    """States exp(-i h t) psi0 at `times`, one row each: (T, dim)."""
    return _propagate(PartStack([h]), [], psi0, times)


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
