"""Time propagation on the truncated space and certified error budgets.

`_propagate` picks one of two propagators by whether the run has time
profiles.  Both read each Hamiltonian part's bound R_k >= ||P_k||_2 from
`PartStack`: a Collatz-Wielandt bound on the spectral radius of |P_k|, the
matrix of its entries' moduli, from a few products with it
(`spectral_bound`), never above the 1-norm (up to rounding) and on the
benchmark models within 2% of ||P_k||_2.  A run without profiles (a
constant H_S, every star run) expands exp(-i H t) in Chebyshev polynomials
of H / R (`_chebyshev_run`): one three-term recurrence spans a segment of
output times of norm-time product up to CHEBYSHEV_SEGMENT_NORM, every row
of the segment stops at the smallest degree whose tail bound
2 sum_{k > K} (x/2)^k / k! on the Bessel coefficients is at most 2^-53
(`_bessel_tail`), and the rows add the recurrence's vectors in blocks of
CHEBYSHEV_BLOCK, one matrix product per block (`_add_block`).  A driven run
sums a Taylor series in time over pieces of norm up to TAYLOR_PIECE_NORM
(`_taylor_run`).  Per unit of norm the Chebyshev path takes about 2 to 3
matrix-vector products (60 for a segment of norm 25, 116 for one of norm
64), the Taylor path about 8: the fock-krylov benchmark run (R = 12.64,
against ||H||_1 = 16.58 and ||H||_2 = 12.41; norm-time product 25) takes 60
products in one segment, where R = ||H||_1 and segments of norm 16 took 110
and the Taylor series 420.

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
from .fock import SystemModel, TruncatedSpace, build_hamiltonian_parts
from .kernels import (
    error_functions,
    total_variation,
    weighted_density_integral,
)

# Pieces of norm up to TAYLOR_PIECE_NORM = 4 (`_taylor_plan`) need degree
# about 31, about 8 matrix-vector products per unit of norm against about
# 18 for pieces of norm 1, and no Taylor term of a piece exceeds e^4 ~ 55
# times its input, so rounding stays near 1e-15.
TAYLOR_PIECE_NORM = 4.0
# Largest R (t_j - t_s) one Chebyshev recurrence spans (`_chebyshev_run`),
# R = `spectral_bound` of H: longer segments take fewer products per unit
# of norm (degree 46 at 16, 82 at 40, 116 at 64), and every row of a segment
# adds its vectors by one matrix product per CHEBYSHEV_BLOCK degrees.
# Retimed over 16, 32, 64 and 128 on a 2-vCPU x86 KVM guest with one BLAS
# thread (medians of 15 interleaved runs): the fock-krylov benchmark run
# takes 80/60/60/60 products in 62/53/51/52 ms, the oracle-star star run
# 123/103/82/82 in 4.7/4.8/4.5/4.3 ms, and that star run to t = 20 at 401
# rows 1179/892/745/742 in 41 ms at every norm; 64 is the smallest norm
# with the fewest products on both benchmark runs.
CHEBYSHEV_SEGMENT_NORM = 64.0
# Most output rows one Chebyshev segment holds: its coefficient table and
# FFT hold rows x (2 degree + 2) complex numbers, which for a qubit run of
# a million short intervals in one segment would be gigabytes; a new
# segment costs one recurrence of about 116 products at the segment norm,
# against 64 rows of updates.
CHEBYSHEV_SEGMENT_ROWS = 64
# Recurrence vectors a segment keeps, its last two included: every
# CHEBYSHEV_BLOCK degrees the rows add them by one (rows, block) x (block,
# columns) product, taken CHEBYSHEV_COLUMNS columns at a time so that no
# (rows, dim) temporary forms (at most 64 x 2048 complex numbers, 2 MiB).
CHEBYSHEV_BLOCK = 8
CHEBYSHEV_COLUMNS = 2048
# Shifted power steps of `spectral_bound`: on fock-krylov's Hamiltonian the
# bound falls from the 1-norm 16.58 to 13.82 after one step and 12.64 after
# eight, against ||H||_2 = 12.41, for nine real products (2-4 ms).
POWER_STEPS = 8
# Largest norm-time product theta_run = (t_final - t_0) (sum_k R_k +
# max_k |omega_k|) a run may have, R_k >= ||P_k||_2 the parts' bounds.
# Every profile is at most 1 in size, so theta_run bounds the exponent's
# norm and the profiles' phase, and with them the pieces: a run above the
# limit would take minutes to hours.  The shipped configs and benchmark
# workloads reach at most 121 (feedback-delay certify), 500 times below it.
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


def spectral_bound(part):
    """Upper bound on ||P||_2 for one Hermitian CSR part P, from a few
    products with |P|, the matrix of its entries' moduli.

    Wielandt: rho(P) <= rho(|P|), and rho(P) = ||P||_2 for Hermitian P.
    Collatz-Wielandt: for nonnegative A and any x > 0, rho(A) <= c(x) =
    max_i (A x)_i / x_i, since D^-1 A D with D = diag(x) has the row sums
    (A x)_i / x_i, and so rho(A) = rho(D^-1 A D) <= ||D^-1 A D||_inf
    (Horn & Johnson, Matrix Analysis, section 8.1).  Every x gives a
    rigorous bound, so the smallest c over the steps is taken: x starts at
    1, where c is the largest row sum of |P|, its infinity-norm and, as |P|
    is symmetric, its 1-norm; POWER_STEPS shifted power steps
    x <- (|P| x + x) / max then move x towards the Perron vector, where c
    falls towards rho(|P|).  The shift keeps every x_i positive, since
    (|P| x + x)_i >= x_i > 0, and keeps the steps from swinging between the
    ends of a bipartite |P|'s symmetric spectrum (a chain's): |P| + 1 has
    rho(|P|) + 1 above every other modulus.  The division by the largest
    entry, at most 1 + c(1), keeps x_i >= (1 + c(1))^-steps, so x_i stays a
    normal number unless c(1) exceeds about 2^127, and the steps stop at an
    x with a subnormal entry.

    Rounding: with u = 2^-53 and n the longest row's nonzero count, the
    moduli carry a relative error below 2u, each row sum of nonnegative
    terms at most n u (to first order, in any order of summation), the
    ratio u and the final product u, so the computed c times
    1 + (n + 4) 2^-52 bounds the exact one.  A NaN entry makes the bound
    NaN, an infinite one infinite or NaN."""
    moduli = sp.csr_matrix((np.abs(part.data), part.indices, part.indptr),
                           shape=part.shape, copy=False)
    longest = int(np.diff(part.indptr).max())
    x = np.ones(part.shape[0])
    bound = math.inf
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(POWER_STEPS + 1):
            ax = moduli @ x
            bound = np.minimum(bound, np.max(ax / x))
            x += ax
            x /= x.max()
            if not x.min() >= np.finfo(float).tiny:
                break
    return float(bound) * (1.0 + (longest + 4) * 2.0**-52)


class PartStack:
    """Hamiltonian parts P_0, P_1, ..., P_K stacked vertically into one
    ((K + 1) dim, dim) CSR operator, so that one product returns every
    P_k phi; a single part is held as it is, not copied.  Every part must
    be Hermitian: `SystemModel` rejects non-Hermitian system terms and the
    bath part is Hermitian by construction.  `norms` holds each part's
    `spectral_bound` on its 2-norm, taken once here."""

    def __init__(self, parts):
        self.norms = np.array([spectral_bound(p) for p in parts])
        self._stack = (parts[0] if len(parts) == 1
                       else sp.vstack(parts, format="csr"))

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

    `norms` holds the parts' bounds R_k >= ||P_k||_2 (`spectral_bound`).
    Pieces: the fewest equal pieces h with h sum_k R_k e^{|omega_k| h}
    <= TAYLOR_PIECE_NORM, by doubling and bisection up from the constant
    count ceil(dt sum_k R_k / TAYLOR_PIECE_NORM).

    Degree: with a_k = h R_k >= ||h P_k||_2 and beta_k = h |omega_k|,
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
    the constant part enters at j = 0 only."""
    # row degree - j holds c_{., j}: order m meets the last m + 1 rows
    reversed_coeffs = np.array([f.taylor(t0, h, degree)[::-1]
                                for f in profiles], dtype=complex).T
    kept = np.empty((degree, len(profiles) * psi.size), dtype=complex)
    phi = psi
    yield phi
    for m in range(degree):
        products = stack.products(phi)
        kept[m] = products[1:].ravel()
        phi = products[0] + (reversed_coeffs[degree - m:].ravel()
                             @ kept[:m + 1].reshape(-1, psi.size))
        phi *= -1j * h / (m + 1)
        yield phi


def _taylor_run(stack, profiles, omegas, states, times):
    """Fill states[1:] under H(t) = P_0 + sum_k f_k(t) P_k from states[0]:
    every output interval is cut into the pieces of `_taylor_plan`, each
    summing its Taylor series (`_taylor_terms`).  The run is planned once,
    from its longest interval: the majorant's coefficients grow with h, so
    the longest interval's (pieces, degree) keeps every shorter interval's
    pieces below TAYLOR_PIECE_NORM and its tail below 2^-53."""
    pieces, degree = _taylor_plan(stack.norms, omegas,
                                  float(np.diff(times).max()))
    psi = states[0]
    for i, (t0, dt) in enumerate(zip(times[:-1], np.diff(times))):
        h = dt / pieces
        for p in range(pieces):
            terms = _taylor_terms(stack, profiles, t0 + p * h, h, degree, psi)
            psi = sum(terms, next(terms))      # phi_0 + phi_1 + ...
        states[i + 1] = psi


def _bessel_tail(x, degree):
    """Upper bound on 2 sum_{k > degree} |J_k(x)| for x >= 0, from
    |J_k(x)| <= (x/2)^k / k! (DLMF 10.14.4): the terms of the bound fall
    by the ratio (x/2) / (k + 1) <= r = (x/2) / (degree + 2) after the
    first, so their sum is at most the first over 1 - r.  Infinite where
    r >= 1, and where the first term exceeds 1, which keeps exp finite."""
    if x == 0.0:
        return 0.0
    half = x / 2.0
    if half >= degree + 2:
        return math.inf
    log_first = (degree + 1) * math.log(half) - math.lgamma(degree + 2)
    if log_first > 0.0:
        return math.inf
    return 2.0 * math.exp(log_first) / (1.0 - half / (degree + 2))


def _chebyshev_degree(x):
    """Smallest degree K with `_bessel_tail(x, K)` <= 2^-53, by doubling
    and bisection: the bound falls with K."""
    fewer, degree = -1, 1
    while _bessel_tail(x, degree) > 2.0**-53:
        fewer, degree = degree, 2 * degree
    while degree - fewer > 1:
        mid = (fewer + degree) // 2
        fewer, degree = ((mid, degree) if _bessel_tail(x, mid) > 2.0**-53
                         else (fewer, mid))
    return degree


def _chebyshev_coefficients(x, degree):
    """(rows, degree + 1) array of (2 - delta_k0) (-i)^k J_k(x_j).

    By Jacobi-Anger, exp(-i x cos s) = sum_k (-i)^k J_k(x) e^{i k s}, so
    the N-point FFT of exp(-i x cos(2 pi m / N)), over N, returns
    (-i)^k J_k(x) plus the aliases (-i)^j J_j(x) of j = k + l N, l != 0.
    For k <= degree each |j| >= N - degree is met at most twice (l > 0 and
    l < 0), so the aliases weighted by 2 - delta_k0 <= 2 add at most
    2 `_bessel_tail(x, N - degree - 1)` times ||psi|| to a truncated sum.
    N starts at the first power of two above 2 degree + 1, so every alias
    lies beyond the degree, and doubles until that is at most 2^-60 at the
    largest x (the bound grows with x)."""
    x = np.asarray(x, dtype=float)
    n = 1 << (2 * degree + 1).bit_length()
    while 2.0 * _bessel_tail(float(x.max()), n - degree - 1) > 2.0**-60:
        n *= 2
    nodes = np.cos(2.0 * np.pi / n * np.arange(n))
    coeffs = np.fft.fft(np.exp(-1j * np.multiply.outer(x, nodes)))
    coeffs = coeffs[:, :degree + 1] / n
    coeffs[:, 1:] *= 2.0
    return coeffs


def _chebyshev_run(stack, states, times):
    """Fill states[1:] with exp(-i H (t_j - t_0)) states[0] for the one
    Hermitian part H of `stack`, by the Chebyshev expansion
    exp(-i H t) = sum_k (2 - delta_k0) (-i)^k J_k(R t) T_k(H / R) of
    Tal-Ezer & Kosloff (J. Chem. Phys. 81, 3967 (1984)), R the
    `spectral_bound` of H, R >= ||H||_2, so that the spectrum of H / R
    lies in [-1, 1].

    The grid is cut at output times into segments: each spans as many
    intervals as keep R (t_j - t_s) <= CHEBYSHEV_SEGMENT_NORM, up to
    CHEBYSHEV_SEGMENT_ROWS, and at least one.  One three-term recurrence
    v_{k+1} = 2 (H / R) v_k - v_{k-1} from the segment's first state psi
    serves all its rows, one matrix-vector product per degree; row j sums
    the coefficients of `_chebyshev_coefficients` at x_j = R (t_j - t_s)
    times v_k up to its own degree K_j = `_chebyshev_degree(x_j)`, its
    coefficients beyond K_j set to zero.  The rows add the vectors in
    blocks of CHEBYSHEV_BLOCK degrees, one matrix product per block
    (`_add_block`), and the segment keeps no other vectors.  As
    ||T_k(H / R)|| <= 1, truncating after K_j errs by at most
    ||psi|| 2 sum_{k > K_j} |J_k(x_j)| <= 2^-53 ||psi|| (`_bessel_tail`),
    the standard of `_taylor_plan`; the coefficients' aliases add at most
    2^-60 ||psi||.  A segment takes K = max_j K_j products (K_j grows with
    x_j, so the last row's) and keeps CHEBYSHEV_BLOCK vectors and its
    (rows, K + 1) coefficients."""
    norm = stack.norms[0]
    if norm == 0.0:
        states[1:] = states[0]
        return
    start = 0
    while start < len(times) - 1:
        stop = np.searchsorted(times, times[start]
                               + CHEBYSHEV_SEGMENT_NORM / norm, side="right")
        stop = min(max(stop, start + 2), start + 1 + CHEBYSHEV_SEGMENT_ROWS)
        x = norm * (times[start + 1:stop] - times[start])
        _chebyshev_segment(stack, x, states[start], states[start + 1:stop])
        start = stop - 1


def _chebyshev_segment(stack, x, psi, out):
    """out[j] = exp(-i x_j H / R) psi for the ascending x of one segment
    (see `_chebyshev_run`)."""
    norm = stack.norms[0]
    degrees = np.array([_chebyshev_degree(float(xj)) for xj in x])
    top = int(degrees.max())
    coeffs = _chebyshev_coefficients(x, top)
    coeffs[np.arange(top + 1) > degrees[:, None]] = 0.0
    # v_k sits in row k % CHEBYSHEV_BLOCK; a full block is added before its
    # first row is overwritten, and the recurrence reads its last two rows
    block = np.empty((min(CHEBYSHEV_BLOCK, top + 1), psi.size), dtype=complex)
    block[0] = psi
    out[...] = 0.0
    for k in range(1, top + 1):
        row = k % CHEBYSHEV_BLOCK
        if row == 0:
            _add_block(out, coeffs, degrees, k - CHEBYSHEV_BLOCK, block)
        np.multiply(stack.products(block[row - 1])[0],
                    (1.0 if k == 1 else 2.0) / norm, out=block[row])
        if k > 1:
            block[row] -= block[row - 2]
    rows = top % CHEBYSHEV_BLOCK + 1
    _add_block(out, coeffs, degrees, top + 1 - rows, block[:rows])


def _add_block(out, coeffs, degrees, start, vectors):
    """Add coeffs[j, start + i] vectors[i] into out[j] for every row j whose
    degree reaches `start` (the ascending degrees' tail), by one product
    per CHEBYSHEV_COLUMNS columns."""
    first = int(np.searchsorted(degrees, start))
    weights = coeffs[first:, start:start + len(vectors)]
    for col in range(0, out.shape[1], CHEBYSHEV_COLUMNS):
        cols = slice(col, col + CHEBYSHEV_COLUMNS)
        out[first:, cols] += weights @ vectors[:, cols]


def _propagate(stack, profiles, psi0, times):
    """States at `times`, (T, dim), under H(t) = P_0 + sum_k f_k(t) P_k
    for the parts of `stack` and the profiles f_1 .. f_K: a run with
    profiles by Taylor series in time (`_taylor_run`), one without by
    Chebyshev recurrences (`_chebyshev_run`).  Fails with
    `StepControlFailure` before the first product when the run's
    norm-time product exceeds `NORM_TIME_LIMIT`."""
    omegas = np.abs([0.0] + [f.frequency for f in profiles])
    theta_run = float((times[-1] - times[0])
                      * (stack.norms.sum() + omegas.max()))
    if not theta_run <= NORM_TIME_LIMIT:
        raise StepControlFailure(
            f"norm-time product (t_final - t_0) * (sum_k R_k + "
            f"max_k |omega_k|) = {theta_run:.3g} exceeds the limit "
            f"{NORM_TIME_LIMIT:.0f}")
    states = np.empty((len(times), psi0.size), dtype=complex)
    states[0] = psi0
    if profiles:
        _taylor_run(stack, profiles, omegas, states, times)
    else:
        _chebyshev_run(stack, states, times)
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
    propagated by Chebyshev recurrences when no term has a profile and by a
    Taylor series in time otherwise (`_propagate`).  States are recorded on
    `output_times(t_final, out_step)`, the grid the star oracle also uses.
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
    """Trajectory of the (T, dim) states: reduced states from their
    (T, sys_dim, env_dim) view and norms, one output row at a time so that
    no temporary of the states' size forms (each row keeps the bits of the
    batched product and norm), then moments."""
    states = np.asarray(states)
    mat = states.reshape(len(times), space.sys_dim, space.env_dim)
    rho = np.empty((len(times), space.sys_dim, space.sys_dim), dtype=complex)
    norms = np.empty(len(times))
    for j, m in enumerate(mat):
        np.matmul(m, m.conj().T, out=rho[j])
        norms[j] = np.linalg.norm(states[j:j + 1], axis=1)[0]
    mu1, mu2 = measure_moments(space, states)
    return Trajectory(np.asarray(times), rho, mu1, mu2, norms,
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
    return sum((float(np.linalg.norm(h @ l_mat - l_mat @ h, 2))
                for h, _ in model.hs_operators), 0.0)


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
