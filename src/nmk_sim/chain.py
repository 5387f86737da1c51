"""Star-to-chain transformation and its truncation certificate.

Gauss quadrature rules against the weight |vhat|^2 on [-omega_c, omega_c]
are built by discretizing the weight on composite Gauss-Legendre panels and
running a Lanczos recursion (with full reorthogonalization) on the discrete
measure.  The resulting Jacobi matrix carries the chain onsite energies and
hoppings; its spectral decomposition yields nodes and weights.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateWeight,
    QuadratureNotConverged,
    RecursionBreakdown,
    ShapeMismatch,
)
from .kernels import RegularizedCoupling

# Each panel's 12-node Gauss-Legendre rule on [-1, 1], as numpy's
# ``leggauss(12)``: its six positive nodes and their weights, mirrored as in
# ``leggauss`` (x[::-1] == -x, w[::-1] == w).  Tests check it bit for bit.
_GL_X = np.array([0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                  0.7699026741943047, 0.9041172563704748, 0.9815606342467192])
_GL_W = np.array([0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
                  0.16007832854334642, 0.10693932599531907,
                  0.04717533638651141])
_PANEL_RULE = (np.concatenate([-_GL_X[::-1], _GL_X]),
               np.concatenate([_GL_W[::-1], _GL_W]))
_MAX_PANEL_DOUBLINGS = 8
_COEFF_TOL = 1e-9


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the normalized weight |vhat|^2 / ||v||^2 on the cutoff."""

    nodes: np.ndarray
    weights: np.ndarray
    count: int

    def __post_init__(self):
        if self.nodes.shape != (self.count,) or self.weights.shape != (self.count,):
            raise ShapeMismatch("rule arrays must have length `count`")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")


@dataclass(frozen=True, eq=False)
class ChainCoefficients:
    """Tridiagonal chain parameters produced by the star-to-chain map."""

    onsite: np.ndarray      # omega_alpha, length modes
    hopping: np.ndarray     # t_alpha, length modes - 1
    v_norm: float           # L2 norm of the cutoff coupling
    omega_c: float
    modes: int
    # (nodes, weights) the map ran Lanczos on; in memory only, not in JSON
    measure: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        onsite = np.asarray(self.onsite, dtype=float)
        hopping = np.asarray(self.hopping, dtype=float)
        object.__setattr__(self, "onsite", onsite)
        object.__setattr__(self, "hopping", hopping)
        if onsite.shape != (self.modes,) or hopping.shape != (self.modes - 1,):
            raise ShapeMismatch("coefficient lengths inconsistent with `modes`")
        slack = 1e-9 * max(1.0, self.omega_c)
        if np.any(np.abs(onsite) > self.omega_c + slack):
            raise ValueError("onsite energies exceed the frequency cutoff")
        if np.any(hopping < -slack) or np.any(hopping > self.omega_c + slack):
            raise ValueError("hoppings must lie in [0, omega_c]")

    @property
    def couplings(self):
        """System coupling vector ||v|| e_1: only the first mode is coupled."""
        g = np.zeros(self.modes)
        g[0] = self.v_norm
        return g

    def to_json_dict(self):
        return {
            "onsite": [float(x) for x in self.onsite],
            "hopping": [float(x) for x in self.hopping],
            "v_norm": float(self.v_norm),
            "omega_c": float(self.omega_c),
        }

    @classmethod
    def from_json_dict(cls, doc):
        onsite = np.asarray(doc["onsite"], dtype=float)
        return cls(onsite, np.asarray(doc["hopping"], dtype=float),
                   float(doc["v_norm"]), float(doc["omega_c"]), len(onsite))


# coupling -> {(omega_c, n_panels): (nodes, weights)}; an entry lives as
# long as its coupling
_PANEL_LEVELS = weakref.WeakKeyDictionary()


def _discretize(coupling, omega_c, n_panels):
    """Composite Gauss-Legendre discretization of the weight on the cutoff.

    Panel edges are Chebyshev-spaced so endpoint behaviour of the weight is
    resolved without wasting nodes in the interior.  Each level is built
    once per coupling object and returned read-only: a map of N modes
    refines from max(8 N, 32) panels by doubling, so maps of N and 2N modes
    share a level.
    """
    levels = _PANEL_LEVELS.setdefault(coupling, {})
    key = (float(omega_c), int(n_panels))
    if key not in levels:
        edges = -omega_c * np.cos(np.linspace(0.0, math.pi, n_panels + 1))
        xg, wg = _PANEL_RULE
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        lam = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        wts = (half[:, None] * wg[None, :]).ravel()
        weight = np.maximum(np.asarray(coupling.weight(lam), dtype=float), 0.0)
        wts = wts * weight
        lam.flags.writeable = False
        wts.flags.writeable = False
        levels[key] = lam, wts
    return levels[key]


def _lanczos_jacobi(lam, wts, n, scale):
    """Jacobi coefficients of the discrete measure sum_k wts_k delta(lam_k).

    Lanczos on diag(lam) with start vector sqrt(wts), fully
    reorthogonalized.  Returns (alpha[0:n], beta[0:n-1], total_mass).
    """
    mass = float(np.sum(wts))
    if mass <= 0.0:
        raise DegenerateWeight("weight vanishes on the cutoff interval")
    support = int(np.count_nonzero(wts > 1e-15 * np.max(wts)))
    if support < n:
        raise DegenerateWeight(
            f"discretized weight has {support} points of increase, need {n}"
        )
    q = np.sqrt(wts / mass)
    basis = [q]
    alpha = np.empty(n)
    beta = np.empty(max(n - 1, 0))
    proj = np.empty_like(q)
    for k in range(n):
        r = lam * basis[k]
        alpha[k] = float(np.dot(basis[k], r))
        if k == n - 1:
            break
        r = r - alpha[k] * basis[k]
        if k > 0:
            r = r - beta[k - 1] * basis[k - 1]
        for b in basis:  # full reorthogonalization, in place: r is fresh
            np.multiply(np.dot(b, r), b, out=proj)
            r -= proj
        nrm = float(np.linalg.norm(r))
        if nrm <= 1e-13 * scale:
            raise RecursionBreakdown(k + 1, nrm**2)
        beta[k] = nrm
        basis.append(r / nrm)
    return alpha, beta, mass


def _refined_jacobi(coupling, omega_c, n):
    """Jacobi coefficients refined until stable to `_COEFF_TOL`."""
    n_panels = max(8 * n, 32)
    prev = None
    for _ in range(_MAX_PANEL_DOUBLINGS):
        lam, wts = _discretize(coupling, omega_c, n_panels)
        alpha, beta, mass = _lanczos_jacobi(lam, wts, n, omega_c)
        if prev is not None:
            da = np.max(np.abs(alpha - prev[0]))
            db = np.max(np.abs(beta - prev[1])) if beta.size else 0.0
            if max(da, db) < _COEFF_TOL * max(1.0, omega_c):
                return alpha, beta, mass, (lam, wts)
        prev = (alpha, beta)
        n_panels *= 2
    raise QuadratureNotConverged(
        f"chain coefficients did not stabilize after {_MAX_PANEL_DOUBLINGS} refinements"
    )


def _chain_eigh(coeffs):
    """Eigenvalues (ascending) and eigenvectors of the chain's Jacobi matrix.

    Solved densely with numpy, which needs no scipy import: certify sizes
    chains to a few hundred modes, where this costs milliseconds.
    """
    h = coeffs.hopping
    return np.linalg.eigh(np.diag(coeffs.onsite) + np.diag(h, 1) + np.diag(h, -1))


def gauss_quadrature(coupling: RegularizedCoupling, omega_c: float,
                     count: int) -> QuadratureRule:
    """Gauss rule with `count` nodes for |vhat|^2 / ||v||^2 on the cutoff."""
    if count < 1:
        raise ValueError("need at least one node")
    if coupling.grid.size and (coupling.grid[0] > -omega_c or coupling.grid[-1] < omega_c):
        raise ValueError("coupling grid does not cover [-omega_c, omega_c]")
    coeffs = star_to_chain(coupling, omega_c, count)
    nodes, vecs = _chain_eigh(coeffs)
    weights = vecs[0, :] ** 2
    weights = weights / float(np.sum(weights))
    return QuadratureRule(nodes, weights, count)


def star_to_chain(coupling: RegularizedCoupling, omega_c: float,
                  modes: int) -> ChainCoefficients:
    """Map the coupling on [-omega_c, omega_c] to tridiagonal chain form."""
    if modes < 1:
        raise ValueError("need at least one chain mode")
    alpha, beta, mass, measure = _refined_jacobi(coupling, omega_c, modes)
    slack = 1e-9 * max(1.0, omega_c)
    onsite = np.clip(alpha, -omega_c - slack, omega_c + slack)
    hopping = np.clip(beta, 0.0, omega_c + slack)
    return ChainCoefficients(onsite, hopping, math.sqrt(mass), omega_c, modes,
                             measure=measure)


def chain_propagate_single(coeffs: ChainCoefficients, c0, t):
    """Propagate single-particle chain amplitudes: c(t) = exp(-i A t) c0.

    `t` may be one time or an array of times (amplitudes on a last axis)."""
    c0 = np.asarray(c0, dtype=complex)
    if c0.shape != (coeffs.modes,):
        raise ShapeMismatch("amplitude vector length must equal `modes`")
    vals, vecs = _chain_eigh(coeffs)
    phases = np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), vals))
    return (phases * (vecs.T @ c0)) @ vecs.T


def orthonormal_polynomials(coeffs: ChainCoefficients, mass: float, lam):
    """Values q_j(lam) of the weight-orthonormal polynomials, j < modes.

    The mode functions of the chain are phihat_j = q_j * vhat; orthonormality
    holds under the |vhat|^2 inner product.
    """
    lam = np.asarray(lam, dtype=float)
    q = np.zeros((coeffs.modes, lam.size))
    q[0] = 1.0 / math.sqrt(mass)
    if coeffs.modes > 1:
        q[1] = (lam - coeffs.onsite[0]) * q[0] / coeffs.hopping[0]
    for j in range(1, coeffs.modes - 1):
        q[j + 1] = ((lam - coeffs.onsite[j]) * q[j]
                    - coeffs.hopping[j - 1] * q[j - 1]) / coeffs.hopping[j]
    return q


def chain_error_bound_value(v_norm_sq: float, omega_c: float, modes: int,
                            t: float) -> float:
    """||v||^2 N^2 (2 e omega_c t / N)^N, evaluated in log space."""
    if t == 0.0:
        return 0.0
    log_b = math.log(v_norm_sq) + 2.0 * math.log(modes) \
        + modes * (math.log(2.0 * math.e * omega_c * t) - math.log(modes))
    if log_b > 700.0:
        return math.inf
    return math.exp(log_b)


def chain_error_single(coeffs: ChainCoefficients, t):
    """(actual, bound) for the single-particle chain truncation at time(s) t.

    actual = (1/2) || tau_t v - nu_t v ||^2 computed via quadrature of the
    pointwise residual |sum_j c_j(t) q_j(w) - exp(-i w t)|^2 |vhat(w)|^2
    against the discrete measure `star_to_chain` kept on the chain, so no
    large cancellation occurs; bound is the a-priori certificate.  `t` may
    be a scalar (two floats are returned) or an array of times (two arrays
    of its shape); the spectrum and polynomials are built once for all
    times, and actual is exactly 0 where t == 0.
    """
    if coeffs.measure is None:
        raise ValueError("chain has no discrete measure: map it with star_to_chain")
    times = np.asarray(t, dtype=float)
    ts = times.ravel()
    lam, wts = coeffs.measure
    mass = float(np.sum(wts))
    bound = np.array([chain_error_bound_value(mass, coeffs.omega_c,
                                              coeffs.modes, float(s))
                      for s in ts])
    # row k holds c(t_k) = ||v|| exp(-i A t_k) e_1
    c_t = coeffs.v_norm * chain_propagate_single(
        coeffs, np.eye(coeffs.modes)[0], ts)
    q = orthonormal_polynomials(coeffs, mass, lam)
    residual = c_t @ q - np.exp(-1j * np.outer(ts, lam))
    actual = 0.5 * (np.abs(residual) ** 2 @ wts)
    actual[ts == 0.0] = 0.0
    if times.ndim == 0:
        return float(actual[0]), float(bound[0])
    return actual.reshape(times.shape), bound.reshape(times.shape)


def flat_chain_error_mp(omega_c: float, modes: int, t: float, dps: int = 60):
    """(actual, bound) for the flat weight, in arbitrary precision.

    For |vhat|^2 = 1 on [-omega_c, omega_c] the orthonormal polynomials are
    rescaled Legendre polynomials and the overlap integrals reduce to
    spherical Bessel functions:

        int q_j(w) exp(-i w t) dw = sqrt(mass (2j+1)) (-i)^j j_j(omega_c t)

    which makes the tiny truncation errors (far below float64 resolution)
    computable by direct cancellation at high working precision.  Returned
    values are plain floats; ``bound`` matches `chain_error_bound_value`.
    """
    if t == 0.0:
        return 0.0, 0.0
    import mpmath as mp

    with mp.workdps(dps):
        wc = mp.mpf(omega_c)
        tt = mp.mpf(t)
        mass = 2 * wc
        a = mp.matrix(modes, modes)
        for k in range(modes - 1):
            hop = wc * (k + 1) / mp.sqrt(4 * (k + 1) ** 2 - 1)
            a[k, k + 1] = hop
            a[k + 1, k] = hop
        vals, vecs = mp.eigsy(a)
        z = wc * tt
        phases = [mp.exp(mp.mpc(0, -1) * vals[i] * tt) for i in range(modes)]
        overlap = mp.mpc(0)
        for j in range(modes):
            # c_j(t) = sqrt(mass) * (exp(-i A t))_{j, 0}
            cj = mp.mpc(0)
            for i in range(modes):
                cj += vecs[j, i] * phases[i] * vecs[0, i]
            cj *= mp.sqrt(mass)
            bessel = mp.sqrt(mp.pi / (2 * z)) * mp.besselj(j + mp.mpf(1) / 2, z)
            i_j = mp.sqrt(mass * (2 * j + 1)) * mp.mpc(0, -1) ** j * bessel
            overlap += mp.conj(cj) * i_j
        actual = mass - mp.re(overlap)
        bound = mass * modes**2 * (2 * mp.e * wc * tt / modes) ** modes
        # Truncation errors below the working precision register as noise of
        # order mass * 10**-dps; report them as an exact zero.
        return max(float(actual), 0.0), float(bound)
