"""Memory kernels as radon measures and their regularized couplings.

A kernel is a pair (mu, phi): a tempered radon measure mu together with a
smooth phase phi.  Conventions used throughout (and anchored by the unit
delta kernel, whose spectral density is identically 1):

    spectral density   mu_hat(w)   with  <mu, f> = int mu_hat(w) f_hat(w) dw / sqrt(2 pi)
    time density       kappa(t)  = (1 / 2 pi) int mu_hat(w) exp(-i w t) dw
    mollifier fourier  rho_hat(k) = (1 / sqrt(2 pi)) int rho(x) exp(-i k x) dx
    regularized        vhat_eps(w) = sqrt(mu_hat(w)) rho_hat(w eps) exp(i phi(w))

so rho_hat(0) = 1 / sqrt(2 pi) and |vhat_eps|^2 -> mu_hat / (2 pi) pointwise
as eps -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from importlib import resources

import numpy as np

from .errors import (
    EpsilonTooLarge,
    GridTooCoarse,
    NonPositiveDensity,
    QuadratureNotConverged,
    TailNotNegligible,
)

IMAG_TOL = 1e-12

LORENTZIAN_SUM = "lorentzian_sum"
DELTA_TRAIN = "delta_train"
TABULATED = "tabulated"

_KINDS = (LORENTZIAN_SUM, DELTA_TRAIN, TABULATED)


@dataclass(frozen=True)
class MemoryKernel:
    """Radon-measure memory kernel plus a polynomial phase.

    Exactly one of the per-kind payloads is populated, selected by ``kind``.
    ``phase_poly`` holds polynomial coefficients of phi(w), lowest order
    first; the default is phi == 0.
    """

    kind: str
    lorentzians: tuple = ()          # (alpha > 0, omega, gamma > 0)
    atoms: tuple = ()                # (weight complex, location), locations increasing
    tab_omega: np.ndarray | None = None
    tab_values: np.ndarray | None = None
    phase_poly: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not np.isfinite(self.phase_poly).all():
            raise ValueError("phase polynomial coefficients must be finite")
        if self.kind == LORENTZIAN_SUM:
            if not self.lorentzians:
                raise ValueError("lorentzian_sum kernel needs at least one term")
            for a, w0, g in self.lorentzians:
                if a <= 0 or g <= 0:
                    raise ValueError("lorentzian terms need alpha > 0 and gamma > 0")
                if not math.isfinite(g * g + w0 * w0):    # as the density
                    raise ValueError("lorentzian terms need gamma**2 + "
                                     "omega**2 in the float range")
        elif self.kind == DELTA_TRAIN:
            if not self.atoms:
                raise ValueError("delta_train kernel needs at least one atom")
            locs = [loc for _, loc in self.atoms]
            if any(b <= a for a, b in zip(locs, locs[1:])):
                raise ValueError("atom locations must be strictly increasing")
        else:
            grid = np.asarray(self.tab_omega, dtype=float)
            vals = np.asarray(self.tab_values, dtype=float)
            if grid.ndim != 1 or grid.shape != vals.shape or grid.size < 2:
                raise ValueError("tabulated kernel needs matching 1-d grids")
            steps = np.diff(grid)
            if not (steps[0] > 0
                    and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)):
                raise ValueError("tabulated kernel grid must be uniform and "
                                 "strictly increasing")
            if np.any(vals < 0):
                raise ValueError("tabulated spectral density must be nonnegative")
            object.__setattr__(self, "tab_omega", grid)
            object.__setattr__(self, "tab_values", vals)

    # -- constructors -------------------------------------------------------

    @classmethod
    def lorentzian_sum(cls, terms, phase_poly=()):
        return cls(LORENTZIAN_SUM, lorentzians=tuple(tuple(t) for t in terms),
                   phase_poly=tuple(phase_poly))

    @classmethod
    def delta_train(cls, atoms, phase_poly=()):
        return cls(DELTA_TRAIN, atoms=tuple((complex(w), float(x)) for w, x in atoms),
                   phase_poly=tuple(phase_poly))

    @classmethod
    def tabulated(cls, omega, values, phase_poly=()):
        return cls(TABULATED, tab_omega=np.asarray(omega, dtype=float),
                   tab_values=np.asarray(values, dtype=float),
                   phase_poly=tuple(phase_poly))

    # -- helpers ------------------------------------------------------------

    def phase(self, omega):
        """phi(w) evaluated from the polynomial coefficients."""
        omega = np.asarray(omega, dtype=float)
        out = np.zeros_like(omega)
        for k, c in enumerate(self.phase_poly):
            out = out + c * omega**k
        return out

    def time_density(self, t):
        """kappa(t) of the continuous part (undefined for delta trains)."""
        t = np.asarray(t, dtype=float)
        if self.kind == LORENTZIAN_SUM:
            out = np.zeros(t.shape, dtype=complex)
            for a, w0, g in self.lorentzians:
                out += (a / (2.0 * g)) * np.exp(-g * np.abs(t)) * np.exp(-1j * w0 * t)
            return out
        if self.kind == TABULATED:
            # (1/2pi) int mu_hat exp(-i w t) dw over the tabulated support.
            w = self.tab_omega
            phases = np.exp(-1j * np.multiply.outer(t, w))
            return np.trapezoid(phases * self.tab_values, w, axis=-1) / (2.0 * math.pi)
        raise ValueError("delta trains have no continuous time density")


def eval_spectral_density(kernel: MemoryKernel, omega):
    """Spectral density mu_hat at the given frequency (scalar or array).

    Delta trains evaluate sum_i a_i exp(-i w tau_i); only self-adjoint
    configurations where this is real and nonnegative are accepted.
    """
    omega_arr = np.asarray(omega, dtype=float)
    if kernel.kind == LORENTZIAN_SUM:
        out = np.zeros(omega_arr.shape)
        for a, w0, g in kernel.lorentzians:
            out = out + a / ((omega_arr - w0) ** 2 + g**2)
    elif kernel.kind == DELTA_TRAIN:
        acc = np.zeros(omega_arr.shape, dtype=complex)
        for w, loc in kernel.atoms:
            acc = acc + w * np.exp(-1j * omega_arr * loc)
        scale = max(1.0, float(np.max(np.abs(acc))) if acc.size else 1.0)
        if np.max(np.abs(acc.imag)) > IMAG_TOL * scale:
            raise NonPositiveDensity(
                "delta-train spectral density is complex; "
                "only self-adjoint atom configurations are supported"
            )
        out = acc.real
        if np.min(out) < -IMAG_TOL * scale:
            raise NonPositiveDensity("delta-train spectral density is negative")
        out = np.maximum(out, 0.0)
    else:
        out = np.interp(omega_arr, kernel.tab_omega, kernel.tab_values,
                        left=0.0, right=0.0)
    return out if np.ndim(omega) else float(out)


def _exp_abs_integral(g, a, b):
    """int_a^b exp(-g |t|) dt for a < b, free of cancellation."""
    if a >= 0.0:
        return -math.exp(-g * a) * math.expm1(-g * (b - a)) / g
    if b <= 0.0:
        return -math.exp(g * b) * math.expm1(-g * (b - a)) / g
    return -(math.expm1(g * a) + math.expm1(-g * b)) / g


def total_variation(kernel: MemoryKernel, interval) -> float:
    """Total variation of the kernel restricted to [a, b].

    Lorentzian sums take the closed form
    sum_j (alpha_j / 2 gamma_j) int_a^b exp(-gamma_j |t|) dt.  It is exact
    when all terms share one center omega (every alpha_j > 0, so the terms
    add in phase); with mixed centers it is an upper bound by the triangle
    inequality, which every consumer may use, since each enters an upper
    bound.  Tabulated kernels integrate |kappa| with adaptive quadrature.
    """
    a, b = interval
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    if kernel.kind == DELTA_TRAIN:
        return float(sum(abs(w) for w, loc in kernel.atoms if a <= loc <= b))
    if kernel.kind == LORENTZIAN_SUM:
        return float(sum(al / (2.0 * g) * _exp_abs_integral(g, a, b)
                         for al, _, g in kernel.lorentzians))

    from scipy.integrate import quad

    def speed(t):
        return abs(kernel.time_density(t))

    points = [p for p in (0.0,) if a < p < b]
    val, err = quad(speed, a, b, points=points or None, limit=400)
    if err > 1e-8 * max(1.0, abs(val)):
        raise QuadratureNotConverged(
            f"total-variation quadrature error {err:.2e} on [{a}, {b}]"
        )
    return float(val)


def weighted_density_integral(kernel: MemoryKernel) -> float:
    """Exact int mu_hat(w) / (1 + w^2) dw over the real line.

    Lorentzian terms alpha / ((w - w0)^2 + gamma^2) give
    alpha pi (gamma + 1) / (gamma (w0^2 + (gamma + 1)^2)); a delta atom
    a exp(-i w x) gives pi Re(a) exp(-|x|); a tabulated density, linear
    m + s (w - w_k) on each grid segment and zero outside, gives
    (m - s w_k) (atan w_{k+1} - atan w_k)
    + (s / 2) (log1p(w_{k+1}^2) - log1p(w_k^2)) per segment.
    """
    if kernel.kind == LORENTZIAN_SUM:
        return sum(a * math.pi * (g + 1.0) / (g * (w0**2 + (g + 1.0) ** 2))
                   for a, w0, g in kernel.lorentzians)
    if kernel.kind == DELTA_TRAIN:
        return math.pi * sum(w.real * math.exp(-abs(x))
                             for w, x in kernel.atoms)
    w, m = kernel.tab_omega, kernel.tab_values
    s = np.diff(m) / np.diff(w)
    return float(np.sum((m[:-1] - s * w[:-1]) * np.diff(np.arctan(w))
                        + 0.5 * s * np.diff(np.log1p(w**2))))


def error_functions(kernel: MemoryKernel, interval, eps: float):
    """Mollification error moduli (delta0, delta1) on [a, b] at scale eps.

    Closed forms per kernel kind; tabulated kernels use the Lipschitz bound
    |kappa'| <= (1/2pi) int |w| mu_hat(w) dw of their continuous density.
    """
    a, b = interval
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    if not 0.0 < eps < (b - a) / 2.0:
        raise EpsilonTooLarge(f"need 0 < eps < (b-a)/2, got eps={eps}, b-a={b - a}")

    if kernel.kind == LORENTZIAN_SUM:
        lip = sum(al * math.hypot(g, w0) / (2.0 * g) for al, w0, g in kernel.lorentzians)
        return eps * lip, 0.0

    if kernel.kind == TABULATED:
        w = kernel.tab_omega
        lip = np.trapezoid(np.abs(w) * kernel.tab_values, w) / (2.0 * math.pi)
        return eps * float(lip), 0.0

    # Delta train: outer-window atoms feed delta0, interior atoms delta1.
    d0 = 0.0
    d1 = 0.0
    for wgt, y in kernel.atoms:
        m = abs(wgt)
        if (a - eps <= y < a) or (b < y <= b + eps):
            d0 += m
        if (a < y <= a + eps) or (b - eps < y <= b):
            d0 += 2.0 * m
        if a + eps < y < b - eps:
            d1 += m
        if y == a or y == b:
            d1 += 0.5 * m
    return d0, eps * d1


def _lorentzian_cumulative(kernel, x):
    """phi_c(x) = int_{-inf}^x kappa for a lorentzian-sum kernel (closed form)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for a, w0, g in kernel.lorentzians:
        zm = g - 1j * w0
        zp = g + 1j * w0
        neg = np.exp(zm * np.minimum(x, 0.0)) / zm
        pos = 1.0 / zm + (1.0 - np.exp(-zp * np.maximum(x, 0.0))) / zp
        out += (a / (2.0 * g)) * np.where(x <= 0.0, neg, pos)
    return out


def _cumulative(kernel, x):
    """Cumulative of the continuous part, up to an additive constant."""
    if kernel.kind == LORENTZIAN_SUM:
        return _lorentzian_cumulative(kernel, x)
    if kernel.kind == TABULATED:
        x = np.asarray(x, dtype=float)
        kap = kernel.time_density(x)
        out = np.zeros(x.shape, dtype=complex)
        out[1:] = np.cumsum(0.5 * (kap[1:] + kap[:-1]) * np.diff(x))
        return out
    raise ValueError("delta trains contribute only atoms")


def apply_mu_star(kernel: MemoryKernel, interval, values, derivs,
                  tol: float = 1e-8) -> complex:
    """Apply the endpoint-regularized extension of the kernel to f on [a, b].

    ``values`` and ``derivs`` sample f and f' on a uniform grid over [a, b].
    Continuous part: f(b) phi_c(b) - f(a) phi_c(a) - int phi_c f'.  Atoms:
    weight 1 in the interior, weight 1/2 at the endpoints.
    """
    a, b = interval
    values = np.asarray(values, dtype=complex)
    derivs = np.asarray(derivs, dtype=complex)
    n = values.size
    if n != derivs.size:
        raise ValueError("values and derivs must have equal length")
    if n < 9:
        raise GridTooCoarse("need at least 9 samples on [a, b]")

    total = 0.0 + 0.0j
    if kernel.kind == DELTA_TRAIN:
        grid = np.linspace(a, b, n)
        for w, y in kernel.atoms:
            if y == a:
                total += 0.5 * w * values[0]
            elif y == b:
                total += 0.5 * w * values[-1]
            elif a < y < b:
                total += w * np.interp(y, grid, values.real) \
                    + 1j * w * np.interp(y, grid, values.imag)
        return complex(total)

    grid = np.linspace(a, b, n)
    phi_c = _cumulative(kernel, grid)
    integrand = phi_c * derivs
    h = (b - a) / (n - 1)
    i_h = np.trapezoid(integrand, dx=h)
    if (n - 1) % 2 == 0:
        i_2h = np.trapezoid(integrand[::2], dx=2.0 * h)
    else:
        i_2h = np.trapezoid(integrand[:-1:2], dx=2.0 * h) \
            + 0.5 * h * (integrand[-2] + integrand[-1])
    richardson = abs(i_h - i_2h) / 3.0
    boundary = values[-1] * phi_c[-1] - values[0] * phi_c[0]
    scale = max(1.0, abs(boundary), abs(i_h))
    if richardson > tol * scale:
        raise GridTooCoarse(
            f"estimated quadrature error {richardson:.2e} exceeds tolerance"
        )
    integral = i_h + (i_h - i_2h) / 3.0
    return complex(boundary - integral)


# -- mollifiers -------------------------------------------------------------

STANDARD_BUMP = "standard_bump"
BUMP_SQUARED = "bump_squared"

_HALF = 192      # the 384-node rule's positive nodes are x[_HALF:]


@cache
def _gl_rule():
    """The 384-node Gauss-Legendre rule on [-1, 1], as numpy's ``leggauss``.

    Read from a table shipped with the package, which holds the 192
    positive nodes and their weights and was written by
    ``np.save("gauss_legendre_384.npy", np.stack(leggauss(384))[:, 192:])``.
    The negative half is the positive half mirrored, as in ``leggauss``,
    so the rule is exactly symmetric: x[::-1] == -x and w[::-1] == w.
    Tests check it bit for bit against ``leggauss(384)``.
    """
    with resources.files(__package__).joinpath(
            "gauss_legendre_384.npy").open("rb") as fh:
        x, w = np.load(fh)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def _bump_profile(family, x):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    inside = np.abs(x) < 1.0
    arg = np.zeros(x.shape)
    arg[inside] = 1.0 / (1.0 - x[inside] ** 2)
    power = {STANDARD_BUMP: 1.0, BUMP_SQUARED: 2.0}[family]
    out[inside] = np.exp(-power * arg[inside])
    return out


@lru_cache(maxsize=8)
def _bump_norm(family):
    x, w = _gl_rule()
    return float(np.sum(w * _bump_profile(family, x)))


@lru_cache(maxsize=8)
def _weighted_density(family):
    """w_j rho(x_j) on the rule: rho_hat(k) is sum_j w_j rho(x_j) cos(k x_j)
    over sqrt(2 pi)."""
    x, w = _gl_rule()
    return w * (_bump_profile(family, x) / _bump_norm(family))


@dataclass(frozen=True)
class Mollifier:
    """Smooth symmetric unit-mass bump supported on [-1, 1], at scale eps."""

    epsilon: float
    family: str = STANDARD_BUMP

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("mollifier scale must be positive")
        if self.family not in (STANDARD_BUMP, BUMP_SQUARED):
            raise ValueError(f"unknown mollifier family {self.family!r}")

    def density(self, x):
        """rho(x) on the unit support."""
        return _bump_profile(self.family, x) / _bump_norm(self.family)

    def fourier(self, k):
        """rho_hat(k) at any k; real since rho is symmetric.

        One cosine table over the rule, with the cosines taken on the
        positive nodes only: `_gl_rule` mirrors its shipped positive half,
        so the rule is exactly symmetric and, cos being even, the table's
        negative-node half is its positive half mirrored; the table and its
        one matrix-vector product keep the bits of the full table.
        `mollifier_fourier` bounds the table by calling this on blocks of
        `_FOURIER_BLOCK` points.  ``regularize`` samples its uniform grid
        with `_fourier_on_grid` instead.
        """
        k = np.asarray(k, dtype=float)
        x, _ = _gl_rule()
        table = np.empty(k.shape + x.shape)
        pos = table[..., _HALF:]
        np.multiply.outer(k, x[_HALF:], out=pos)
        np.cos(pos, out=pos)
        table[..., :_HALF] = pos[..., ::-1]
        vals = table @ _weighted_density(self.family) / math.sqrt(2.0 * math.pi)
        return vals if k.ndim else float(vals)


def _fourier_on_grid(mollifier: Mollifier, w):
    """rho_hat(eps w) on a uniform grid w symmetric about 0, of n points.

    rho_hat is even, so only the n_h = ceil(n / 2) values at k_j = eps |w|
    on the nonnegative half are computed; there k_j = a_q + b_r with
    j = q s + r, s = ceil(sqrt n_h), a_q = k_{q s} and b_r = eps h r
    (h the grid step).  By cos((a + b) x) = cos(a x) cos(b x)
    - sin(a x) sin(b x) over the positive nodes, the values form a
    (ceil(n_h / s) x s) table of matrix products of width 192, in place
    of an (n x 384) cosine table.  Both angles are nonnegative, so their
    rounding is of the size of the direct sum's.  ``np.linspace`` points
    are uniform only to within rounding of the grid edge, which at
    eps Omega = 150 moves rho_hat by 1e-15; the first-order term
    d rho_hat'(a + b), with d = eps |w_m| - (a + b), puts each value at
    its own grid point, within 1e-15 of ``Mollifier.fourier``.
    """
    n = w.size
    eps = mollifier.epsilon
    n_half = (n + 1) // 2
    s = math.isqrt(n_half - 1) + 1
    blocks = -(-n_half // s)
    k = eps * np.abs(w)
    a = k[n // 2::s]
    b = (eps * (w[-1] - w[0]) / (n - 1)) * np.arange(s)
    x, _ = _gl_rule()
    x = x[_HALF:]
    c = 2.0 * _weighted_density(mollifier.family)[_HALF:] / math.sqrt(2.0 * math.pi)
    ax, xb = np.multiply.outer(a, x), np.multiply.outer(x, b)
    cos_a, sin_a, cos_b, sin_b = np.cos(ax), np.sin(ax), np.cos(xb), np.sin(xb)
    val = ((cos_a * c) @ cos_b - (sin_a * c) @ sin_b).ravel()[:n_half]
    der = -((sin_a * (c * x)) @ cos_b + (cos_a * (c * x)) @ sin_b).ravel()[:n_half]

    def mirror(half):     # values on |w| -> values on w
        return np.concatenate([half[::-1], half[n % 2:]])

    d = (k - mirror(np.repeat(a, s)[:n_half])) - mirror(np.tile(b, blocks)[:n_half])
    return mirror(val) + d * mirror(der)


# Points per `Mollifier.fourier` call in `mollifier_fourier`.  A block's
# (384 x 384) cosine table is 1.2 MB, so it fits in L2; 384 is a multiple of
# the 4 rows the BLAS matrix-vector kernel groups; and every chain-map level
# has a multiple of 96 nodes (12 nodes x max(8N, 32) panels x 2^j), so its
# blocks go through the same kernel row groups as one table of all its nodes.
_FOURIER_BLOCK = 384


def mollifier_fourier(mollifier: Mollifier, omega):
    """Fourier transform of the scaled mollifier, rho_hat(omega * eps).

    The points, flattened, go to `Mollifier.fourier` in consecutive blocks
    of `_FOURIER_BLOCK` from point 0; the last block takes the remainder,
    so it holds 384 to 767 points, and fewer than 384 points are one block.
    Each block's rows then meet the BLAS matrix-vector kernel in the same
    groups of 4 as in one table of all the points, which keeps its bits,
    while the table stays (384 x 384) instead of (points x 384).  A short
    trailing block would not: numpy/OpenBLAS take a different kernel for a
    1-row product.  A 0-d input returns a float, any other input an array
    of its shape.
    """
    k = np.asarray(omega, dtype=float) * mollifier.epsilon
    if k.ndim == 0:
        return mollifier.fourier(k)
    flat = k.ravel()
    out = np.empty(flat.shape)
    blocks = max(flat.size // _FOURIER_BLOCK, 1)
    for b in range(blocks):
        start = b * _FOURIER_BLOCK
        stop = start + _FOURIER_BLOCK if b + 1 < blocks else flat.size
        out[start:stop] = mollifier.fourier(flat[start:stop])
    return out.reshape(k.shape)


# -- regularized couplings ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class RegularizedCoupling:
    """Square-integrable coupling vhat_eps sampled on a uniform grid.

    ``l2_norm`` is the full-line L2 norm of v_eps (trapezoid on the grid) and
    ``sup_omega_vhat`` estimates ||w * vhat(w)||_inf.  When built through
    ``regularize`` the kernel and mollifier handles are retained so the
    weight |vhat|^2 can be evaluated exactly off-grid; couplings restored
    from samples fall back to interpolation.
    """

    grid: np.ndarray
    values: np.ndarray
    epsilon: float
    l2_norm: float
    sup_omega_vhat: float
    kernel: MemoryKernel | None = None
    mollifier: Mollifier | None = None

    @classmethod
    def from_samples(cls, grid, values, epsilon=0.0):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=complex)
        weight = np.abs(values) ** 2
        l2 = math.sqrt(float(np.trapezoid(weight, grid)))
        sup = float(np.max(np.abs(grid * values)))
        return cls(grid, values, epsilon, l2, sup)

    def weight(self, omega):
        """|vhat(omega)|^2, exact when kernel and mollifier are attached."""
        omega = np.asarray(omega, dtype=float)
        if self.kernel is not None and self.mollifier is not None:
            mu = eval_spectral_density(self.kernel, omega)
            rho = mollifier_fourier(self.mollifier, omega)
            out = np.asarray(mu) * np.asarray(rho) ** 2
        else:
            out = np.interp(omega, self.grid, np.abs(self.values) ** 2,
                            left=0.0, right=0.0)
        return out if omega.ndim else float(out)

    def vhat(self, omega):
        """vhat(omega), exact when kernel and mollifier are attached."""
        omega = np.asarray(omega, dtype=float)
        if self.kernel is not None and self.mollifier is not None:
            mu = np.asarray(eval_spectral_density(self.kernel, omega))
            rho = np.asarray(mollifier_fourier(self.mollifier, omega))
            out = np.sqrt(mu) * rho * np.exp(1j * self.kernel.phase(omega))
        else:
            out = np.interp(omega, self.grid, self.values.real) \
                + 1j * np.interp(omega, self.grid, self.values.imag)
        return out if omega.ndim else complex(out)

    def cutoff_l2_norm(self, omega_c: float) -> float:
        """L2 norm of the coupling restricted to [-omega_c, omega_c]."""
        sel = np.abs(self.grid) <= omega_c
        return math.sqrt(float(np.trapezoid(np.abs(self.values[sel]) ** 2,
                                            self.grid[sel])))


def _tail_weight(kernel: MemoryKernel, mollifier: Mollifier, omega):
    """|rho_hat(Omega eps)|^2 max(mu_hat(Omega), mu_hat(-Omega)): the weight
    of the coupling at the edges of the grid [-Omega, Omega]."""
    tail_rho = float(mollifier.fourier(np.array([omega * mollifier.epsilon]))[0])
    return tail_rho**2 * max(eval_spectral_density(kernel, omega),
                             eval_spectral_density(kernel, -omega))


def regularize(kernel: MemoryKernel, mollifier: Mollifier,
               grid) -> RegularizedCoupling:
    """Build the (eps, rho)-regularization of the kernel on [-Omega, Omega].

    ``grid`` is a pair (Omega, n_points).  Requires the truncated tail to be
    negligible: |rho_hat(Omega eps)|^2 mu_hat(Omega) < 1e-12.
    """
    omega_max, n_points = grid
    if n_points < 64:
        raise ValueError("need at least 64 grid points")
    eps = mollifier.epsilon
    tail = _tail_weight(kernel, mollifier, omega_max)
    if tail >= 1e-12:
        raise TailNotNegligible(
            f"|rho_hat(Omega eps)|^2 mu_hat(Omega) = {tail:.2e} >= 1e-12"
        )
    w = np.linspace(-omega_max, omega_max, int(n_points))
    mu = np.asarray(eval_spectral_density(kernel, w), dtype=float)
    rho = _fourier_on_grid(mollifier, w)
    vhat = np.sqrt(mu) * rho * np.exp(1j * kernel.phase(w))
    weight = np.abs(vhat) ** 2
    l2 = math.sqrt(float(np.trapezoid(weight, w)))
    sup = float(np.max(np.abs(w * vhat)))
    return RegularizedCoupling(w, vhat, eps, l2, sup, kernel=kernel,
                               mollifier=mollifier)


def choose_grid(kernel: MemoryKernel, mollifier: Mollifier,
                n_points: int = 8193, omega_start: float = 50.0):
    """Pick (Omega, n_points) with a negligible truncated tail."""
    omega = max(omega_start, 8.0 / mollifier.epsilon)
    for _ in range(60):
        if _tail_weight(kernel, mollifier, omega) < 1e-13:
            return omega, n_points
        omega *= 1.3
    raise TailNotNegligible("could not find a grid with negligible tail")
