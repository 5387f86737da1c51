import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from nmk_sim import kernels as ker
from nmk_sim.errors import (
    EpsilonTooLarge,
    GridTooCoarse,
    NonPositiveDensity,
    TailNotNegligible,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


# -- spectral densities -------------------------------------------------------

def test_delta_at_origin_is_flat():
    kernel = ker.MemoryKernel.delta_train([(1.0, 0.0)])
    for w in (-3.0, 0.0, 0.7, 42.0):
        assert ker.eval_spectral_density(kernel, w) == pytest.approx(1.0)


def test_lorentzian_peak_value(lorentzian_kernel):
    assert ker.eval_spectral_density(lorentzian_kernel, 0.0) == pytest.approx(1.0)


def test_tabulated_flat_interpolates():
    kernel = ker.MemoryKernel.tabulated(np.linspace(-1, 1, 41), np.ones(41))
    assert ker.eval_spectral_density(kernel, 0.5) == pytest.approx(1.0)
    assert ker.eval_spectral_density(kernel, 2.0) == 0.0


@pytest.mark.parametrize("grid", [np.linspace(1, -1, 41), np.ones(41)],
                         ids=["reversed", "zero-step"])
def test_tabulated_grid_must_increase(grid):
    with pytest.raises(ValueError, match="strictly increasing"):
        ker.MemoryKernel.tabulated(grid, np.ones(41))


def test_asymmetric_train_rejected():
    kernel = ker.MemoryKernel.delta_train([(1.0, 0.5)])
    with pytest.raises(NonPositiveDensity):
        ker.eval_spectral_density(kernel, 1.0)


def test_negative_mirror_train_accepted():
    # 1 - cos(0.8 w) >= 0: a valid destructive-feedback density
    kernel = ker.MemoryKernel.delta_train([(-0.5, -0.8), (1.0, 0.0), (-0.5, 0.8)])
    vals = ker.eval_spectral_density(kernel, np.linspace(-9, 9, 101))
    assert np.all(vals >= 0.0)


def test_atom_order_enforced():
    with pytest.raises(ValueError):
        ker.MemoryKernel.delta_train([(1.0, 0.5), (1.0, 0.5)])


# -- total variation ----------------------------------------------------------

def test_tv_delta_train_inside():
    kernel = ker.MemoryKernel.delta_train([(1.0, 0.5), (2.0j, 0.7)])
    assert ker.total_variation(kernel, (0.0, 1.0)) == pytest.approx(3.0)


def test_tv_delta_train_outside():
    kernel = ker.MemoryKernel.delta_train([(1.0, 2.0)])
    assert ker.total_variation(kernel, (0.0, 1.0)) == 0.0


def test_tv_lorentzian_full_line(lorentzian_kernel):
    # closed form: int (1/2) exp(-|t|) dt = 1
    assert ker.total_variation(lorentzian_kernel, (-20.0, 20.0)) == pytest.approx(
        1.0, abs=1e-6)


def _tv_by_quad(kernel, a, b):
    points = [0.0] if a < 0.0 < b else None
    return quad(lambda t: abs(kernel.time_density(t)), a, b, points=points,
                epsabs=0.0, epsrel=2e-14, limit=400)[0]


@pytest.mark.parametrize("window", [(-1.0, 1.0), (-1.0, 1.3), (-1.0, 3.0),
                                    (-1.0, 9.0), (0.2, 2.5), (0.0, 1.0),
                                    (-4.0, -0.3), (-2.0, 0.0), (5.0, 5.001)])
def test_tv_lorentzian_closed_form_matches_quad(window):
    # one shared center: |kappa| is the sum of the term moduli
    kernel = ker.MemoryKernel.lorentzian_sum([(1.0, 0.7, 0.8), (0.4, 0.7, 3.0)])
    a, b = window
    assert ker.total_variation(kernel, window) == pytest.approx(
        _tv_by_quad(kernel, a, b), rel=1e-13, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(w0=st.floats(-3, 3), w1=st.floats(-3, 3), g1=st.floats(0.2, 3),
       alpha1=st.floats(0.1, 2), a=st.floats(-2, 1), width=st.floats(0.05, 3))
def test_tv_lorentzian_mixed_centers_is_upper_bound(w0, w1, g1, alpha1, a, width):
    kernel = ker.MemoryKernel.lorentzian_sum([(1.0, w0, 0.9), (alpha1, w1, g1)])
    b = a + width
    assert ker.total_variation(kernel, (a, b)) >= _tv_by_quad(kernel, a, b) - 1e-12


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-3, 1), width1=st.floats(0.01, 2), width2=st.floats(0.01, 2))
def test_tv_lorentzian_additive_over_adjacent_windows(a, width1, width2):
    kernel = ker.MemoryKernel.lorentzian_sum([(1.0, 0.5, 0.8), (0.3, -1.0, 2.0)])
    b = a + width1
    c = b + width2
    parts = ker.total_variation(kernel, (a, b)) + ker.total_variation(kernel, (b, c))
    assert parts == pytest.approx(ker.total_variation(kernel, (a, c)),
                                  rel=1e-14, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-3, 0), width1=st.floats(0.2, 2), width2=st.floats(0.2, 2),
       gap=st.floats(0.01, 1))
def test_tv_superadditive_and_monotone(a, width1, width2, gap):
    kernel = ker.MemoryKernel.delta_train([(1.0, -0.5), (0.3j, 0.2), (2.0, 1.1)])
    b = a + width1
    c = b + gap
    d = c + width2
    parts = ker.total_variation(kernel, (a, b)) + ker.total_variation(kernel, (c, d))
    whole = ker.total_variation(kernel, (a, d))
    assert whole >= parts - 1e-12
    assert ker.total_variation(kernel, (a, d)) >= ker.total_variation(
        kernel, (a + 0.1 * width1, d - 0.1 * width2)) - 1e-12


# -- error functions ----------------------------------------------------------

def test_error_functions_lorentzian(lorentzian_kernel):
    # eps * sum alpha sqrt(gamma^2 + omega^2) / (2 gamma) with Delta1 = 0
    d0, d1 = ker.error_functions(lorentzian_kernel, (0.0, 1.0), 0.1)
    assert d0 == pytest.approx(0.05)
    assert d1 == 0.0


def test_error_functions_delta_interior():
    kernel = ker.MemoryKernel.delta_train([(1.0, 0.5)])
    d0, d1 = ker.error_functions(kernel, (0.0, 1.0), 0.1)
    assert d0 == 0.0
    assert d1 == pytest.approx(0.1)


def test_error_functions_delta_windows():
    kernel = ker.MemoryKernel.delta_train([(2.0, 0.05), (1.0, 0.93)])
    d0, d1 = ker.error_functions(kernel, (0.0, 1.0), 0.1)
    # atom at 0.05 in (a, a+eps]: doubled; atom at 0.93 in (b-eps, b]: doubled
    assert d0 == pytest.approx(2.0 * 2.0 + 2.0 * 1.0)
    assert d1 == 0.0


def test_error_functions_epsilon_guard(lorentzian_kernel):
    with pytest.raises(EpsilonTooLarge):
        ker.error_functions(lorentzian_kernel, (0.0, 1.0), 0.5)


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(0.01, 0.24), frac=st.floats(0.05, 0.95))
def test_error_functions_monotone_in_eps(eps, frac):
    # Delta0 is monotone for every kind (outer windows only grow with eps).
    # Delta1 is monotone for the continuous kinds (identically zero there)
    # and for delta trains as long as no atom crosses the eps window; the
    # closed forms themselves allow Delta1 to drop when an atom migrates
    # into the doubled Delta0 bucket (see the migration test below).
    kernels = [
        ker.MemoryKernel.lorentzian_sum([(1.0, 0.5, 0.8)]),
        ker.MemoryKernel.delta_train([(1.0, 0.4), (0.5, 0.6)]),
        ker.MemoryKernel.tabulated(np.linspace(-2, 2, 65),
                                   1.0 / (1.0 + np.linspace(-2, 2, 65) ** 2)),
    ]
    eps_small = frac * eps
    for kernel in kernels:
        d0s, d1s = ker.error_functions(kernel, (0.0, 1.0), eps_small)
        d0, d1 = ker.error_functions(kernel, (0.0, 1.0), eps)
        assert d0s <= d0 + 1e-12
        assert d1s <= d1 + 1e-12


def test_error_functions_atom_bucket_migration():
    """An atom within eps of an endpoint leaves Delta1 and doubles in Delta0."""
    kernel = ker.MemoryKernel.delta_train([(1.0, 0.1)])
    d0_in, d1_in = ker.error_functions(kernel, (0.0, 1.0), 0.05)
    d0_out, d1_out = ker.error_functions(kernel, (0.0, 1.0), 0.2)
    assert (d0_in, d1_in) == (0.0, pytest.approx(0.05))
    assert (d0_out, d1_out) == (pytest.approx(2.0), 0.0)


# -- mu-star ------------------------------------------------------------------

def test_mu_star_interior_atom():
    kernel = ker.MemoryKernel.delta_train([(1.0, 0.5)])
    grid = np.linspace(0.0, 1.0, 101)
    val = ker.apply_mu_star(kernel, (0.0, 1.0), grid, np.ones_like(grid))
    assert val == pytest.approx(0.5)


def test_mu_star_endpoint_atom_half_weight():
    kernel = ker.MemoryKernel.delta_train([(1.0, 0.0)])
    ones = np.ones(101)
    val = ker.apply_mu_star(kernel, (0.0, 1.0), ones, np.zeros(101))
    assert val == pytest.approx(0.5)


def test_mu_star_lorentzian_total_mass(lorentzian_kernel):
    grid = np.linspace(-20.0, 20.0, 2001)
    val = ker.apply_mu_star(lorentzian_kernel, (-20.0, 20.0),
                            np.ones_like(grid), np.zeros_like(grid))
    assert val == pytest.approx(1.0, abs=1e-6)


def test_mu_star_grid_too_coarse(lorentzian_kernel):
    grid = np.linspace(0.0, 1.0, 11)
    f = np.sin(40.0 * grid)
    df = 40.0 * np.cos(40.0 * grid)
    with pytest.raises(GridTooCoarse):
        ker.apply_mu_star(lorentzian_kernel, (0.0, 1.0), f, df)


def _compact_bump(a, b, t):
    # normalized so sup |f| = 1
    scale = ((b - a) / 2.0) ** 4
    f = ((t - a) * (b - t)) ** 2 / scale
    df = 2.0 * (t - a) * (b - t) * ((b - t) - (t - a)) / scale
    return f, df


@pytest.mark.parametrize("kind", ["lorentzian", "delta", "tabulated"])
def test_mu_star_matches_direct_pairing_on_compact_f(kind):
    """For f in C^1_c, <mu*, f> agrees with the direct <mu, f> quadrature."""
    a, b = -1.0, 2.0
    grid = np.linspace(a, b, 64001)
    f, df = _compact_bump(a, b, grid)
    fb = lambda t: _compact_bump(a, b, t)[0]
    if kind == "lorentzian":
        kernel = ker.MemoryKernel.lorentzian_sum([(1.2, 0.3, 0.9)])
        direct = quad(lambda t: fb(t) * kernel.time_density(np.array([t]))[0].real,
                      a, b, points=[0.0], limit=200)[0] \
            + 1j * quad(lambda t: fb(t) * kernel.time_density(np.array([t]))[0].imag,
                        a, b, points=[0.0], limit=200)[0]
    elif kind == "delta":
        kernel = ker.MemoryKernel.delta_train([(0.7, -0.2), (1.1, 1.4)])
        direct = 0.7 * fb(-0.2) + 1.1 * fb(1.4)
    else:
        w = np.linspace(-3.0, 3.0, 201)
        kernel = ker.MemoryKernel.tabulated(w, np.exp(-w**2))
        kappa = kernel.time_density(grid)
        direct = np.trapezoid(f * kappa, grid)
    val = ker.apply_mu_star(kernel, (a, b), f, df)
    assert val == pytest.approx(direct, abs=1e-8)


def _mollified_pairing(kernel, mol, a, b, f_func):
    """Oracle for <mu, rho_eps * (f I_[a,b])> by nested quadrature."""
    eps = mol.epsilon
    y = np.linspace(a, b, 4001)
    fy = f_func(y)
    x = np.linspace(a - eps, b + eps, 4001)

    def g(xv):
        xv = np.atleast_1d(xv)
        out = np.empty(len(xv), dtype=complex)
        for i, xi in enumerate(xv):
            r = mol.density((xi - y) / eps) / eps
            out[i] = np.trapezoid(r * fy, y)
        return out

    if kernel.kind == ker.DELTA_TRAIN:
        return sum(wgt * g(loc)[0] for wgt, loc in kernel.atoms)
    gx = g(x)
    return np.trapezoid(gx * kernel.time_density(x), x)


@pytest.mark.parametrize("kind", ["lorentzian", "delta", "tabulated"])
@pytest.mark.parametrize("f_name", ["poly", "sine"])
def test_mollified_convergence_bound(kind, f_name):
    """|<mu*, f> - <mu, rho_eps * f>| <= Delta0 sup|f| + Delta1 sup|f'|."""
    a, b = 0.0, 1.5
    eps = 0.12
    if kind == "lorentzian":
        kernel = ker.MemoryKernel.lorentzian_sum([(1.0, 0.4, 0.7)])
    elif kind == "delta":
        kernel = ker.MemoryKernel.delta_train([(0.8, 0.5), (0.4, 1.0)])
    else:
        w = np.linspace(-4.0, 4.0, 321)
        kernel = ker.MemoryKernel.tabulated(w, np.exp(-0.5 * w**2))
    if f_name == "poly":
        f_func = lambda t: 0.3 + t - 0.5 * t**2
        df_func = lambda t: 1.0 - t
    else:
        f_func = lambda t: np.sin(2.0 * t) + 0.1
        df_func = lambda t: 2.0 * np.cos(2.0 * t)
    mol = ker.Mollifier(eps)
    grid = np.linspace(a, b, 3001)
    lhs = ker.apply_mu_star(kernel, (a, b), f_func(grid), df_func(grid), tol=1e-6)
    rhs = _mollified_pairing(kernel, mol, a, b, f_func)
    d0, d1 = ker.error_functions(kernel, (a, b), eps)
    budget = d0 * np.max(np.abs(f_func(grid))) + d1 * np.max(np.abs(df_func(grid)))
    assert abs(lhs - rhs) <= budget + 1e-6


# -- mollifiers ---------------------------------------------------------------

@pytest.mark.parametrize("family", [ker.STANDARD_BUMP, ker.BUMP_SQUARED])
def test_mollifier_axioms(family):
    mol = ker.Mollifier(0.3, family)
    mass = quad(lambda x: mol.density(np.array([x]))[0], -1.0, 1.0, limit=200)[0]
    assert mass == pytest.approx(1.0, abs=1e-10)
    x = np.linspace(-1.2, 1.2, 97)
    rho = mol.density(x)
    assert np.all(rho >= 0.0)
    assert np.allclose(rho, rho[::-1])
    assert np.all(rho[np.abs(x) >= 1.0] == 0.0)
    assert mol.fourier(0.0) == pytest.approx(1.0 / SQRT_2PI, abs=1e-10)


def test_mollifier_fourier_at_zero():
    mol = ker.Mollifier(0.05)
    assert ker.mollifier_fourier(mol, 0.0) == pytest.approx(0.3989422804014327)


def test_mollifier_fourier_is_real():
    # symmetric rho: imaginary part of the transform vanishes identically;
    # check against a complex-exponential quadrature oracle
    mol = ker.Mollifier(0.5)
    for k in (0.7, 3.2):
        im = quad(lambda x: mol.density(np.array([x]))[0] * math.sin(k * x),
                  -1.0, 1.0, limit=200)[0]
        assert abs(im) < 1e-12


def test_mollifier_fourier_superpolynomial_decay():
    # frozen oracle values from 40-digit quadrature of the standard bump
    mol = ker.Mollifier(0.01)
    assert ker.mollifier_fourier(mol, 100.0 / 0.01) == pytest.approx(
        2.0082190088e-06, rel=1e-6)
    assert abs(ker.mollifier_fourier(mol, 300.0 / 0.01)) < 1e-8


def test_gl_rule_matches_leggauss():
    x, w = ker._gl_rule()
    ref_x, ref_w = leggauss(384)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


@pytest.mark.parametrize("family", [ker.STANDARD_BUMP, ker.BUMP_SQUARED])
@pytest.mark.parametrize("shape", [(), (1,), (777,), (8193,), (23, 41)],
                         ids=["0d", "1", "777", "8193", "2d"])
def test_fourier_keeps_full_table_bits(family, shape):
    # the mirrored half table must reproduce the full cosine table exactly:
    # the chain map's nodes, and so chain.json, depend on these bits
    mol = ker.Mollifier(0.05, family)
    rng = np.random.default_rng(len(shape) * 10_000 + sum(shape))
    k = rng.uniform(-200.0, 200.0, shape)
    x, w = leggauss(384)
    ref = np.cos(np.multiply.outer(k, x)) @ (w * mol.density(x)) / SQRT_2PI
    got = mol.fourier(k)
    assert np.array_equal(got, ref)
    assert isinstance(got, float) if k.ndim == 0 else got.shape == shape


@pytest.mark.parametrize("family", [ker.STANDARD_BUMP, ker.BUMP_SQUARED])
@pytest.mark.parametrize("eps", [0.02, 0.05])
@pytest.mark.parametrize("n", [64, 65, 8193])
def test_fourier_on_grid_matches_direct_sum(family, eps, n):
    mol = ker.Mollifier(eps, family)
    for omega_eps in (0.3, 7.0, 31.0, 77.7, 109.0, 150.0):
        w = np.linspace(-omega_eps / eps, omega_eps / eps, n)
        got = ker._fourier_on_grid(mol, w)
        assert np.max(np.abs(got - mol.fourier(eps * w))) <= 2e-15


def test_regularize_peak_memory(lorentzian_kernel):
    # the desk kernel's 8193-point grid once took a 48 MB cosine table
    mol = ker.Mollifier(0.05)
    grid = ker.choose_grid(lorentzian_kernel, mol)
    ker.regularize(lorentzian_kernel, mol, grid)     # warm the rule caches
    tracemalloc.start()
    try:
        ker.regularize(lorentzian_kernel, mol, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid[1] == 8193
    assert peak < 4e6


# -- regularized couplings ----------------------------------------------------

def test_regularize_inverse_eps_scaling():
    kernel = ker.MemoryKernel.delta_train([(1.0, 0.0)])
    couplings = []
    for eps in (0.02, 0.01):
        mol = ker.Mollifier(eps)
        couplings.append(ker.regularize(kernel, mol,
                                        ker.choose_grid(kernel, mol, 20001)))
    assert (couplings[1].l2_norm / couplings[0].l2_norm) ** 2 == pytest.approx(
        2.0, rel=1e-4)


def test_regularize_flat_peak_value():
    grid = np.linspace(-1, 1, 101)
    kernel = ker.MemoryKernel.tabulated(grid, np.ones_like(grid))
    coup = ker.regularize(kernel, ker.Mollifier(0.01), (3.0, 4097))
    mid = len(coup.grid) // 2
    assert abs(coup.values[mid]) ** 2 == pytest.approx(1.0 / (2.0 * math.pi),
                                                       rel=1e-10)


def test_regularize_l2_against_refined_quadrature(lorentzian_kernel):
    mol = ker.Mollifier(0.05)
    omega_max = 600.0
    coup = ker.regularize(lorentzian_kernel, mol, (omega_max, 16385))

    def weight(w):
        return ker.eval_spectral_density(lorentzian_kernel, w) \
            * float(ker.mollifier_fourier(mol, w)) ** 2

    oracle, _ = quad(weight, -omega_max, omega_max, limit=500,
                     points=[-1.0, 0.0, 1.0])
    assert coup.l2_norm**2 == pytest.approx(oracle, rel=1e-6)


def test_regularize_modulus_invariant(lorentzian_kernel):
    kernel = ker.MemoryKernel.lorentzian_sum([(1.0, 0.0, 1.0)],
                                             phase_poly=(0.0, 0.3))
    mol = ker.Mollifier(0.05)
    coup = ker.regularize(kernel, mol, ker.choose_grid(kernel, mol))
    mu = ker.eval_spectral_density(kernel, coup.grid)
    rho = np.asarray(ker.mollifier_fourier(mol, coup.grid))
    assert np.allclose(np.abs(coup.values) ** 2, mu * rho**2, atol=1e-14)


def test_regularize_tail_guard(lorentzian_kernel):
    with pytest.raises(TailNotNegligible):
        ker.regularize(lorentzian_kernel, ker.Mollifier(0.05), (50.0, 1025))


def test_coupling_compares_by_identity(lorentzian_coupling):
    copy = dataclasses.replace(lorentzian_coupling,
                               grid=lorentzian_coupling.grid.copy(),
                               values=lorentzian_coupling.values.copy())
    assert copy != lorentzian_coupling
    assert lorentzian_coupling == lorentzian_coupling


def test_phase_drops_out_of_weight(lorentzian_kernel):
    mol = ker.Mollifier(0.05)
    grid = ker.choose_grid(lorentzian_kernel, mol)
    plain = ker.regularize(lorentzian_kernel, mol, grid)
    phased = ker.regularize(
        ker.MemoryKernel.lorentzian_sum([(1.0, 0.0, 1.0)], phase_poly=(0.0, 1.7)),
        mol, grid)
    assert plain.l2_norm == pytest.approx(phased.l2_norm, rel=1e-12)
