import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

from nmk_sim import chain, dynamics as dyn, kernels as ker
from nmk_sim.chain import (
    ChainCoefficients,
    chain_error_single,
    chain_propagate_single,
    flat_chain_error_mp,
    gauss_quadrature,
    star_to_chain,
)
from nmk_sim.errors import DegenerateWeight, RecursionBreakdown, ShapeMismatch


# -- gauss quadrature ----------------------------------------------------------

def test_panel_rule_matches_leggauss():
    # the panel nodes and weights are shipped constants; the chain's bits
    # depend on them matching numpy's rule exactly
    x, w = chain._PANEL_RULE
    ref_x, ref_w = leggauss(12)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


def test_flat_one_node(flat_coupling):
    rule = gauss_quadrature(flat_coupling, 1.0, 1)
    assert rule.nodes[0] == pytest.approx(0.0, abs=1e-12)
    assert rule.weights[0] == pytest.approx(1.0)


def test_flat_two_nodes_match_legendre(flat_coupling):
    # oracle: the four moment equations solved exactly (Gauss-Legendre)
    rule = gauss_quadrature(flat_coupling, 1.0, 2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)],
                                       abs=1e-12)
    assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-12)


def test_flat_five_nodes_degree_eight_moment(flat_coupling):
    rule = gauss_quadrature(flat_coupling, 1.0, 5)
    # int w^8 / 2 dw over [-1, 1] = 1/9, computed by hand
    assert float(np.sum(rule.weights * rule.nodes**8)) == pytest.approx(
        1.0 / 9.0, abs=1e-12)


def _monomial_reference(coupling, omega_c, k, n_panels=4096):
    """Independent composite-Simpson moments of the normalized weight."""
    w = np.linspace(-omega_c, omega_c, 2 * n_panels + 1)
    f = np.asarray(coupling.weight(w), dtype=float)
    from scipy.integrate import simpson

    mass = simpson(f, x=w)
    return simpson(f * w**k, x=w) / mass


@pytest.mark.parametrize("count", [2, 4, 8])
def test_quadrature_exactness_lorentzian(lorentzian_coupling, count):
    omega_c = 2.0
    rule = gauss_quadrature(lorentzian_coupling, omega_c, count)
    for k in range(2 * count):
        ref = _monomial_reference(lorentzian_coupling, omega_c, k)
        got = float(np.sum(rule.weights * rule.nodes**k))
        scale = max(abs(ref), omega_c**k * 1e-3)
        assert abs(got - ref) <= 1e-10 * scale


def test_degenerate_weight_rejected():
    grid = np.linspace(-1, 1, 257)
    zero = ker.RegularizedCoupling.from_samples(grid, np.zeros_like(grid))
    with pytest.raises(DegenerateWeight):
        gauss_quadrature(zero, 1.0, 2)


def test_recursion_breakdown_reported():
    # two numerically coincident support points cannot carry a 3-term basis
    lam = np.array([0.5, 0.5 + 1e-16, 0.5 + 2e-16])
    wts = np.array([0.3, 0.3, 0.4])
    with pytest.raises(RecursionBreakdown) as err:
        chain._lanczos_jacobi(lam, wts, 3, 1.0)
    assert err.value.index >= 1


# -- star-to-chain ---------------------------------------------------------------

def test_flat_chain_is_legendre(flat_coupling):
    coeffs = star_to_chain(flat_coupling, 1.0, 16)
    assert np.max(np.abs(coeffs.onsite)) < 1e-10
    alphas = np.arange(1, 16)
    oracle = alphas / np.sqrt(4.0 * alphas**2 - 1.0)
    assert np.max(np.abs(coeffs.hopping - oracle)) < 1e-8
    assert coeffs.v_norm == pytest.approx(math.sqrt(2.0), rel=1e-10)


def test_chain_coefficient_bounds(lorentzian_coupling):
    omega_c = 2.5
    coeffs = star_to_chain(lorentzian_coupling, omega_c, 12)
    assert np.all(np.abs(coeffs.onsite) <= omega_c + 1e-9)
    assert np.all(coeffs.hopping <= omega_c + 1e-9)
    assert np.all(coeffs.hopping > 0)


def test_scaling_covariance(flat_coupling):
    """Dilating the weight w -> s w scales every coefficient by s."""
    s = 2.5
    grid = np.linspace(-s, s, 257)
    dilated = ker.RegularizedCoupling.from_samples(grid, np.ones_like(grid))
    base = star_to_chain(flat_coupling, 1.0, 10)
    scaled = star_to_chain(dilated, s, 10)
    assert np.max(np.abs(scaled.onsite - s * base.onsite)) < 1e-10
    assert np.max(np.abs(scaled.hopping - s * base.hopping)) < 1e-10


def test_mode_function_gram_identity(lorentzian_coupling):
    """Orthonormality of the mode functions under |vhat|^2, checked on an
    independent uniform-grid quadrature."""
    omega_c, modes = 2.0, 8
    coeffs = star_to_chain(lorentzian_coupling, omega_c, modes)
    w = np.linspace(-omega_c, omega_c, 200001)
    weight = np.asarray(lorentzian_coupling.weight(w))
    mass = float(np.trapezoid(weight, w))
    q = chain.orthonormal_polynomials(coeffs, mass, w)
    gram = np.trapezoid(q[:, None, :] * q[None, :, :] * weight, w, axis=2)
    assert np.max(np.abs(gram - np.eye(modes))) < 1e-8


def test_chain_json_round_trip(flat_coupling):
    coeffs = star_to_chain(flat_coupling, 1.0, 6)
    doc = coeffs.to_json_dict()
    back = ChainCoefficients.from_json_dict(doc)
    assert np.allclose(back.onsite, coeffs.onsite)
    assert np.allclose(back.hopping, coeffs.hopping)
    assert back.v_norm == coeffs.v_norm
    # chains compare by identity: no array-valued truth test to raise
    assert back != coeffs
    assert coeffs == coeffs


def test_invariant_validation_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        ChainCoefficients(np.array([2.0]), np.zeros(0), 1.0, 1.0, 1)
    with pytest.raises(ShapeMismatch):
        ChainCoefficients(np.array([0.0]), np.array([0.5]), 1.0, 1.0, 1)


# -- single-particle propagation ---------------------------------------------

def test_propagate_identity_at_zero(flat_coupling):
    coeffs = star_to_chain(flat_coupling, 1.0, 5)
    c0 = np.arange(1.0, 6.0) + 0.5j
    assert np.allclose(chain_propagate_single(coeffs, c0, 0.0), c0)


def test_propagate_scalar_phase():
    coeffs = ChainCoefficients(np.array([2.0]), np.zeros(0), 1.0, 2.0, 1)
    out = chain_propagate_single(coeffs, np.array([1.0 + 0j]), math.pi)
    assert out[0] == pytest.approx(np.exp(-2j * math.pi))


def test_propagate_two_mode_beamsplitter():
    coeffs = ChainCoefficients(np.zeros(2), np.array([1.0]), 1.0, 1.0, 2)
    out = chain_propagate_single(coeffs, np.array([1.0 + 0j, 0.0]), math.pi / 2)
    assert out == pytest.approx(np.array([0.0, -1.0j]), abs=1e-12)
    # an array of times gives one amplitude vector per time
    out = chain_propagate_single(coeffs, np.array([1.0 + 0j, 0.0]),
                                 np.array([0.0, math.pi / 2, math.pi]))
    assert out.shape == (3, 2)
    np.testing.assert_allclose(out, [[1.0, 0.0], [0.0, -1.0j], [-1.0, 0.0]],
                               atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(t=st.floats(0.0, 10.0))
def test_propagate_preserves_norm(t):
    coeffs = ChainCoefficients(np.array([0.3, -0.5, 0.1]),
                               np.array([0.4, 0.2]), 1.0, 1.0, 3)
    c0 = np.array([0.6, -0.3 + 0.2j, 0.1j])
    out = chain_propagate_single(coeffs, c0, t)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(c0), abs=1e-10)


# -- chain truncation error -----------------------------------------------------

def test_chain_error_zero_at_zero(flat_coupling):
    coeffs = star_to_chain(flat_coupling, 1.0, 6)
    actual, bound = chain_error_single(coeffs, 0.0)
    assert actual == 0.0 and bound == 0.0


def test_chain_error_below_bound_resolvable(flat_coupling):
    coeffs = star_to_chain(flat_coupling, 1.0, 6)
    for t in (1.0, 2.0, 3.0):
        actual, bound = chain_error_single(coeffs, t)
        assert 0.0 <= actual <= bound


def test_chain_error_monotone_trends(flat_coupling):
    """Non-decreasing in t at fixed modes; decreasing in modes at fixed t
    once modes > 2 e omega_c t."""
    coeffs = star_to_chain(flat_coupling, 1.0, 6)
    errs = [chain_error_single(coeffs, t)[0]
            for t in np.linspace(0.5, 3.0, 6)]
    assert all(b >= a - 1e-14 for a, b in zip(errs, errs[1:]))

    t = 3.0  # 2 e omega_c t ~ 16.3
    by_modes = []
    for modes in (18, 22, 26):
        c = star_to_chain(flat_coupling, 1.0, modes)
        by_modes.append(flat_chain_error_mp(1.0, modes, t)[0])
    assert by_modes[0] > by_modes[1] > by_modes[2]


def test_flat_mp_matches_float64(flat_coupling):
    coeffs = star_to_chain(flat_coupling, 1.0, 6)
    for t in (1.0, 3.0):
        a64, b64 = chain_error_single(coeffs, t)
        amp, bmp = flat_chain_error_mp(1.0, 6, t)
        assert a64 == pytest.approx(amp, rel=1e-6, abs=1e-13)
        assert b64 == pytest.approx(bmp, rel=1e-10)


def test_chain_error_over_times_matches_scalar_calls(flat_coupling):
    # modes=3 keeps every sampled error far above the float64 noise of the
    # residual quadrature, so the two evaluation orders agree to rounding
    coeffs = star_to_chain(flat_coupling, 1.0, 3)
    ts = np.linspace(0.0, 3.0, 17)
    actual, bound = chain_error_single(coeffs, ts)
    assert actual.shape == bound.shape == ts.shape
    assert actual[0] == 0.0 and bound[0] == 0.0
    for k, t in enumerate(ts[1:], start=1):
        a, b = chain_error_single(coeffs, t)
        assert isinstance(a, float) and isinstance(b, float)
        assert actual[k] == pytest.approx(a, rel=1e-13, abs=0.0)
        assert bound[k] == b


def test_chain_error_bound_reuses_stored_measure(flat_coupling, monkeypatch):
    calls = []
    refined = chain._refined_jacobi

    def counting(*args):
        calls.append(args)
        return refined(*args)

    coeffs = star_to_chain(flat_coupling, 1.0, 4)
    monkeypatch.setattr(chain, "_refined_jacobi", counting)
    value = dyn.chain_error_bound([1.0], [coeffs], 2.0)
    assert calls == []
    assert value > 0.0


def test_chain_error_needs_stored_measure(flat_coupling):
    coeffs = star_to_chain(flat_coupling, 1.0, 4)
    loaded = ChainCoefficients.from_json_dict(coeffs.to_json_dict())
    assert loaded.measure is None
    with pytest.raises(ValueError, match="discrete measure"):
        chain_error_single(loaded, 1.0)


def test_bound_overflow_is_inf():
    assert chain.chain_error_bound_value(1.0, 10.0, 200, 1e30) == math.inf
    assert math.isfinite(chain.chain_error_bound_value(1.0, 10.0, 200, 50.0))


def test_star_to_chain_reuses_panel_levels(lorentzian_kernel, monkeypatch):
    # modes 4 refines from 32 panels to 64, modes 8 from 64 to 128: the
    # shared 64-panel level is discretized once per coupling
    mol = ker.Mollifier(0.05)
    coupling = ker.regularize(lorentzian_kernel, mol,
                              ker.choose_grid(lorentzian_kernel, mol))
    weight = ker.RegularizedCoupling.weight
    sizes = []

    def counting(self, omega):
        sizes.append(np.size(omega))
        return weight(self, omega)

    monkeypatch.setattr(ker.RegularizedCoupling, "weight", counting)
    short = star_to_chain(coupling, 3.0, 4)
    long = star_to_chain(coupling, 3.0, 8)
    assert sizes == [32 * 12, 64 * 12, 128 * 12]
    monkeypatch.undo()
    for modes, got in ((4, short), (8, long)):
        fresh = star_to_chain(ker.regularize(lorentzian_kernel, mol,
                                             ker.choose_grid(lorentzian_kernel,
                                                             mol)),
                              3.0, modes)
        assert np.array_equal(got.onsite, fresh.onsite)
        assert np.array_equal(got.hopping, fresh.hopping)
        assert got.v_norm == fresh.v_norm
    lam, wts = long.measure
    assert not lam.flags.writeable and not wts.flags.writeable
