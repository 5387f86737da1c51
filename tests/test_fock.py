import gc
import math
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from nmk_sim import chain as chain_mod, dynamics as dyn, fock, kernels as ker
from nmk_sim.chain import ChainCoefficients, star_to_chain
from nmk_sim.errors import (DimensionOverflow, ShapeMismatch,
                            UnsupportedInitialState)
from nmk_sim.fock import (
    InitialEnvState,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    SystemModel,
    TimeProfile,
    assemble_initial_state,
    build_hamiltonian_parts,
    embed_system_operator,
    enumerate_basis,
    hamiltonian_bytes,
    project_wavepacket,
)
from nmk_sim.oracle import StarDiscretization, _star_hamiltonian


# -- basis enumeration ----------------------------------------------------------

@pytest.mark.parametrize("args,dim", [
    ((1, 2, 1, 1, 1), 4),
    ((1, 2, 1, 2, 2), 12),
    ((2, 2, 2, 1, 1), 16),
])
def test_dimensions(args, dim):
    assert enumerate_basis(*args).dimension == dim


def test_dimension_formula():
    space = enumerate_basis(2, 3, 2, 3, 2)
    expected = 3**2 * math.comb(3 + 2, 2) ** 2
    assert space.dimension == expected


def test_dimension_overflow():
    with pytest.raises(DimensionOverflow):
        enumerate_basis(2, 2, 2, 64, 4)


@pytest.mark.parametrize("modes, cap", [(512, 2), (2000, 2)])
def test_oversized_occupation_table_refused_before_building(modes, cap):
    # dims 263,682 and 4.0M pass STATE_CAP, but the (rows, modes) int64
    # tables would take 515 MiB and 30,563 MiB
    tracemalloc.start()
    try:
        with pytest.raises(DimensionOverflow, match="exceeds cap"):
            enumerate_basis(1, 2, 1, modes, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 12 * 10 * 10 - 1))
def test_index_round_trip(index):
    space = enumerate_basis(2, 2, 2, 2, 2)  # block 6, dim 4*36 = 144
    index = index % space.dimension
    digits, blocks = space.index_to_labels(index)
    assert space.labels_to_index(digits, blocks) == index
    assert all(sum(b) <= 2 for b in blocks)


def test_lexicographic_table_is_stable():
    space = enumerate_basis(1, 2, 1, 2, 2)
    table = [tuple(r) for r in space.table]
    assert table == sorted(table)
    assert table[0] == (0, 0)


def test_index_round_trip_full_scan():
    # every index of a ~3e4-dimensional two-bath space round-trips exactly
    space = enumerate_basis(2, 2, 2, 6, 3)  # 4 * C(9,3)^2 = 28224
    assert space.dimension == 28224
    for index in range(space.dimension):
        digits, blocks = space.index_to_labels(index)
        assert space.labels_to_index(digits, blocks) == index


# -- ladder matrix elements ------------------------------------------------------

def _scipy(m):
    """A scipy CSR matrix on the arrays of a built part (`nmk_sim.csr.CSR`)."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def _hamiltonian(model, baths, space, t=0.0):
    """H(t): the constant part plus every profiled term at time t (scipy)."""
    h, profiled = build_hamiltonian_parts(model, baths, space)
    h = _scipy(h)
    for term, profile in profiled:
        h = h + profile(t) * _scipy(term)
    return h


def test_lower_matrix_element_sqrt2():
    # the coupling L a^dag(g) takes |e, 1> to g sqrt(2) |g, 2>
    model = SystemModel(1, 2, jumps=[((0,), SIGMA_MINUS, 0)])
    coeffs = ChainCoefficients(np.array([0.3]), np.zeros(0), 0.7, 1.0, 1)
    space = enumerate_basis(1, 2, 1, 1, 3)
    h = _hamiltonian(model, [coeffs], space)
    ie1 = space.labels_to_index((0,), [(1,)])
    ig2 = space.labels_to_index((1,), [(2,)])
    assert h[ig2, ie1] == pytest.approx(0.7 * math.sqrt(2.0))


def test_number_operator_diagonal():
    # the onsite term w n is diagonal with n quanta counted exactly
    model = SystemModel(1, 2, jumps=[((0,), SIGMA_MINUS, 0)])
    coeffs = ChainCoefficients(np.array([0.3]), np.zeros(0), 0.7, 1.0, 1)
    space = enumerate_basis(1, 2, 1, 1, 3)
    h = _hamiltonian(model, [coeffs], space)
    i3 = space.labels_to_index((0,), [(3,)])
    assert h[i3, i3].real == pytest.approx(3.0 * 0.3)


# -- system operators ------------------------------------------------------------

def test_embed_matches_kron():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.allclose(embed_system_operator(2, 2, (0,), m), np.kron(m, np.eye(2)))
    assert np.allclose(embed_system_operator(2, 2, (1,), m), np.kron(np.eye(2), m))
    two = rng.normal(size=(4, 4))
    assert np.allclose(embed_system_operator(2, 2, (0, 1), two), two)


def test_embed_respects_support_order():
    # operator on (1, 0) is the swap-conjugated operator on (0, 1)
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4))
    swapped = m.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    assert np.allclose(embed_system_operator(2, 2, (1, 0), m), swapped)


def test_repeated_support_qudit_refused_at_construction():
    zz = np.kron(SIGMA_Z, SIGMA_Z)
    with pytest.raises(ValueError, match="distinct"):
        SystemModel(2, 2, hs_terms=[((0, 0), zz, TimeProfile())])
    with pytest.raises(ValueError, match="distinct"):
        SystemModel(2, 2, jumps=[((1, 1), zz, 0)])


def test_oversized_register_refused_before_embedding():
    # two operators on 13 qubits would take 1 GiB each
    tracemalloc.start()
    try:
        with pytest.raises(DimensionOverflow, match="exceeds cap"):
            SystemModel(13, 2, [((0,), SIGMA_Z, TimeProfile())],
                        [((0,), SIGMA_X, 0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_register_operators_embedded_once(monkeypatch):
    # the model holds each term's and each bath's summed jump operator,
    # read-only; no consumer embeds again
    model = SystemModel(2, 2, (((1,), 0.3 * SIGMA_X, TimeProfile("cos", 1.0)),),
                        (((0,), SIGMA_X, 0), ((1,), SIGMA_MINUS, 0)))
    (op, profile), = model.hs_operators
    assert profile == TimeProfile("cos", 1.0)
    assert np.array_equal(op, np.kron(np.eye(2), 0.3 * SIGMA_X))
    jump = model.jump_matrix(0)
    assert jump is model.jump_matrix(0)
    assert np.array_equal(jump, np.kron(SIGMA_X, np.eye(2))
                          + np.kron(np.eye(2), SIGMA_MINUS))
    assert not (op.flags.writeable or jump.flags.writeable)
    assert not model.jump_matrix(1).any()

    def no_embedding(*args):
        raise AssertionError("operator embedded again")

    monkeypatch.setattr(fock, "embed_system_operator", no_embedding)
    chain = ChainCoefficients(np.zeros(2), np.ones(1), 0.7, 1.0, 2)
    build_hamiltonian_parts(model, [chain], enumerate_basis(2, 2, 1, 2, 1))
    hamiltonian_bytes(model, enumerate_basis(2, 2, 1, 2, 1))
    assert np.array_equal(model.hs_matrix(0.0), op)
    assert dyn.hs_commutator_sup(model, 0) > 0.0


def test_system_model_validation():
    with pytest.raises(ValueError):
        SystemModel(1, 2, hs_terms=[((0,), np.array([[0, 1], [0, 0]]),
                                     TimeProfile())])
    with pytest.raises(ShapeMismatch):
        SystemModel(1, 2, jumps=[((0,), np.eye(4), 0)])
    model = SystemModel(1, 2, jumps=[((0,), SIGMA_MINUS, 0)])
    assert model.jump_norm(0) == pytest.approx(1.0)


# -- hamiltonian construction ----------------------------------------------------

@pytest.fixture()
def desk_setup():
    model = SystemModel(1, 2,
                        hs_terms=[((0,), 0.5 * SIGMA_Z, TimeProfile())],
                        jumps=[((0,), SIGMA_MINUS, 0)])
    coeffs = ChainCoefficients(np.array([0.3, -0.2]), np.array([0.4]),
                               0.7, 1.0, 2)
    space = enumerate_basis(1, 2, 1, 2, 2)
    return model, coeffs, space


def test_zero_coupling_is_closed_system(desk_setup):
    model, _, space = desk_setup
    zero = ChainCoefficients(np.zeros(2), np.zeros(1), 0.0, 1.0, 2)
    h = _hamiltonian(model, [zero], space).toarray()
    assert np.allclose(h, np.kron(0.5 * SIGMA_Z, np.eye(space.env_dim)))


def test_single_excitation_coupling_element(desk_setup):
    model, coeffs, space = desk_setup
    h = _hamiltonian(model, [coeffs], space)
    ie = space.labels_to_index((0,), [(0, 0)])
    ig = space.labels_to_index((1,), [(1, 0)])
    assert h[ig, ie] == pytest.approx(coeffs.v_norm)


def test_hamiltonian_hermitian_for_sampled_times(desk_setup):
    model, coeffs, space = desk_setup
    driven = SystemModel(1, 2,
                         hs_terms=[((0,), 0.5 * SIGMA_Z, TimeProfile()),
                                   ((0,), 0.2 * SIGMA_X,
                                    TimeProfile("cos", 1.3))],
                         jumps=[((0,), SIGMA_MINUS, 0)])
    for t in (0.0, 0.7, 2.1):
        h = _hamiltonian(driven, [coeffs], space, t)
        assert abs(h - h.conj().T).max() <= 1e-12 * abs(h).max()


def test_nonzeros_per_row_bound(desk_setup):
    model, coeffs, space = desk_setup
    h = _hamiltonian(model, [coeffs], space)
    per_row = np.diff(h.tocsr().indptr)
    fanout = 2  # single-qubit system terms
    assert per_row.max() <= fanout + 2 * space.baths + 2 * space.baths * space.modes


def test_hamiltonian_bytes_bounds_assembled_matrix():
    # a qubit pair with a ZZ coupling, two baths and two jumps on bath 0
    zz = np.kron(SIGMA_Z, SIGMA_Z)
    pair = SystemModel(2, 2,
                       hs_terms=[((0, 1), zz, TimeProfile()),
                                 ((1,), 0.3 * SIGMA_X, TimeProfile("cos", 1.0))],
                       jumps=[((0,), SIGMA_X, 0), ((1,), SIGMA_MINUS, 0),
                              ((1,), SIGMA_X, 1)])
    # and a three-qubit ZZ ring with a sigma_x jump into its own bath per
    # site, where every bath's onsite energies and the ZZ terms share one
    # diagonal
    ring = SystemModel(3, 2,
                       hs_terms=[((q, (q + 1) % 3), zz, TimeProfile())
                                 for q in range(3)],
                       jumps=[((q,), SIGMA_X, q) for q in range(3)])
    for model, count, modes, cap in ((pair, 2, 1, 1), (pair, 2, 3, 2),
                                     (pair, 2, 5, 3), (ring, 3, 2, 2)):
        space = enumerate_basis(model.n, 2, count, modes, cap)
        baths = [ChainCoefficients(np.linspace(-1.0, 1.0, modes),
                                   np.full(modes - 1, 0.5), 0.7, 2.0, modes)
                 for _ in range(count)]
        h = _hamiltonian(model, baths, space, 0.4)
        got = h.data.nbytes + h.indices.nbytes + h.indptr.nbytes
        estimate = hamiltonian_bytes(model, space)
        assert got <= estimate <= 2 * got


def _ref_hamiltonian_bytes(model, space, complex_couplings=False):
    # the same count in closed form, from the occupation table and the
    # operators' nonzeros: one diagonal of `dimension` entries, each bath's
    # hops and each jump and its adjoint against every occupied mode, each
    # system term off the diagonal (whole when profiled)
    occupied = int(np.count_nonzero(space.table))
    hops = int(np.count_nonzero(space.table[:, :-1]))
    other_baths = space.block_size ** (space.baths - 1)
    jumps = sum(int(np.count_nonzero(op))
                for op in model.jump_operators.values())
    bath_terms = 2 * (space.baths * space.sys_dim * hops + occupied * jumps)
    nnz = space.dimension + other_baths * bath_terms
    parts = 1
    for op, profile in model.hs_operators:
        nnz += space.env_dim * int(np.count_nonzero(op))
        if profile.is_constant:
            nnz -= space.env_dim * int(np.count_nonzero(np.diagonal(op)))
        else:
            parts += 1
    value = 8 if model.real and not complex_couplings else 16
    return (value + 4) * nnz + 4 * (space.dimension + 1) * parts


@pytest.mark.parametrize("seed", range(16))
def test_hamiltonian_bytes_matches_closed_form(seed):
    # random registers of 1-2 qubits with constant and profiled terms, 1-3
    # baths (not every one with a jump) and a jump with a diagonal
    rng = np.random.default_rng(seed)
    n, count = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    local = [SIGMA_X, SIGMA_Z, fock.SIGMA_Y, 0.3 * SIGMA_Z + SIGMA_MINUS]
    terms = [((int(rng.integers(n)),), local[rng.integers(3)],
              TimeProfile(("const", "cos", "sin")[rng.integers(3)], 1.0))
             for _ in range(rng.integers(0, 4))]
    if n == 2:
        terms.append(((0, 1), np.kron(SIGMA_Z, SIGMA_Z), TimeProfile()))
    jumps = [((int(rng.integers(n)),), local[rng.integers(4)],
              int(rng.integers(count))) for _ in range(rng.integers(1, 4))]
    jumps.append(((0,), local[3], 0))
    model = SystemModel(n, 2, terms, jumps)
    space = enumerate_basis(n, 2, count, int(rng.integers(1, 4)),
                            int(rng.integers(0, 4)))
    for phased in (False, True):
        got = hamiltonian_bytes(model, space, complex_couplings=phased)
        assert type(got) is int
        assert got == _ref_hamiltonian_bytes(model, space, phased)


def test_shape_mismatch_rejected(desk_setup):
    model, coeffs, space = desk_setup
    bad = ChainCoefficients(np.zeros(3), np.zeros(2), 0.5, 1.0, 3)
    with pytest.raises(ShapeMismatch):
        build_hamiltonian_parts(model, [bad], space)


# -- initial states ---------------------------------------------------------------

def test_vacuum_initial_state():
    space = enumerate_basis(1, 2, 1, 2, 2)
    psi, lost = assemble_initial_state(space, np.array([1.0, 0.0]),
                                       [InitialEnvState()])
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    assert lost == 0.0
    assert psi[space.vacuum_index((0,))] == pytest.approx(1.0)


def test_single_photon_initial_state_moments():
    space = enumerate_basis(1, 2, 1, 2, 2)
    amps = np.array([0.6, 0.8j])
    st_env = InitialEnvState("single_photon", amps, residual=0.1)
    psi, lost = assemble_initial_state(space, np.array([1.0, 0.0]), [st_env])
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    assert lost == pytest.approx(0.1)
    assert st_env.moments() == (1.0, 1.0)


def test_coherent_initial_state_truncation_loss():
    space = enumerate_basis(1, 2, 1, 1, 3)
    st_env = InitialEnvState("coherent", np.array([0.5 + 0.0j]))
    psi, lost = assemble_initial_state(space, np.array([1.0, 0.0]), [st_env])
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    # weight beyond 3 photons of a |alpha|=0.5 coherent state
    nbar = 0.25
    tail = 1.0 - math.exp(-nbar) * sum(nbar**k / math.factorial(k)
                                       for k in range(4))
    assert lost == pytest.approx(tail, abs=1e-10)


@pytest.mark.parametrize("env", [
    InitialEnvState("coherent", np.full(8, 40.0 + 0.0j)),
    InitialEnvState("coherent", np.full(8, 1e300 + 0.0j)),
    InitialEnvState("single_photon", np.ones(8, dtype=complex)),
], ids=["coherent-underflow", "coherent-overflow", "photon-at-cap-0"])
def test_environment_state_without_finite_weight_is_refused(env):
    # no weight in the space, or a NaN one, cannot be normalized
    cap = 0 if env.kind == "single_photon" else 2
    space = enumerate_basis(1, 2, 1, 8, cap)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedInitialState, match="bath 0: "):
            assemble_initial_state(space, np.array([1.0, 0.0]), [env])


def test_project_wavepacket_in_span(flat_coupling):
    """A wavepacket inside the chain span projects with tiny residual."""
    coeffs = star_to_chain(flat_coupling, 1.0, 8)
    w = np.linspace(-1.0, 1.0, 20001)
    xi = 1.0 - w**2                          # degree-2 polynomial times vhat
    norm = math.sqrt(float(np.trapezoid(np.abs(xi) ** 2, w)))
    amps, residual = project_wavepacket(coeffs, flat_coupling, w, xi / norm)
    assert residual < 1e-6
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(amps[3:])) < 1e-6  # only q_0..q_2 participate


def test_project_wavepacket_uses_chain_mass(lorentzian_coupling):
    """The chain's ||v||^2 stands in for a rerun of the chain map."""
    coeffs = star_to_chain(lorentzian_coupling, 3.0, 6)
    w = lorentzian_coupling.grid
    xi = np.exp(-((w - 0.5) ** 2) / (2.0 * 0.4**2)).astype(complex)
    amps, residual = project_wavepacket(coeffs, lorentzian_coupling, w, xi)

    # the previous path: the mass from a fresh discretize-plus-Lanczos run
    _, _, mass, _ = chain_mod._refined_jacobi(lorentzian_coupling,
                                              coeffs.omega_c, coeffs.modes)
    sel = np.abs(w) <= coeffs.omega_c
    q = chain_mod.orthonormal_polynomials(coeffs, mass, w[sel])
    vhat = np.asarray(lorentzian_coupling.vhat(w[sel]))
    ref = np.trapezoid(q * (np.conj(vhat) * xi[sel])[None, :], w[sel], axis=1)
    ref_residual = float(np.trapezoid(np.abs(xi) ** 2, w)) \
        - float(np.sum(np.abs(ref) ** 2))

    assert ref_residual > 1e-3    # a real residual, not a cancellation
    np.testing.assert_allclose(amps, ref, rtol=1e-14, atol=0.0)
    assert residual == pytest.approx(ref_residual, rel=1e-14, abs=0.0)


# -- reference builder -------------------------------------------------------------
# The loop/dict assembly the vectorized builder replaced: a recursive
# occupation table with a tuple -> index dict, per-row ladder and hopping
# loops, and one lifted `kron` per star mode.  Values must agree exactly where
# the arithmetic order is unchanged (unit jump entries), and within
# 8 eps max|H| where the coupling's product order differs (L (g sqrt n)
# instead of g (L sqrt n)).

def _ref_table(modes, cap):
    rows = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            rows.append(tuple(prefix))
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], cap, modes)
    table = np.array(sorted(rows), dtype=np.int64)
    return table, {tuple(row): i for i, row in enumerate(table)}


def _ref_bath_local(space, bath, block):
    left = space.sys_dim * space.block_size**bath
    right = space.block_size ** (space.baths - 1 - bath)
    out = sp.kron(sp.identity(left, format="csr", dtype=complex), block,
                  format="csr")
    if right > 1:
        out = sp.kron(out, sp.identity(right, format="csr", dtype=complex),
                      format="csr")
    return out


def _ref_block_lower(space, mode):
    table, occ_index = _ref_table(space.modes, space.cap)
    rows, cols, vals = [], [], []
    for col, occ in enumerate(table):
        nj = occ[mode]
        if nj > 0:
            target = list(occ)
            target[mode] -= 1
            rows.append(occ_index[tuple(target)])
            cols.append(col)
            vals.append(math.sqrt(nj))
    b = space.block_size
    return sp.csr_matrix((vals, (rows, cols)), shape=(b, b), dtype=complex)


def _ref_system_on_space(space, mat):
    return sp.kron(sp.csr_matrix(mat),
                   sp.identity(space.env_dim, format="csr", dtype=complex),
                   format="csr")


def _ref_onsite(space, alpha, energies):
    table, _ = _ref_table(space.modes, space.cap)
    diag_block = table @ np.asarray(energies)
    idx = np.arange(space.dimension)
    shift = space.block_size ** (space.baths - 1 - alpha)
    return sp.diags(diag_block[(idx // shift) % space.block_size],
                    format="csr", dtype=complex)


def _ref_system_terms(model, space, h):
    profiled = []
    for support, mat, profile in model.hs_terms:
        term = _ref_system_on_space(
            space, embed_system_operator(model.n, model.d, support, mat))
        if profile.is_constant:
            h = h + term
        else:
            profiled.append((term, profile))
    return h, profiled


def _ref_chain_parts(model, chains, space):
    dim = space.dimension
    h = sp.csr_matrix((dim, dim), dtype=complex)
    table, occ_index = _ref_table(space.modes, space.cap)
    for alpha, coeffs in enumerate(chains):
        h = h + _ref_onsite(space, alpha, coeffs.onsite)
        b = space.block_size
        rows, cols, vals = [], [], []
        for col, occ in enumerate(table):
            for j, t_j in enumerate(coeffs.hopping):
                if occ[j] > 0:
                    target = list(occ)
                    target[j] -= 1
                    target[j + 1] += 1
                    rows.append(occ_index[tuple(target)])
                    cols.append(col)
                    vals.append(t_j * math.sqrt(occ[j] * (occ[j + 1] + 1)))
        hop = sp.csr_matrix((vals, (rows, cols)), shape=(b, b), dtype=complex)
        h = h + _ref_bath_local(space, alpha, hop + hop.conj().T)
        l_full = _ref_system_on_space(space, model.jump_matrix(alpha))
        lower1 = _ref_bath_local(space, alpha, _ref_block_lower(space, 0))
        coupling = coeffs.v_norm * (l_full @ lower1.conj().T)
        h = h + coupling + coupling.conj().T
    return _ref_system_terms(model, space, h)


def _ref_star_parts(model, stars, space):
    dim = space.dimension
    h = sp.csr_matrix((dim, dim), dtype=complex)
    for alpha, star in enumerate(stars):
        h = h + _ref_onsite(space, alpha, star.omegas)
        l_full = _ref_system_on_space(space, model.jump_matrix(alpha))
        for k in range(space.modes):
            if star.couplings[k] == 0.0:
                continue
            lower = _ref_bath_local(space, alpha, _ref_block_lower(space, k))
            term = star.couplings[k] * (l_full @ lower.conj().T)
            h = h + term + term.conj().T
    return _ref_system_terms(model, space, h)


def _assert_same_operator(new, ref, exact):
    new, ref = _scipy(new), ref.tocsr()
    new.sort_indices()
    ref.sort_indices()
    assert np.array_equal(new.indptr, ref.indptr)
    assert np.array_equal(new.indices, ref.indices)
    if exact:
        assert np.array_equal(new.data, ref.data)
    else:
        tol = 8 * np.finfo(float).eps * np.max(np.abs(ref.data))
        assert np.max(np.abs(new.data - ref.data)) <= tol


def _random_bath(geometry, rng, modes, couplings=None):
    if geometry == "chain":
        return ChainCoefficients(rng.uniform(-1.0, 1.0, modes),
                                 rng.uniform(0.0, 1.0, modes - 1),
                                 rng.uniform(0.2, 1.5), 1.0, modes)
    if couplings is None:
        couplings = rng.normal(size=modes) + 1j * rng.normal(size=modes)
    return StarDiscretization(np.sort(rng.uniform(-2.0, 2.0, modes)),
                              couplings, modes, 0.0)


def _compare_builders(geometry, model, baths, space, exact=True):
    h_const, profiled = fock.build_hamiltonian_parts(model, baths, space)
    ref = _ref_chain_parts if geometry == "chain" else _ref_star_parts
    ref_const, ref_profiled = ref(model, baths, space)
    _assert_same_operator(h_const, ref_const, exact)
    assert [p for _, p in profiled] == [p for _, p in ref_profiled]
    for (term, _), (ref_term, _) in zip(profiled, ref_profiled):
        _assert_same_operator(term, ref_term, exact)
    if geometry == "star" and not profiled:
        _assert_same_operator(_star_hamiltonian(model, baths, space),
                              ref_const, exact)


# (cap, baths, modes): every cap and bath count at 3 modes, and 1 mode;
# at cap 40 a hop's n_j (n_{j+1} + 1) passes the one-byte table's 255
_BUILDER_CASES = ([(cap, baths, 3) for cap in (0, 1, 2, 3) for baths in (1, 2, 3)]
                  + [(cap, baths, 1) for cap in (1, 3) for baths in (1, 2)]
                  + [(40, 1, 2)])


@pytest.mark.parametrize("geometry", ["chain", "star"])
@pytest.mark.parametrize("cap, baths, modes", _BUILDER_CASES,
                         ids=[f"{c}-{b}" + ("" if m == 3 else f"-modes{m}")
                              for c, b, m in _BUILDER_CASES])
def test_builder_matches_reference(geometry, baths, cap, modes):
    rng = np.random.default_rng(100 * baths + cap)
    jumps = (((0,), SIGMA_MINUS, 0), ((0,), SIGMA_X, 1),
             ((0,), SIGMA_MINUS, 2))[:baths]
    model = SystemModel(1, 2, (((0,), 0.5 * SIGMA_Z, TimeProfile()),), jumps)
    space = enumerate_basis(1, 2, baths, modes, cap)
    _compare_builders(geometry, model,
                      [_random_bath(geometry, rng, modes) for _ in range(baths)],
                      space)


def test_builder_star_with_zero_couplings():
    rng = np.random.default_rng(5)
    model = SystemModel(1, 2, (((0,), 0.5 * SIGMA_Z, TimeProfile()),),
                        (((0,), SIGMA_MINUS, 0),))
    star = _random_bath("star", rng, 4, couplings=np.zeros(4, dtype=complex))
    space = enumerate_basis(1, 2, 1, 4, 2)
    _compare_builders("star", model, [star], space)
    h, _ = fock.build_hamiltonian_parts(model, [star], space)
    assert h.nnz == np.count_nonzero(_scipy(h).diagonal())   # no couplings


@pytest.mark.parametrize("geometry", ["chain", "star"])
def test_builder_non_unit_jump_matrix(geometry):
    rng = np.random.default_rng(11)
    jump = (0.3 + 0.7j) * SIGMA_MINUS + 0.45 * SIGMA_Z
    model = SystemModel(2, 2, (((0, 1), np.kron(SIGMA_X, SIGMA_X),
                                TimeProfile()),),
                        (((1,), jump, 0), ((0,), 1.7 * SIGMA_X, 1)))
    space = enumerate_basis(2, 2, 2, 3, 2)
    baths = [_random_bath(geometry, rng, 3) for _ in range(2)]
    _compare_builders(geometry, model, baths, space, exact=False)


def test_builder_time_profiled_system_term():
    rng = np.random.default_rng(3)
    model = SystemModel(1, 2, (((0,), 0.5 * SIGMA_Z, TimeProfile()),
                               ((0,), 0.4 * SIGMA_X, TimeProfile("cos", 2.0)),
                               ((0,), 0.1 * SIGMA_Z, TimeProfile("sin", 0.5))),
                        (((0,), SIGMA_MINUS, 0),))
    space = enumerate_basis(1, 2, 1, 4, 2)
    _compare_builders("chain", model, [_random_bath("chain", rng, 4)], space)


def test_builder_dtype_follows_values():
    # real values give float64 parts, equal to the complex reference loops;
    # one imaginary value anywhere (a system term, a jump, a phased star's
    # couplings) gives complex128 parts; the size estimate bounds both
    rng = np.random.default_rng(21)
    space = enumerate_basis(1, 2, 1, 3, 2)
    desk = SystemModel(1, 2, (((0,), 0.5 * SIGMA_Z, TimeProfile()),
                              ((0,), 0.2 * SIGMA_X, TimeProfile("cos", 1.0))),
                       (((0,), SIGMA_MINUS, 0),))
    chain = _random_bath("chain", rng, 3)
    mol = ker.Mollifier(0.05)

    def star(phase_poly):
        kernel = ker.MemoryKernel.lorentzian_sum([(1.0, 0.0, 1.0)],
                                                 phase_poly)
        coupling = ker.regularize(kernel, mol, ker.choose_grid(kernel, mol))
        return StarDiscretization.from_coupling(coupling, 3.0, 3)

    flat = star(())
    assert flat.couplings.dtype == complex and not flat.couplings.imag.any()
    for geometry, bath in (("chain", chain), ("star", flat)):
        _compare_builders(geometry, desk, [bath], space)
    sigma_y = SystemModel(1, 2, (((0,), 0.5 * SIGMA_Z, TimeProfile()),
                                 ((0,), 0.3 * fock.SIGMA_Y, TimeProfile())),
                          (((0,), SIGMA_MINUS, 0),))
    y_jump = SystemModel(1, 2, (((0,), 0.5 * SIGMA_Z, TimeProfile()),),
                         (((0,), fock.SIGMA_Y, 0),))
    for model, bath, dtype in ((desk, chain, np.float64),
                               (desk, flat, np.float64),
                               (sigma_y, chain, np.complex128),
                               (y_jump, chain, np.complex128),
                               (desk, star((0.0, 0.3)), np.complex128)):
        h, profiled = build_hamiltonian_parts(model, [bath], space)
        parts = [h] + [term for term, _ in profiled]
        assert all(p.dtype == dtype for p in parts)
        got = sum(p.data.nbytes + p.indices.nbytes + p.indptr.nbytes
                  for p in parts)
        estimate = hamiltonian_bytes(model, space, complex_couplings=(
            np.iscomplexobj(bath.couplings) and bath.couplings.imag.any()))
        assert got <= estimate <= 2 * got
    assert desk.real and not sigma_y.real and not y_jump.real


_TABLE_SIZES = [(1, 0), (1, 4), (3, 3), (6, 2), (20, 4), (512, 1), (20, 6)]


@pytest.mark.parametrize("modes,cap", _TABLE_SIZES)
def test_rank_inverts_table(modes, cap):
    table = fock._occupation_table(modes, cap)
    assert table.shape == (math.comb(modes + cap, cap), modes)
    assert table.dtype == np.uint8
    assert np.array_equal(fock._rank(table, cap), np.arange(len(table)))
    if len(table) < 2000:
        assert np.array_equal(table, _ref_table(modes, cap)[0])


def test_table_deeper_than_the_recursion_limit():
    # a cap-1 table of more modes than Python's recursion limit allows frames
    # (`_ref_table` recurses once per mode): the vacuum row, then one quantum
    # in the last mode, ..., in the first
    modes = 1100
    assert modes > sys.getrecursionlimit()
    closed_form = np.vstack([np.zeros((1, modes), dtype=int),
                             np.eye(modes, dtype=int)[::-1]])
    assert np.array_equal(fock._occupation_table(modes, 1), closed_form)


@pytest.mark.parametrize("cap, dtype", [(255, np.uint8), (256, np.uint16)])
def test_table_dtype_holds_the_cap(cap, dtype):
    # the smallest unsigned type that holds the cap
    table = fock._occupation_table(2, cap)
    assert table.dtype == dtype
    assert np.array_equal(table, _ref_table(2, cap)[0])


@pytest.mark.parametrize("modes,cap", _TABLE_SIZES)
@pytest.mark.parametrize("to_next", [False, True], ids=["lower", "hop"])
def test_moves_follow_table_order(modes, cap, to_next):
    space = enumerate_basis(1, 2, 1, modes, cap)
    table = space.table
    row, mode, target = fock._moves(space)[to_next]
    # one quantum out of mode j (and into mode j + 1), in the table's dtype,
    # so that the (20, 6) case's million moves stay small
    moved = table[row]
    moved[np.arange(row.size), mode] -= 1
    if to_next:
        moved[np.arange(row.size), mode + 1] += 1
    assert np.array_equal(table[target], moved)
    # each (row, mode) holding a quantum moves exactly once
    sources = np.zeros(table.shape, dtype=int)
    np.add.at(sources, (row, mode), 1)
    if to_next:
        assert np.array_equal(sources[:, -1], np.zeros(len(table)))
        sources = sources[:, :-1]
        table = table[:, :-1]
    assert np.array_equal(sources, table != 0)


def test_space_table_released_with_space():
    # the table lives as long as its space, not for the whole process
    space = enumerate_basis(1, 2, 1, 7, 2)
    table = weakref.ref(space.table)
    del space
    gc.collect()
    assert table() is None


def test_labels_outside_the_space_rejected():
    space = enumerate_basis(1, 2, 1, 2, 2)
    with pytest.raises(ValueError):
        space.labels_to_index((0,), [(2, 1)])


def test_initial_states_match_reference_loops():
    space = enumerate_basis(1, 2, 1, 3, 3)
    table, _ = _ref_table(3, 3)
    amps = np.array([0.6, 0.0, 0.8j])
    disp = np.array([0.5 + 0.1j, -0.3, 0.2j])
    ref_photon = np.zeros(space.block_size, dtype=complex)
    ref_coherent = np.zeros(space.block_size, dtype=complex)
    for i, occ in enumerate(table):
        if occ.sum() == 1:
            ref_photon[i] = amps[np.argmax(occ)]
        amp = np.exp(-0.5 * float(np.sum(np.abs(disp) ** 2)))
        for j, nj in enumerate(occ):
            amp = amp * disp[j] ** nj / math.sqrt(math.factorial(nj))
        ref_coherent[i] = amp
    sys0 = np.array([1.0, 0.0])
    for st_env, ref in ((InitialEnvState("single_photon", amps), ref_photon),
                        (InitialEnvState("coherent", disp), ref_coherent)):
        psi, _ = assemble_initial_state(space, sys0, [st_env])
        expected = np.kron(sys0, ref / np.linalg.norm(ref))
        assert np.max(np.abs(psi - expected)) <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("cap", [171, 200, 400])
def test_coherent_state_above_cap_170_keeps_int64_bits(cap):
    # the amplitudes from a one- or two-byte table (uint16 at cap 400) equal
    # those of the same formula on an int64 table of the same rows, bit for
    # bit: sqrt(k!) from float factorials up to 170 and lgamma above
    space = enumerate_basis(1, 2, 1, 2, cap)
    disp = np.array([1.0 + 0.5j, -0.7])
    vec = np.full(space.block_size, np.exp(-0.5 * np.sum(np.abs(disp) ** 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        root_fact = np.append(
            np.sqrt([float(math.factorial(k)) for k in range(171)]),
            np.exp([0.5 * math.lgamma(k + 1) for k in range(171, cap + 1)]))
        for j, occ in enumerate(_ref_table(2, cap)[0].T):
            vec = vec * disp[j] ** occ / root_fact[occ]
    sys0 = np.array([1.0, 0.0])
    psi, lost = assemble_initial_state(
        space, sys0, [InitialEnvState("coherent", disp)])
    assert space.table.dtype == (np.uint16 if cap > 255 else np.uint8)
    assert psi.tobytes() == np.kron(sys0, vec / np.linalg.norm(vec)).tobytes()
    assert lost == 1.0 - float(np.sum(np.abs(vec) ** 2))
