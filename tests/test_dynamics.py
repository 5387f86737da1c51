import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from nmk_sim import dynamics as dyn
from nmk_sim import fock, kernels as ker
from nmk_sim.chain import ChainCoefficients, star_to_chain
from nmk_sim.dynamics import (
    ErrorBudget,
    StateConstants,
    apriori_mu1,
    assemble_error_budget,
    chain_error_bound,
    cutoff_error_bound,
    evolve,
    measure_moments,
    regularization_error_bound,
    regularization_term,
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
    traj = evolve(model, [zero], space, psi0, 1.0, out_step=0.25,
                  keep_states=True)
    assert max(np.linalg.norm(s - psi0) for s in traj.states) == 0.0


def test_bloch_precession():
    model = _qubit_model(hs=0.5 * SIGMA_Z)
    zero = ChainCoefficients(np.zeros(1), np.zeros(0), 0.0, 1.0, 1)
    space = enumerate_basis(1, 2, 1, 1, 1)
    psi0 = _vacuum_start(space, (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)))
    traj = evolve(model, [zero], space, psi0, 6.0, out_step=0.1)
    mx = np.array([np.trace(r @ SIGMA_X).real for r in traj.rho_s])
    assert np.max(np.abs(mx - np.cos(traj.times))) < 1e-12


def test_jaynes_cummings_population():
    g, w0 = 0.37, 1.3
    model = _qubit_model(hs=0.5 * w0 * SIGMA_Z)
    coeffs = ChainCoefficients(np.array([w0]), np.zeros(0), g, 2.0, 1)
    space = enumerate_basis(1, 2, 1, 1, 2)
    psi0 = _vacuum_start(space)
    traj = evolve(model, [coeffs], space, psi0, 4.0, out_step=0.05)
    assert np.max(np.abs(traj.rho_ee() - np.cos(g * traj.times) ** 2)) < 1e-10
    traj.validate()


def test_krylov_path_matches_eigendecomposition(eigh_states):
    # the 3-mode chain that once took scipy's Krylov path, against a dense
    # eigendecomposition
    model = _qubit_model(hs=0.5 * SIGMA_Z, jump=SIGMA_X)
    coeffs = ChainCoefficients(np.array([0.1, -0.2, 0.3]),
                               np.array([0.4, 0.5]), 0.6, 1.0, 3)
    space = enumerate_basis(1, 2, 1, 3, 2)
    psi0 = _vacuum_start(space)
    traj = evolve(model, [coeffs], space, psi0, 2.0, out_step=0.5,
                  keep_states=True)
    h, _ = fock.build_hamiltonian_parts(model, [coeffs], space)
    want = eigh_states(h, psi0, traj.times)
    assert np.max(np.linalg.norm(traj.states - want, axis=1)) < 1e-12


def test_long_desk_chain_matches_eigendecomposition(eigh_states,
                                                    lorentzian_coupling):
    # dim 330 to t = 20 (401 outputs, ||H||_1 t about 250)
    model = _qubit_model(hs=0.5 * SIGMA_Z, jump=SIGMA_X)
    chain = star_to_chain(lorentzian_coupling, 3.0, 8)
    space = enumerate_basis(1, 2, 1, 8, 3)
    assert space.dimension == 330
    psi0 = _vacuum_start(space)
    traj = evolve(model, [chain], space, psi0, 20.0, out_step=0.05,
                  keep_states=True).validate()
    assert len(traj.times) == 401
    h, _ = fock.build_hamiltonian_parts(model, [chain], space)
    want = eigh_states(h, psi0, traj.times)
    assert np.max(np.linalg.norm(traj.states - want, axis=1)) < 1e-12


@pytest.mark.parametrize("run", ["const", "driven", "fast-drive"])
def test_norm_time_product_above_limit_fails_before_first_step(monkeypatch,
                                                               run):
    # ||sigma_z||_1 = 1, so theta_run = 1e6 t_final either from the scale or
    # from the drive frequency; no product may run
    def no_step(*args):
        raise AssertionError("product taken above the norm-time limit")

    monkeypatch.setattr(dyn.PartStack, "products", no_step)
    profile = {"const": None, "driven": TimeProfile("cos", 2.0),
               "fast-drive": TimeProfile("sin", -1e6)}[run]
    scale = 1.0 if run == "fast-drive" else 1e6
    model = _qubit_model(hs=scale * SIGMA_Z, profile=profile)
    zero = ChainCoefficients(np.zeros(1), np.zeros(0), 0.0, 1.0, 1)
    space = enumerate_basis(1, 2, 1, 1, 1)
    t_final = 1.01 * dyn.NORM_TIME_LIMIT / 1e6
    with pytest.raises(StepControlFailure, match="norm-time product"):
        evolve(model, [zero], space, _vacuum_start(space), t_final,
               out_step=t_final)


def test_time_dependent_matches_commuting_closed_form():
    # H(t) = cos(nu t) sigma_x / 2 commutes with itself at all times:
    # P_e(t) = cos^2(sin(nu t) / (2 nu)).
    nu = 1.7
    model = _qubit_model(hs=0.5 * SIGMA_X, profile=TimeProfile("cos", nu))
    zero = ChainCoefficients(np.zeros(1), np.zeros(0), 0.0, 1.0, 1)
    space = enumerate_basis(1, 2, 1, 1, 1)
    psi0 = _vacuum_start(space)
    traj = evolve(model, [zero], space, psi0, 3.0, out_step=0.25)
    expected = np.cos(np.sin(nu * traj.times) / (2.0 * nu)) ** 2
    assert np.max(np.abs(traj.rho_ee() - expected)) < 1e-9
    traj.validate()


def _driven_qubit(lorentzian_coupling, modes, cap):
    # the driven case of acceptance criterion 5 at `modes` and `cap`
    model = _qubit_model(hs=0.4 * SIGMA_X, profile=TimeProfile("cos", 2.0))
    chain = star_to_chain(lorentzian_coupling, 3.0, modes)
    space = enumerate_basis(1, 2, 1, modes, cap)
    return model, [chain], space, _vacuum_start(space)


@pytest.mark.parametrize("modes", [4, 8], ids=["csr-dim30", "csr-dim90"])
def test_driven_run_matches_ode_reference(ode_states, lorentzian_coupling,
                                          modes):
    # the driven case of acceptance criterion 5 to t = 2
    model, chains, space, psi0 = _driven_qubit(lorentzian_coupling, modes, 2)
    traj = evolve(model, chains, space, psi0, 2.0, out_step=0.2,
                  keep_states=True).validate()
    h_const, profiled = fock.build_hamiltonian_parts(model, chains, space)
    want = ode_states([h_const] + [term for term, _ in profiled],
                      [f for _, f in profiled], psi0, traj.times)
    assert np.max(np.linalg.norm(traj.states - want, axis=1)) < 1e-13


def test_driven_dim_90_run_takes_no_krylov():
    # every exponential is a Taylor or Chebyshev series on the vector: the
    # propagator binds no scipy exponential at all
    assert not hasattr(dyn, "expm_multiply")


def _hermitian_parts(rng, dim, count):
    parts = []
    for _ in range(count):
        mat = sp.random(dim, dim, density=0.2, random_state=rng)
        mat = mat + 1j * sp.random(dim, dim, density=0.2, random_state=rng)
        parts.append((mat + mat.conj().T).tocsr())
    return parts


@pytest.mark.parametrize("theta", [0.0, 1e-4, 0.01, 0.5, 3.0, 4.0, 4.01,
                                   40.0, 400.0], ids=lambda t: f"{t}-csr")
def test_taylor_exponential_matches_expm(theta):
    # one profile-free output interval of norm bound theta = t R,
    # propagated by the Chebyshev recurrence (`_chebyshev_run`)
    rng = np.random.default_rng(7)
    parts = _hermitian_parts(rng, 24, 3)
    h = sum(w * p for w, p in zip(rng.uniform(-1.0, 1.0, 3), parts))
    stack = dyn.PartStack([h])
    t = theta / stack.norms[0]
    psi = rng.normal(size=24) + 1j * rng.normal(size=24)
    want = expm(-1j * t * h.toarray()) @ psi
    got = dyn._propagate(stack, [], psi, np.array([0.0, t]))[-1]
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    if theta == 0.0:
        assert got.tobytes() == psi.tobytes()


def _segment_degrees(norm, times):
    # the segment rule restated: from each segment's start, as many output
    # intervals as keep norm * length <= CHEBYSHEV_SEGMENT_NORM, up to
    # CHEBYSHEV_SEGMENT_ROWS, at least one; the degree of its last row
    degrees, start = [], 0
    while start < len(times) - 1:
        stop = start + 1
        while (stop + 1 < len(times)
               and stop - start < dyn.CHEBYSHEV_SEGMENT_ROWS
               and norm * (times[stop + 1] - times[start])
               <= dyn.CHEBYSHEV_SEGMENT_NORM):
            stop += 1
        degrees.append(dyn._chebyshev_degree(norm * (times[stop]
                                                     - times[start])))
        start = stop
    return degrees


@pytest.mark.parametrize("theta, rows, segments", [
    (0.5, 5, 1), (12.0, 4, 1), (40.0, 9, 1), (40.0, 2, 1), (400.0, 3, 2),
    (400.0, 41, 7), (390.0, 201, 7), (0.5, 201, 4)])
def test_chebyshev_run_matches_expm_at_every_output(theta, rows, segments):
    # a constant run of norm-time product theta over rows - 1 equal
    # intervals: in one segment (intervals of norm 5, or one of norm 40), in
    # several (6 intervals of norm 10 or 32 of norm 1.95 per segment, or 200
    # short intervals cut at 64 rows), or in intervals of norm 200 above the
    # segment norm, each its own segment
    rng = np.random.default_rng(11)
    h = _hermitian_parts(rng, 24, 1)[0]
    stack = dyn.PartStack([h])
    times = np.linspace(0.0, theta / stack.norms[0], rows)
    psi = rng.normal(size=24) + 1j * rng.normal(size=24)
    psi /= np.linalg.norm(psi)
    got = dyn._propagate(stack, [], psi, times)
    assert got[0].tobytes() == psi.tobytes()
    err = max(np.linalg.norm(row - expm(-1j * t * h.toarray()) @ psi)
              for row, t in zip(got, times))
    assert err <= 1e-14 + 4e-16 * theta
    assert len(_segment_degrees(stack.norms[0], times)) == segments


@pytest.mark.parametrize("x", [0.0, *np.logspace(-4.0, 3.0, 15)])
def test_chebyshev_tail_bound_holds(x):
    # the bound at the planned degree K is at most 2^-53, the one at K - 1
    # is not, and the bound is at least the true 2 sum_{k > K} |J_k(x)|
    # (mpmath at 30 digits) for K and the three degrees either side
    import mpmath

    degree = dyn._chebyshev_degree(x)
    assert dyn._bessel_tail(x, degree) <= 2.0**-53
    assert degree == 0 or dyn._bessel_tail(x, degree - 1) > 2.0**-53
    with mpmath.workdps(30):
        for k0 in range(max(degree - 3, 0), degree + 4):
            terms = [abs(mpmath.besselj(k0 + 1, x))]
            while terms[-1] > 1e-30 * terms[0]:
                terms.append(abs(mpmath.besselj(k0 + len(terms) + 1, x)))
            assert dyn._bessel_tail(x, k0) >= 2.0 * float(mpmath.fsum(terms))


def test_chebyshev_run_takes_planned_products(monkeypatch):
    # fock-krylov's grid at a norm near 66: 20 intervals of norm 6.6, cut
    # into segments of 9, 9 and 2 intervals, one product per degree; the
    # Taylor plan of the same run takes 20 pieces-times-degree
    calls = []
    products = dyn.PartStack.products

    def counting(self, phi):
        calls.append(1)
        return products(self, phi)

    monkeypatch.setattr(dyn.PartStack, "products", counting)
    rng = np.random.default_rng(3)
    h = _hermitian_parts(rng, 16, 1)[0]
    h = h * (66.0 / dyn.PartStack([h]).norms[0])
    stack = dyn.PartStack([h])
    times = dyn.output_times(2.0, 0.1)
    dyn._propagate(stack, [], rng.normal(size=16) + 0j, times)
    degrees = _segment_degrees(stack.norms[0], times)
    assert len(degrees) == 3
    assert len(calls) == sum(degrees)
    pieces, degree = dyn._taylor_plan(stack.norms, np.zeros(1), 0.1)
    assert len(calls) < (len(times) - 1) * pieces * degree


def test_chebyshev_long_interval_memory():
    # one interval of theta about 6e4 on a qubit: degree about 8e4, whose
    # (K, K) coefficient table would take 100 GB; the run's coefficients
    # and vectors stay within a few MB
    import tracemalloc

    h = sp.csr_matrix(np.array([[0.5, 0.3], [0.3, -0.5]], dtype=complex))
    stack = dyn.PartStack([h])
    t = 6e4 / stack.norms[0]
    psi = np.array([1.0, 0.0], dtype=complex)
    tracemalloc.start()
    try:
        got = dyn._propagate(stack, [], psi, np.array([0.0, t]))[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dyn._chebyshev_degree(6e4) > 8e4
    assert peak < 32 * 2**20
    vals, vecs = np.linalg.eigh(h.toarray())
    want = vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ psi))
    assert np.linalg.norm(got - want) < 1e-10


def _bound_case(case):
    rng = np.random.default_rng(13)
    if case == "real":
        mat = sp.random(300, 300, density=0.05, random_state=rng)
        return (mat + mat.T).tocsr()
    if case == "complex":
        return _hermitian_parts(rng, 300, 1)[0]
    if case == "star":
        # a system row coupled to 512 modes on [-20, 20]: the row's 1-norm
        # is 51.2, the spectrum about 20 wide
        mat = sp.lil_matrix((513, 513))
        mat.setdiag(np.append(0.0, np.linspace(-20.0, 20.0, 512)))
        mat[0, 1:] = 0.1
        mat[1:, 0] = 0.1
        return mat.tocsr()
    if case == "diagonal":
        return sp.diags(rng.uniform(-3.0, 3.0, 40), format="csr")
    return sp.csr_matrix((40, 40))


@pytest.mark.parametrize("case", ["real", "complex", "star", "diagonal",
                                  "zero"])
def test_spectral_bound_lies_between_spectrum_and_one_norm(case):
    # Wielandt and Collatz-Wielandt: at least ||P||_2 = max |eigvalsh|; the
    # first step is the 1-norm, so at most that times the rounding factor
    part = _bound_case(case)
    bound = dyn.spectral_bound(part)
    factor = 1.0 + (np.diff(part.indptr).max() + 4) * 2.0**-52
    spectral = np.abs(np.linalg.eigvalsh(part.toarray())).max()
    assert spectral <= bound <= float(abs(part).sum(axis=0).max()) * factor
    if case == "star":
        assert bound < 1.02 * spectral
    if case in ("diagonal", "zero"):
        assert bound == spectral * factor


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_constant_part_fails_before_first_product(monkeypatch,
                                                             bad):
    def no_step(*args):
        raise AssertionError("product taken on a non-finite part")

    h = _hermitian_parts(np.random.default_rng(2), 12, 1)[0]
    h.data[3] = bad
    stack = dyn.PartStack([h])
    monkeypatch.setattr(dyn.PartStack, "products", no_step)
    with pytest.raises(StepControlFailure, match="norm-time product"):
        dyn._propagate(stack, [], np.ones(12, dtype=complex),
                       np.array([0.0, 1.0]))


def test_single_part_stack_holds_the_part_itself():
    h = _hermitian_parts(np.random.default_rng(4), 12, 1)[0]
    assert dyn.PartStack([h])._stack is h


def test_chebyshev_fock_krylov_run_takes_planned_products(
        monkeypatch, lorentzian_coupling):
    # the fock-krylov benchmark model (desk bath, 20 modes, cap 4, dim
    # 21,252) to t = 2 at step 0.1: R near 12.64 against a 1-norm of 16.58
    # puts the run in one segment of degree at most 64 (110 products, in
    # three segments, at R = ||H||_1 and a segment norm of 16)
    calls = []
    products = dyn.PartStack.products

    def counting(self, phi):
        calls.append(1)
        return products(self, phi)

    monkeypatch.setattr(dyn.PartStack, "products", counting)
    model = _qubit_model(hs=0.5 * SIGMA_Z, jump=SIGMA_X)
    chain = star_to_chain(lorentzian_coupling, 3.0, 20)
    space = enumerate_basis(1, 2, 1, 20, 4)
    assert space.dimension == 21252
    h, _ = fock.build_hamiltonian_parts(model, [chain], space)
    stack = dyn.PartStack([h])
    times = dyn.output_times(2.0, 0.1)
    dyn._propagate(stack, [], _vacuum_start(space), times)
    degrees = _segment_degrees(stack.norms[0], times)
    assert len(calls) == sum(degrees) <= 64
    assert len(degrees) == 1


def _recording_products(monkeypatch):
    # the dtype of every `PartStack.products` argument, in call order
    dtypes = []
    products = dyn.PartStack.products

    def recording(self, phi):
        dtypes.append(phi.dtype)
        return products(self, phi)

    monkeypatch.setattr(dyn.PartStack, "products", recording)
    return dtypes


@pytest.mark.parametrize("theta, rows, start", [
    (40.0, 9, "real"), (400.0, 41, "real"), (400.0, 41, "complex")],
    ids=["real-one-segment", "real-segments", "complex-start"])
def test_chebyshev_real_field_matches_expm(monkeypatch, theta, rows, start):
    # a real symmetric H: a real start runs its first segment on real
    # vectors, each later segment (7 in all at theta 400) starts complex
    # and runs complex, as does every segment from a complex start
    dtypes = _recording_products(monkeypatch)
    rng = np.random.default_rng(17)
    mat = sp.random(24, 24, density=0.2, random_state=rng)
    h = (mat + mat.T).tocsr()
    stack = dyn.PartStack([h])
    assert stack.real
    times = np.linspace(0.0, theta / stack.norms[0], rows)
    psi = rng.normal(size=24) + 1j * (rng.normal(size=24) if start == "complex"
                                      else 0.0)
    psi /= np.linalg.norm(psi)
    got = dyn._propagate(stack, [], psi, times)
    assert got[0].tobytes() == psi.tobytes()
    err = max(np.linalg.norm(row - expm(-1j * t * h.toarray()) @ psi)
              for row, t in zip(got, times))
    assert err <= 1e-14 + 4e-16 * theta
    degrees = _segment_degrees(stack.norms[0], times)
    assert len(dtypes) == sum(degrees)
    real = degrees[0] if start == "real" else 0
    assert all(d == np.float64 for d in dtypes[:real])
    assert all(d == np.complex128 for d in dtypes[real:])


def test_chebyshev_fock_krylov_run_takes_real_products(monkeypatch,
                                                       lorentzian_coupling):
    # the fock-krylov benchmark model is real and starts in a real state:
    # its one segment takes every one of its 60 products on a real vector
    dtypes = _recording_products(monkeypatch)
    model = _qubit_model(hs=0.5 * SIGMA_Z, jump=SIGMA_X)
    chain = star_to_chain(lorentzian_coupling, 3.0, 20)
    space = enumerate_basis(1, 2, 1, 20, 4)
    h, _ = fock.build_hamiltonian_parts(model, [chain], space)
    assert h.dtype == np.float64
    stack = dyn.PartStack([h])
    times = dyn.output_times(2.0, 0.1)
    dyn._propagate(stack, [], _vacuum_start(space), times)
    assert len(dtypes) == sum(_segment_degrees(stack.norms[0], times)) == 60
    assert all(d == np.float64 for d in dtypes)


def test_chebyshev_complex_vector_product_on_real_part():
    # a complex vector on a real stack takes one real product on its real
    # part and one on its imaginary part; the complex stack's product of
    # the same parts agrees within 1e-15 relative
    rng = np.random.default_rng(23)
    parts = []
    for _ in range(3):
        mat = sp.random(40, 40, density=0.2, random_state=rng)
        parts.append((mat + mat.T).tocsr())
    real = dyn.PartStack(parts)
    cplx = dyn.PartStack([p.astype(complex) for p in parts])
    assert real.real and not cplx.real
    phi = rng.normal(size=40) + 1j * rng.normal(size=40)
    got, want = real.products(phi), cplx.products(phi)
    assert got.dtype == np.complex128 and got.shape == (3, 40)
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def test_collect_forms_no_state_sized_temporary():
    # the reduced states and norms are formed one output row at a time and
    # keep the bits of the batched products over the (T, sys_dim, env_dim)
    # view; the collect's heap peak is the moments' own plus a few rows,
    # below the 41 rows of a conjugate of the whole array
    import tracemalloc

    space = enumerate_basis(2, 2, 1, 12, 3)
    rng = np.random.default_rng(9)
    states = (rng.normal(size=(41, space.dimension))
              + 1j * rng.normal(size=(41, space.dimension)))
    times = np.linspace(0.0, 1.0, 41)
    tracemalloc.start()
    try:
        measure_moments(space, states)
        moments_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        traj = dyn._collect(space, times, states, False, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mat = states.reshape(41, space.sys_dim, space.env_dim)
    assert traj.rho_s.tobytes() == (mat @ mat.conj().swapaxes(1, 2)).tobytes()
    assert traj.norms.tobytes() == np.linalg.norm(states, axis=1).tobytes()
    assert peak < moments_peak + states.nbytes / 8


def test_driven_run_plans_once(monkeypatch, lorentzian_coupling):
    # linspace intervals that differ in their last bits share the longest
    # interval's plan
    plans = []
    plan = dyn._taylor_plan

    def counting(*args):
        plans.append(plan(*args))
        return plans[-1]

    monkeypatch.setattr(dyn, "_taylor_plan", counting)
    model, chains, space, psi0 = _driven_qubit(lorentzian_coupling, 4, 2)
    times = dyn.output_times(2.0, 0.1)
    assert len(set(np.diff(times))) > 1
    evolve(model, chains, space, psi0, 2.0, out_step=0.1)
    assert len(plans) == 1


@pytest.mark.parametrize("seed", range(6))
def test_taylor_terms_within_majorant(ode_states, seed):
    # random Hermitian parts with cos and sin drives, |omega| up to 50 and
    # either sign: every Taylor coefficient of one piece lies below its
    # majorant, the planned degree is the smallest whose majorant tail is
    # at most 2^-53 (up to the 2^-54 allowed for its Cauchy estimate), and
    # the summed piece is within that tail (plus rounding) of the reference
    rng = np.random.default_rng(seed)
    parts = _hermitian_parts(rng, 12, 3)
    profiles = [TimeProfile(kind, omega) for kind, omega in
                zip(rng.choice(["cos", "sin"], 2), rng.uniform(-50, 50, 2))]
    stack = dyn.PartStack(parts)
    omegas = np.abs([0.0] + [f.frequency for f in profiles])
    pieces, degree = dyn._taylor_plan(stack.norms, omegas, 1.0)
    h, t0 = 1.0 / pieces, rng.uniform(0.0, 3.0)
    psi = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi /= np.linalg.norm(psi)
    terms = list(dyn._taylor_terms(stack, profiles, t0, h, degree, psi))
    y = dyn._majorant(h * stack.norms, h * omegas, degree)
    assert len(terms) == degree + 1
    for phi, bound in zip(terms, y):
        assert np.linalg.norm(phi) <= bound * (1.0 + 1e-12)
    y = dyn._majorant(h * stack.norms, h * omegas, 4 * degree)
    assert y[degree + 1:].sum() <= 2.0**-53 < 2.0 * y[degree:].sum()
    want = ode_states(parts, profiles, psi, np.array([t0, t0 + h]))[-1]
    assert np.linalg.norm(sum(terms[1:], terms[0]) - want) <= 2.0**-53 + 1e-14


@pytest.mark.parametrize("seed", range(6))
def test_taylor_piece_count_is_smallest(seed):
    # the random drives of test_taylor_terms_within_majorant (|omega| up to
    # 50) need more pieces than the constant count ceil(sum_k R_k / 4), so
    # the search doubles and bisects: the planned count keeps every piece
    # h sum_k R_k e^{|omega_k| h} within TAYLOR_PIECE_NORM, one fewer does not
    rng = np.random.default_rng(seed)
    parts = _hermitian_parts(rng, 12, 3)
    profiles = [TimeProfile(kind, omega) for kind, omega in
                zip(rng.choice(["cos", "sin"], 2), rng.uniform(-50, 50, 2))]
    omegas = np.abs([0.0] + [f.frequency for f in profiles])
    norms = dyn.PartStack(parts).norms
    pieces, _ = dyn._taylor_plan(norms, omegas, 1.0)

    def piece_norm(count):
        h = 1.0 / count
        return h * float(norms @ np.exp(omegas * h))

    assert pieces > math.ceil(norms.sum() / dyn.TAYLOR_PIECE_NORM)
    assert piece_norm(pieces) <= dyn.TAYLOR_PIECE_NORM < piece_norm(pieces - 1)


def test_profile_taylor_coefficients():
    # the closed-form series of f(t0 + s h), summed, against f itself, for
    # both signs of omega
    for kind, omega in [("cos", 2.3), ("sin", 2.3), ("cos", -7.0),
                        ("sin", -7.0), ("const", 0.0)]:
        f = TimeProfile(kind, omega)
        for s in (0.3, 1.0):
            coeffs = f.taylor(0.7, 0.25, 40)
            assert abs(coeffs @ s ** np.arange(41) - f(0.7 + 0.25 * s)) < 1e-15


@pytest.mark.parametrize("fmt", ["csr"])
def test_nan_part_is_step_control_failure(monkeypatch, fmt):
    # a NaN in a part makes its norm bound NaN; the exponential must fail
    # as a step-control failure before the piece count is taken from it
    build = dyn.build_hamiltonian_parts

    def poisoned(*args):
        h_const, profiled = build(*args)
        term, profile = profiled[0]
        term = sp.csr_matrix((term.data, term.indices, term.indptr),
                             shape=term.shape).tolil()
        term[0, 1] = np.nan
        return h_const, [(term.asformat(fmt), profile)]

    monkeypatch.setattr(dyn, "build_hamiltonian_parts", poisoned)
    model = _qubit_model(hs=0.5 * SIGMA_X, profile=TimeProfile("cos", 2.0))
    zero = ChainCoefficients(np.zeros(1), np.zeros(0), 0.0, 1.0, 1)
    space = enumerate_basis(1, 2, 1, 1, 1)
    with pytest.raises(StepControlFailure):
        evolve(model, [zero], space, _vacuum_start(space), 1.0, out_step=1.0)


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


@pytest.mark.parametrize("field", ["rho_s", "norms"])
def test_validate_rejects_nan(field):
    # NaN compares false against every tolerance, so each check must reject
    # a non-finite value explicitly
    traj = dyn.Trajectory(np.array([0.0]),
                          np.array([[[1.0, 0.0], [0.0, 0.0]]], dtype=complex),
                          np.zeros((1, 1)), np.zeros((1, 1)), np.ones(1))
    getattr(traj, field).flat[0] = np.nan
    with pytest.raises(StepControlFailure):
        traj.validate()


def test_trajectory_state_sanity():
    model = _qubit_model(hs=0.5 * SIGMA_Z, jump=SIGMA_X)
    coeffs = ChainCoefficients(np.array([0.2, 0.1]), np.array([0.3]),
                               0.5, 1.0, 2)
    space = enumerate_basis(1, 2, 1, 2, 3)
    psi0 = _vacuum_start(space)
    traj = evolve(model, [coeffs], space, psi0, 3.0, out_step=0.1)
    traj.validate()
    assert traj.norm_drift < 1e-8
    for rho in traj.rho_s:
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-8


# -- moments ----------------------------------------------------------------------

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


def test_stacked_moments_match_per_basis_state_sums():
    # reference: each bath's occupation read off every basis label
    space = enumerate_basis(1, 2, 2, 2, 2)
    rng = np.random.default_rng(7)
    psi = (rng.normal(size=(3, space.dimension))
           + 1j * rng.normal(size=(3, space.dimension)))
    counts = np.array([[sum(occ) for occ in space.index_to_labels(i)[1]]
                       for i in range(space.dimension)], dtype=float)
    prob = np.abs(psi) ** 2
    mu1, mu2 = measure_moments(space, psi)
    np.testing.assert_allclose(mu1, prob @ counts, rtol=1e-13)
    np.testing.assert_allclose(mu2, prob @ counts**2, rtol=1e-13)
    one = measure_moments(space, psi[1])
    np.testing.assert_allclose(one[0], mu1[1], rtol=1e-15)
    np.testing.assert_allclose(one[1], mu2[1], rtol=1e-15)


def test_stacked_observables_match_per_state(lorentzian_coupling):
    model = _qubit_model(hs=0.5 * SIGMA_Z, jump=SIGMA_X)
    space = enumerate_basis(1, 2, 1, 4, 2)
    chain = star_to_chain(lorentzian_coupling, 3.0, 4)
    traj = evolve(model, [chain], space, _vacuum_start(space), 1.0,
                  out_step=0.25, keep_states=True)
    assert traj.states.shape == (5, space.dimension)
    for k, psi in enumerate(traj.states):
        mat = psi.reshape(space.sys_dim, space.env_dim)
        assert np.array_equal(traj.rho_s[k], mat @ mat.conj().T)
        assert traj.norms[k] == pytest.approx(np.linalg.norm(psi), rel=1e-15)
    other = traj.rho_s[::-1]
    dists = trace_distance(traj.rho_s, other)
    assert dists.shape == (5,)
    for k in range(5):
        assert dists[k] == trace_distance(traj.rho_s[k], other[k])
    assert isinstance(trace_distance(traj.rho_s[0], other[0]), float)


def test_measured_moments_below_apriori(flat_coupling):
    coeffs = star_to_chain(flat_coupling, 1.0, 6)
    scaled = ChainCoefficients(coeffs.onsite, coeffs.hopping, 0.5, 1.0, 6)
    model = _qubit_model(jump=SIGMA_X)
    space = enumerate_basis(1, 2, 1, 6, 3)
    psi0 = _vacuum_start(space)
    traj = evolve(model, [scaled], space, psi0, 4.0, out_step=0.1)
    g = 0.5  # ||v|| ||L||
    assert np.all(traj.mu1[:, 0] <= apriori_mu1(g, traj.times) + 1e-10)


# -- truncation certificate --------------------------------------------------------

def test_certificate_zero_coupling():
    assert truncation_certificate(3, 2.0, [0.0]) == 0.0


def test_certificate_rejects_cap_below_one():
    # the leak term divides by the cap
    with pytest.raises(ValueError):
        truncation_certificate(0, 2.0, [0.5])


def test_certificate_quarter_cap_halves():
    c1 = truncation_certificate(1, 2.0, [0.5])
    c4 = truncation_certificate(4, 2.0, [0.5])
    assert c4 / c1 == pytest.approx(0.5, abs=1e-10)


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
                      out_step=0.5, keep_states=True)
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
                      out_step=0.25)
        rhos[wc] = traj.rho_s
    measured = max(trace_distance(a, b) for a, b in zip(rhos[2.0], rhos[4.0]))
    cert = cutoff_error_bound([1.0], [lorentzian_coupling], 2.0, t_final)
    assert cert >= measured


def test_chain_bound_trivial_zeros(flat_coupling):
    coeffs = star_to_chain(flat_coupling, 1.0, 6)
    assert chain_error_bound([1.0], [coeffs], 0.0) == 0.0
    assert chain_error_bound([0.0], [coeffs], 1.0) == 0.0


def test_chain_bound_flat_twenty_modes(flat_coupling):
    """Bound below 1e-3 at omega_c = 1, N_m = 20, t = 1 for unit strengths."""
    grid = np.linspace(-1, 1, 257)
    unit = ker.RegularizedCoupling.from_samples(grid, np.full(257, math.sqrt(0.5)))
    coeffs = star_to_chain(unit, 1.0, 20)
    assert coeffs.v_norm == pytest.approx(1.0, rel=1e-10)
    sampled = chain_error_bound([1.0], [coeffs], 1.0, n_sup=16)
    certified = chain_error_bound([1.0], [coeffs], 1.0,
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
                      out_step=0.25)
        rhos[modes] = traj.rho_s
    measured = max(trace_distance(a, b) for a, b in zip(rhos[4], rhos[12]))
    coeffs4 = star_to_chain(unit, 1.0, 4)
    cert = chain_error_bound([1.0], [coeffs4], t_final)
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


def _segment_quad(kernel, edges):
    from scipy.integrate import quad

    def f(w):
        return ker.eval_spectral_density(kernel, w) / (1.0 + w * w)
    return sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
               for a, b in zip(edges[:-1], edges[1:]))


def _photon_count_case(kind):
    """(kernel, exact int mu_hat / (1 + w^2) dw)."""
    if kind == "unit_delta":
        return ker.MemoryKernel.delta_train([(1.0, 0.0)]), math.pi
    if kind == "feedback_delay":
        kernel = ker.MemoryKernel.delta_train(
            [(-0.5, -0.8), (1.0, 0.0), (-0.5, 0.8)])
        return kernel, math.pi * (1.0 - math.exp(-0.8))
    if kind == "lorentzian":
        kernel = ker.MemoryKernel.lorentzian_sum([(0.7, 1.3, 0.4),
                                                  (0.2, -2.0, 0.9)])
        return kernel, _segment_quad(kernel, [-np.inf, -2.0, 1.3, np.inf])
    w = np.linspace(-3.0, 5.0, 41)
    kernel = ker.MemoryKernel.tabulated(w, np.abs(np.sin(w)) + 0.1 * w**2)
    return kernel, _segment_quad(kernel, w)


@pytest.mark.parametrize("kind", ["unit_delta", "feedback_delay",
                                  "lorentzian", "tabulated"])
def test_photon_count_integral_is_exact(kind):
    # c_mu^2 / N_{1,1} is int mu_hat / (1 + w^2) dw; a quadrature that falls
    # below it would not bound the regularization error
    kernel, exact = _photon_count_case(kind)
    sc = StateConstants.from_photon_counts([kernel], [1.0], [1.0])
    assert sc.c_mu[0] ** 2 == pytest.approx(exact, rel=1e-12)
    assert sc.c_reg[0] == sc.c_mu[0]


def test_hs_commutator_sup_bounds_driven_term():
    # H_S(s) = sin(3 pi s) sigma_x, L = sigma_z: sup_s ||[H_S(s), L]|| = 2,
    # reached at s = 1/6, 1/2 and 5/6, between the points of a coarse grid
    profile = TimeProfile("sin", 3.0 * math.pi)
    model = _qubit_model(hs=SIGMA_X, jump=SIGMA_Z, profile=profile)
    grid = np.linspace(0.0, 1.0, 100_001)
    comm = SIGMA_X @ SIGMA_Z - SIGMA_Z @ SIGMA_X
    sampled = float(np.max(np.abs(np.sin(3.0 * math.pi * grid))))
    sampled *= float(np.linalg.norm(comm, 2))
    assert dyn.hs_commutator_sup(model, 0) >= sampled


# -- assembled budget ---------------------------------------------------------------

def test_error_budget_total_and_validation():
    budget = ErrorBudget(0.1, 0.2, 0.3, 0.4, 0.0, parameters={"epsilon": 0.1})
    assert budget.total == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ErrorBudget(-0.1, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ErrorBudget(0.1, 0.0, 0.0, math.nan, 0.0)


def test_assemble_error_budget(lorentzian_kernel, lorentzian_coupling):
    model = _qubit_model(hs=0.5 * SIGMA_Z, jump=SIGMA_X)
    coeffs = star_to_chain(lorentzian_coupling, 3.0, 6)
    space = enumerate_basis(1, 2, 1, 6, 2)
    reg = regularization_term(model, [lorentzian_kernel],
                              lorentzian_coupling.epsilon, 0.5,
                              StateConstants.vacuum(1))
    budget = assemble_error_budget(model, [lorentzian_coupling], [coeffs],
                                   space, 0.5, reg)
    assert budget.regularization == reg > 0.0
    for name in ("regularization", "cutoff", "chain", "truncation",
                 "initialization"):
        assert getattr(budget, name) >= 0.0
    assert budget.total == pytest.approx(
        budget.regularization + budget.cutoff + budget.chain
        + budget.truncation + budget.initialization)
    assert budget.parameters["particle_cap"] == 2
