"""`nmk_sim.csr` against `scipy.sparse`, bit for bit.

Every operation of the CSR module must return what scipy returns for the
same operation: the same index dtype, `indptr`, `indices` and `data` bytes.
scipy's sparse matrices stay the reference here, as the run path no longer
imports them.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from nmk_sim import csr, fock
from nmk_sim.chain import ChainCoefficients
from nmk_sim.fock import SIGMA_MINUS, SIGMA_X, SIGMA_Z, SystemModel, TimeProfile
from nmk_sim.oracle import StarDiscretization

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _assert_same_bits(got, want):
    want = want.tocsr()
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def _triplets(rng, dim, count, dtype, duplicates=True):
    rows = rng.integers(0, dim, count, dtype=np.int32)
    cols = rng.integers(0, dim, count, dtype=np.int32)
    if duplicates:      # repeat a third of the positions
        third = count // 3
        rows[:third], cols[:third] = rows[-third:], cols[-third:]
    vals = rng.normal(size=count)
    if dtype == complex:
        vals = vals + 1j * rng.normal(size=count)
    return vals, rows, cols


def _pair(rng, dim, count, dtype):
    vals, rows, cols = _triplets(rng, dim, count, dtype)
    return (csr.CSR.from_triplets(vals, rows, cols, (dim, dim)),
            sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim)))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("dim, count", [(1, 0), (7, 40), (30, 200),
                                        (200, 3000)])
def test_from_triplets_sums_duplicates_as_scipy(dtype, dim, count):
    rng = np.random.default_rng(dim + count)
    vals, rows, cols = _triplets(rng, dim, count, dtype)
    if count:       # entries that sum to zero, and signed zeros, stay stored
        vals[:4] = [1.5, -1.5, -0.0, 0.0]
        rows[:4], cols[:4] = rows[0], cols[0]
    got = csr.CSR.from_triplets(vals, rows, cols, (dim, dim))
    _assert_same_bits(got, sp.csr_matrix((vals, (rows, cols)),
                                         shape=(dim, dim)))
    assert got.nnz == got.indptr[-1] and got.dtype == vals.dtype


def test_from_triplets_of_canonical_rows_keeps_their_order():
    # sorted rows without duplicates skip the sort, as scipy skips it
    dim = 50
    dense = np.random.default_rng(3).normal(size=(dim, dim))
    dense[np.abs(dense) < 1.0] = 0.0
    rows, cols = np.nonzero(dense)
    got = csr.CSR.from_triplets(dense[rows, cols], rows.astype(np.int32),
                                cols.astype(np.int32), (dim, dim))
    _assert_same_bits(got, sp.csr_matrix(dense))


def test_zeros_is_scipy_empty_matrix():
    for dtype in (float, complex):
        _assert_same_bits(csr.CSR.zeros((9, 9), dtype),
                          sp.csr_matrix((9, 9), dtype=dtype))


@pytest.mark.parametrize("dtypes", [(float, float), (complex, complex),
                                    (complex, float)])
def test_sum_drops_zero_sums_as_scipy(dtypes):
    rng = np.random.default_rng(11)
    dim = 40
    (a, a_ref), (b, b_ref) = (_pair(rng, dim, 300, t) for t in dtypes)
    _assert_same_bits(a + b, a_ref + b_ref)
    # cancelling entries and signed zeros: a + (-a) is empty, and the fold's
    # start (the empty matrix) drops -0.0 entries of a term
    neg = csr.CSR(-a.data, a.indices, a.indptr, a.shape)
    _assert_same_bits(a + neg, a_ref + (-a_ref))
    signed = np.array([-0.0, 0.0, -0.0, 2.0])
    rows = np.array([0, 1, 2, 2], dtype=np.int32)
    term = csr.CSR.from_triplets(signed, rows, rows, (3, 3))
    _assert_same_bits(csr.CSR.zeros((3, 3)) + term,
                      sp.csr_matrix((3, 3))
                      + sp.csr_matrix((signed, (rows, rows)), shape=(3, 3)))


@pytest.mark.parametrize("dtype", [float, complex])
def test_adjoint_is_scipy_conjugate_transpose(dtype):
    rng = np.random.default_rng(5)
    a, a_ref = _pair(rng, 60, 500, dtype)
    _assert_same_bits(a.adjoint(), sp.csr_matrix(a_ref.conj().T))
    # the fold adds the adjoint to a part, where scipy converts a CSC
    # transpose to CSR
    h, h_ref = _pair(rng, 60, 400, dtype)
    _assert_same_bits(h + a.adjoint(), h_ref + a_ref.conj().T)
    wide = csr.CSR.from_triplets(np.arange(1.0, 4.0), np.array([0, 1, 1]),
                                 np.array([4, 0, 2]), (2, 5))
    assert wide.adjoint().shape == (5, 2)
    _assert_same_bits(wide.adjoint(), sp.csr_matrix(
        (np.arange(1.0, 4.0), ([0, 1, 1], [4, 0, 2])), shape=(2, 5)).T)


@pytest.mark.parametrize("dtype", [float, complex])
def test_vstack_as_scipy(dtype):
    rng = np.random.default_rng(8)
    pairs = [_pair(rng, 30, count, dtype) for count in (120, 0, 45)]
    _assert_same_bits(csr.vstack([p for p, _ in pairs]),
                      sp.vstack([r for _, r in pairs], format="csr"))
    # scipy parts are stacked too
    _assert_same_bits(csr.vstack([r for _, r in pairs]),
                      sp.vstack([r for _, r in pairs], format="csr"))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("dim", [30, 1026])
def test_matvec_and_matvecs_as_scipy(dtype, dim):
    rng = np.random.default_rng(dim)
    a, a_ref = _pair(rng, dim, 8 * dim, dtype)
    for x in (rng.normal(size=dim),
              rng.normal(size=dim) + 1j * rng.normal(size=dim)):
        want = a_ref @ x
        got = csr.matvec(a, x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        block = np.stack([x, 2.0 * x, -x], axis=1)
        want = a_ref @ block
        got = csr.matvecs(a, block)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_complex_vector_on_real_matrix_as_two_real_products():
    # the (dim, 2) float view of a complex vector: one product with two
    # columns gives the bits of one product on each part
    rng = np.random.default_rng(90)
    for dim in (90, 2000):
        a, a_ref = _pair(rng, dim, 6 * dim, float)
        phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        got = csr.matvecs(a, phi.view(float).reshape(-1, 2))
        assert got.view(complex).ravel().real.tobytes() == (
            a_ref @ phi.real).tobytes()
        assert got.view(complex).ravel().imag.tobytes() == (
            a_ref @ phi.imag).tobytes()


def test_sizes_are_checked_before_any_kernel_runs():
    # the kernels index their arrays unchecked: a wrong size is refused first
    a = csr.CSR.from_triplets(np.ones(2), np.array([0, 1]), np.array([1, 0]),
                              (2, 2))
    bad = [lambda: csr.CSR.from_triplets(np.ones(2), np.array([0, 2]),
                                         np.array([1, 0]), (2, 2)),
           lambda: csr.CSR.from_triplets(np.ones(2), np.array([0, 1]),
                                         np.array([-1, 0]), (2, 2)),
           lambda: csr.CSR.from_triplets(np.ones(2), np.array([0]),
                                         np.array([1, 0]), (2, 2)),
           lambda: a + csr.CSR.zeros((3, 3)),
           lambda: csr.matvec(a, np.ones(3)),
           lambda: csr.matvecs(a, np.ones((3, 2))),
           lambda: csr.vstack([a, csr.CSR.zeros((2, 3))])]
    for call in bad:
        with pytest.raises(ValueError):
            call()


# -- the Hamiltonian builder against a scipy build -------------------------------

class _ScipyCSR(sp.csr_matrix):
    """scipy's CSR matrix with the constructors and the adjoint that the
    builder calls, as the builder called scipy: `A.conj().T` for the
    adjoint, scipy's `+` for the fold."""

    @classmethod
    def from_triplets(cls, data, rows, cols, shape):
        return cls((data, (rows, cols)), shape=shape)

    @classmethod
    def zeros(cls, shape, dtype=float):
        return cls(shape, dtype=dtype)

    def adjoint(self):
        return self.conj().T


def _assert_builds_as_scipy(monkeypatch, model, baths, space):
    h, profiled = fock.build_hamiltonian_parts(model, baths, space)
    with monkeypatch.context() as patch:
        patch.setattr(fock, "CSR", _ScipyCSR)
        h_ref, profiled_ref = fock.build_hamiltonian_parts(model, baths, space)
    assert [p for _, p in profiled] == [p for _, p in profiled_ref]
    for got, want in zip([h] + [t for t, _ in profiled],
                         [h_ref] + [t for t, _ in profiled_ref]):
        assert isinstance(got, csr.CSR)
        _assert_same_bits(got, want)


# (cap, baths, modes): the builder cases of test_fock
_BUILDER_CASES = ([(cap, baths, 3) for cap in (0, 1, 2, 3)
                   for baths in (1, 2, 3)]
                  + [(cap, baths, 1) for cap in (1, 3) for baths in (1, 2)])


@pytest.mark.parametrize("geometry", ["chain", "star"])
@pytest.mark.parametrize("cap, baths, modes", _BUILDER_CASES)
def test_builder_cases_build_as_scipy(monkeypatch, geometry, cap, baths,
                                      modes):
    rng = np.random.default_rng(100 * baths + cap)
    model = SystemModel(1, 2, (((0,), 0.5 * SIGMA_Z, TimeProfile()),
                               ((0,), 0.3 * SIGMA_X, TimeProfile("cos", 2.0))),
                        tuple(((0,), SIGMA_MINUS if b % 2 else SIGMA_X, b)
                              for b in range(baths)))
    if geometry == "chain":
        bath_list = [ChainCoefficients(rng.uniform(-1.0, 1.0, modes),
                                       rng.uniform(0.0, 1.0, modes - 1),
                                       rng.uniform(0.2, 1.5), 1.0, modes)
                     for _ in range(baths)]
    else:
        bath_list = [StarDiscretization(
            np.sort(rng.uniform(-2.0, 2.0, modes)),
            rng.normal(size=modes) + 1j * rng.normal(size=modes), modes, 0.0)
            for _ in range(baths)]
    space = fock.enumerate_basis(1, 2, baths, modes, cap)
    _assert_builds_as_scipy(monkeypatch, model, bath_list, space)


@pytest.mark.parametrize("seed", range(12))
def test_random_models_build_as_scipy(monkeypatch, seed):
    # one to three baths of chains, real stars and phased stars, with
    # integer onsite energies (so that diagonal sums cancel to zero), real
    # and complex system terms, constant and profiled
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    count = int(rng.integers(1, 4))
    modes = int(rng.integers(1, 4))
    cap = int(rng.integers(0, 3))
    ops = [SIGMA_X, SIGMA_Z, SIGMA_MINUS, fock.SIGMA_Y,
           (0.3 + 0.7j) * SIGMA_MINUS + 0.45 * SIGMA_Z]
    hs = [((int(rng.integers(0, n)),), rng.uniform(-1.0, 1.0) * ops[int(k)],
           TimeProfile("sin", 1.1) if rng.random() < 0.4 else TimeProfile())
          for k in rng.choice([0, 1, 3], int(rng.integers(0, 3)))]
    jumps = [((int(rng.integers(0, n)),), ops[int(rng.integers(0, 5))], b)
             for b in range(count)]
    baths = []
    for _ in range(count):
        kind = rng.integers(0, 3)
        if kind == 0:
            baths.append(ChainCoefficients(
                rng.uniform(-1.0, 1.0, modes), rng.uniform(0.0, 1.0, modes - 1),
                rng.uniform(0.2, 1.5), 1.0, modes))
        else:
            couplings = rng.normal(size=modes) + (
                1j * rng.normal(size=modes) if kind == 2 else 0j)
            baths.append(StarDiscretization(
                np.round(rng.uniform(-2.0, 2.0, modes)), couplings, modes, 0.0))
    space = fock.enumerate_basis(n, 2, count, modes, cap)
    _assert_builds_as_scipy(monkeypatch, SystemModel(n, 2, hs, jumps), baths,
                            space)


# -- loading the kernels -----------------------------------------------------------

def test_fallback_import_gives_the_same_kernels_and_bits(monkeypatch):
    # without the extension file the kernels come from `scipy.sparse`
    rng = np.random.default_rng(2)
    vals, rows, cols = _triplets(rng, 50, 400, complex)
    x = rng.normal(size=50) + 1j * rng.normal(size=50)

    def run():
        a = csr.CSR.from_triplets(vals, rows, cols, (50, 50))
        b = a + a.adjoint()
        return [b.indptr, b.indices, b.data, csr.matvec(b, x),
                csr.vstack([a, b]).data]

    want = run()
    monkeypatch.setattr(csr, "_extension_path", lambda: None)
    monkeypatch.delitem(sys.modules, csr._NAME)
    fallback = csr._load_kernels()
    from scipy.sparse import _sparsetools
    assert fallback is _sparsetools
    assert fallback.__name__ == csr._NAME
    monkeypatch.setattr(csr, "_kernels", fallback)
    for got, ref in zip(run(), want):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_failed_load_by_path_takes_the_fallback(monkeypatch, tmp_path):
    # a file that does not load as an extension raises ImportError, and the
    # kernels come from `scipy.sparse` as without the file
    broken = tmp_path / "_sparsetools.so"
    broken.write_bytes(b"not a shared object")
    monkeypatch.setattr(csr, "_extension_path", lambda: str(broken))
    monkeypatch.delitem(sys.modules, csr._NAME)
    fallback = csr._load_kernels()
    from scipy.sparse import _sparsetools
    assert fallback is _sparsetools
    assert fallback.__name__ == csr._NAME
    assert fallback.__file__ != str(broken)


def test_kernels_load_by_path_and_scipy_reuses_them():
    # in a fresh interpreter: `nmk_sim.csr` loads the extension file without
    # running scipy's package `__init__` or importing `scipy.sparse`, and a
    # later `import scipy.sparse` takes the same module
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    probe = (
        "import json, sys\n"
        "from nmk_sim import csr\n"
        "loaded = [m in sys.modules for m in ('scipy', 'scipy.sparse')]\n"
        "by_path = csr._kernels.__file__ == csr._extension_path()\n"
        "import scipy.sparse._compressed as c\n"
        "same = c._sparsetools is csr._kernels\n"
        "print(json.dumps([loaded, by_path, same]))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, check=True)
    assert json.loads(proc.stdout) == [[False, False], True, True]
