"""Compressed sparse row (CSR) matrices on scipy's compiled kernels, without
importing `scipy.sparse`, or even running scipy's package `__init__`.

`import scipy.sparse` costs about 0.13 s of a CLI process's start-up, most of
it in `scipy._lib.array_api_compat`, which loads `numpy.f2py`,
`numpy.testing` and `unittest`; `import scipy` alone runs a package
`__init__` of about 20 modules, `subprocess` among them.
The arithmetic itself lives in the compiled extension
`scipy.sparse._sparsetools`, which needs only numpy.  This module finds the
scipy folder with `importlib.util.find_spec`, which runs no package code,
loads `scipy/sparse/_sparsetools*.so` by file path under its own name and
registers it in `sys.modules`, so a later `import scipy.sparse` reuses the
same module object.  When the file is not found, or loading it raises
`ImportError`, it imports the extension from `scipy.sparse` instead: the
same kernels, so there is only one arithmetic path.  `_sparsetools` is
private to scipy; its kernels and their order here were checked against
scipy 1.17.1 (the package allows scipy >= 1.11).

`CSR` holds (data, indices, indptr, shape) and covers what a run needs:
construction from triplets with duplicates summed (`from_triplets`), the sum
of two matrices (`+`), the conjugate transpose (`adjoint`), `vstack` and the
products with a vector (`matvec`) and with a block of columns (`matvecs`).
Each calls the kernels that `scipy.sparse` calls for the same operation, in
the same order and under the same checks, so every matrix keeps scipy's
bits: its index dtype, `indptr`, `indices` and `data`.  The module functions
read only those four attributes, so they take scipy CSR matrices too.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

_NAME = "scipy.sparse._sparsetools"


def _extension_path():
    """Path of the compiled `_sparsetools` extension, or None."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_kernels():
    """The `scipy.sparse._sparsetools` module: the one already imported, or
    the extension loaded by path and registered under its own name, or,
    without the file or when it fails to load, the one `scipy.sparse`
    imports."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    path = _extension_path()
    if path is not None:
        spec = importlib.util.spec_from_file_location(_NAME, path)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            pass
        else:
            sys.modules[_NAME] = module
            return module
    from scipy.sparse import _sparsetools
    return _sparsetools


_kernels = _load_kernels()


def _index_dtype(maxval):
    """int32 indices, as scipy takes them, unless `maxval` (a dimension or
    a count of entries) needs int64."""
    return np.int32 if maxval <= np.iinfo(np.int32).max else np.int64


def _prune(array):
    """`array` itself, or a copy when it is a view of under half its base
    (scipy's `_prune_array`, so that trimmed buffers are freed)."""
    if array.base is not None and array.size < array.base.size // 2:
        return array.copy()
    return array


class CSR:
    """A CSR matrix: row k holds data[indptr[k]:indptr[k + 1]] at the columns
    indices[indptr[k]:indptr[k + 1]]."""

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = tuple(shape)

    @classmethod
    def zeros(cls, shape, dtype=float):
        """The empty matrix of `shape`, as `scipy.sparse.csr_matrix(shape)`."""
        idx = _index_dtype(max(shape))
        return cls(np.zeros(0, dtype), np.zeros(0, idx),
                   np.zeros(shape[0] + 1, idx), shape)

    @classmethod
    def from_triplets(cls, data, rows, cols, shape):
        """Entries data[i] at (rows[i], cols[i]), duplicates summed, as
        `scipy.sparse.csr_matrix((data, (rows, cols)), shape)`: `coo_tocsr`,
        then, unless its rows are already sorted and free of duplicates,
        `csr_sort_indices` (only when unsorted) and `csr_sum_duplicates`."""
        m, n = shape
        data = np.asarray(data)
        if not len(rows) == len(cols) == len(data):
            raise ValueError("need one row and one column per value")
        if len(data) and not (0 <= rows.min() and rows.max() < m
                              and 0 <= cols.min() and cols.max() < n):
            raise ValueError(f"triplet indices outside the shape {shape}")
        idx = _index_dtype(max(m, n, len(data)))
        indptr = np.empty(m + 1, dtype=idx)
        indices = np.empty(len(data), dtype=idx)
        values = np.empty(len(data), dtype=data.dtype)
        _kernels.coo_tocsr(m, n, len(data), rows.astype(idx, copy=False),
                           cols.astype(idx, copy=False), data, indptr,
                           indices, values)
        if not _kernels.csr_has_canonical_format(m, indptr, indices):
            if not _kernels.csr_has_sorted_indices(m, indptr, indices):
                _kernels.csr_sort_indices(m, indptr, indices, values)
            _kernels.csr_sum_duplicates(m, n, indptr, indices, values)
        nnz = indptr[-1]
        return cls(_prune(values[:nnz]), _prune(indices[:nnz]), indptr, shape)

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def nnz(self):
        return int(self.indptr[-1])

    def tocsr(self):
        return self

    def __add__(self, other):
        """self + other by `csr_plus_csr`, which drops entries that sum to
        zero, trimmed as scipy trims it."""
        if self.shape != other.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} differ")
        m, n = self.shape
        size = self.nnz + other.nnz
        idx = _index_dtype(max(m, n, size))
        indptr = np.empty(m + 1, dtype=idx)
        indices = np.empty(size, dtype=idx)
        data = np.empty(size, dtype=np.result_type(self.data, other.data))
        _kernels.csr_plus_csr(
            m, n, self.indptr.astype(idx, copy=False),
            self.indices.astype(idx, copy=False), self.data,
            other.indptr.astype(idx, copy=False),
            other.indices.astype(idx, copy=False), other.data,
            indptr, indices, data)
        nnz = indptr[-1]
        return CSR(_prune(data[:nnz]), _prune(indices[:nnz]), indptr,
                   self.shape)

    def adjoint(self):
        """The conjugate transpose, as scipy converts `A.conj().T` to CSR:
        `csr_tocsc` on the conjugated data."""
        m, n = self.shape
        idx = _index_dtype(max(m, n, self.nnz))
        indptr = np.empty(n + 1, dtype=idx)
        indices = np.empty(self.nnz, dtype=idx)
        data = np.empty(self.nnz, dtype=self.dtype)
        _kernels.csr_tocsc(m, n, self.indptr.astype(idx, copy=False),
                           self.indices.astype(idx, copy=False),
                           np.conj(self.data), indptr, indices, data)
        return CSR(data, indices, indptr, (n, m))


def vstack(parts):
    """The parts stacked row-wise, as `scipy.sparse.vstack(parts, "csr")`."""
    cols = parts[0].shape[1]
    if any(p.shape[1] != cols for p in parts):
        raise ValueError("parts must have the same number of columns")
    rows = sum(p.shape[0] for p in parts)
    data = np.concatenate([p.data for p in parts])
    idx = _index_dtype(max(rows, cols, data.size))
    indices = np.concatenate([p.indices for p in parts]).astype(idx,
                                                                copy=False)
    indptr = np.empty(rows + 1, dtype=idx)
    row = end = 0
    for p in parts:
        block = indptr[row:row + p.shape[0]]
        block[...] = p.indptr[:-1]
        block += end
        row, end = row + p.shape[0], end + int(p.indptr[-1])
    indptr[-1] = end
    return CSR(data, indices, indptr, (rows, cols))


def matvec(a, x):
    """a @ x for a vector x, by `csr_matvec` into zeros, in the common dtype
    of a and x."""
    if x.shape != (a.shape[1],):
        raise ValueError(f"vector of shape {x.shape} for a {a.shape} matrix")
    dtype = np.result_type(a.data, x)
    out = np.zeros(a.shape[0], dtype=dtype)
    _kernels.csr_matvec(a.shape[0], a.shape[1], a.indptr, a.indices,
                        a.data.astype(dtype, copy=False),
                        np.ascontiguousarray(x, dtype=dtype), out)
    return out


def matvecs(a, x):
    """a @ x for a block x of columns, shape (a.shape[1], k), by
    `csr_matvecs` into zeros, in the common dtype of a and x."""
    if x.ndim != 2 or x.shape[0] != a.shape[1]:
        raise ValueError(f"block of shape {x.shape} for a {a.shape} matrix")
    dtype = np.result_type(a.data, x)
    out = np.zeros((a.shape[0], x.shape[1]), dtype=dtype)
    _kernels.csr_matvecs(a.shape[0], a.shape[1], x.shape[1], a.indptr,
                         a.indices, a.data.astype(dtype, copy=False),
                         np.ascontiguousarray(x, dtype=dtype).ravel(),
                         out.ravel())
    return out
