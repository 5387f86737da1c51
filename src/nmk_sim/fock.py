"""Truncated system (x) chain Fock space and sparse Hamiltonian construction.

Basis ordering: a state index decomposes as mixed radix
``(system digits, bath_1 occupation, ..., bath_M occupation)`` with the
system index most significant.  Each bath contributes one block index into
the lexicographically ordered list of occupation vectors (n_1 ... n_{N_m})
with n_1 + ... + n_{N_m} <= p.

The Hamiltonian builder takes each bath as one-body energies ``onsite`` w,
nearest-neighbour ``hopping`` t and a system coupling vector ``couplings`` g:
sum_j w_j n_j + t_j (a_j^dag a_{j+1} + h.c.) + (L (x) sum_j g_j a_j^dag + h.c.)
with L the bath's jump operator.  A chain (`ChainCoefficients`) is
``(onsite, hopping, ||v|| e_1)``, a star (`oracle.StarDiscretization`)
``(omegas, 0, couplings)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import DimensionOverflow, ShapeMismatch

STATE_CAP = 2**24
# Largest assembled Hamiltonian, in estimated CSR bytes, that a run may build
# (`hamiltonian_bytes`).  Assembly peaks at about 3x the finished matrix: a
# 350 MB one at dim 1.4M peaked at 1.0 GB RSS.  The largest benchmark
# Hamiltonian (dim 21,252) takes 3.3 MB.
HAMILTONIAN_BYTES_CAP = 2**28

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Basis index 0 is the excited state: sigma_minus maps |e> -> |g>.
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T

NAMED_MATRICES = {
    "sigma_x": SIGMA_X,
    "sigma_y": SIGMA_Y,
    "sigma_z": SIGMA_Z,
    "sigma_minus": SIGMA_MINUS,
    "sigma_plus": SIGMA_PLUS,
    "identity": np.eye(2, dtype=complex),
}

HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class TimeProfile:
    """Scalar time profile multiplying a constant Hamiltonian term."""

    kind: str = "const"          # const | cos | sin
    frequency: float = 0.0

    def __call__(self, t: float) -> float:
        if self.kind == "const":
            return 1.0
        if self.kind == "cos":
            return math.cos(self.frequency * t)
        if self.kind == "sin":
            return math.sin(self.frequency * t)
        raise ValueError(f"unknown profile kind {self.kind!r}")

    @property
    def is_constant(self):
        return self.kind == "const"


@dataclass(frozen=True)
class SystemModel:
    """Qudit register, k-local Hamiltonian terms, and jump operators."""

    n: int
    d: int
    hs_terms: tuple = ()     # (support tuple, matrix, TimeProfile)
    jumps: tuple = ()        # (support tuple, matrix, bath index)

    def __post_init__(self):
        terms = []
        for support, mat, profile in self.hs_terms:
            mat = np.asarray(mat, dtype=complex)
            self._check_local(support, mat)
            if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL:
                raise ValueError("system Hamiltonian terms must be Hermitian")
            if not isinstance(profile, TimeProfile):
                profile = TimeProfile(*profile) if profile else TimeProfile()
            terms.append((tuple(support), mat, profile))
        object.__setattr__(self, "hs_terms", tuple(terms))
        jumps = []
        for support, mat, bath in self.jumps:
            mat = np.asarray(mat, dtype=complex)
            self._check_local(support, mat)
            jumps.append((tuple(support), mat, int(bath)))
        object.__setattr__(self, "jumps", tuple(jumps))

    def _check_local(self, support, mat):
        if any(q < 0 or q >= self.n for q in support):
            raise ValueError("support references qudits outside the register")
        dim = self.d ** len(support)
        if mat.shape != (dim, dim):
            raise ShapeMismatch(
                f"operator on {len(support)} qudits must be {dim}x{dim}"
            )

    @property
    def sys_dim(self):
        return self.d**self.n

    def jump_matrix(self, bath: int):
        """Full-register jump operator of the given bath (dense)."""
        out = np.zeros((self.sys_dim, self.sys_dim), dtype=complex)
        for support, mat, b in self.jumps:
            if b == bath:
                out += embed_system_operator(self.n, self.d, support, mat)
        return out

    def jump_norm(self, bath: int) -> float:
        return float(np.linalg.norm(self.jump_matrix(bath), 2))

    def hs_matrix(self, t: float = 0.0):
        """Dense H_S(t) on the full register."""
        out = np.zeros((self.sys_dim, self.sys_dim), dtype=complex)
        for support, mat, profile in self.hs_terms:
            out += profile(t) * embed_system_operator(self.n, self.d, support, mat)
        return out

    @property
    def time_dependent(self):
        return any(not p.is_constant for _, _, p in self.hs_terms)


def embed_system_operator(n: int, d: int, support, mat):
    """Embed an operator on `support` into the full d**n register (dense)."""
    support = tuple(support)
    if len(set(support)) != len(support):
        raise ValueError("support qudits must be distinct")
    mat = np.asarray(mat, dtype=complex)
    k = len(support)
    rest = [q for q in range(n) if q not in support]
    # tensordot axes: (support rows, support cols, rest rows, rest cols)
    eye = np.eye(d ** len(rest), dtype=complex).reshape((d,) * (2 * len(rest)))
    full = np.tensordot(mat.reshape((d,) * (2 * k)), eye, axes=0)
    # reorder to (rows in support+rest order, cols likewise) ...
    axes = (list(range(k)) + list(range(2 * k, 2 * k + len(rest)))
            + list(range(k, 2 * k)) + list(range(2 * k + len(rest), 2 * n)))
    full = full.transpose(axes)
    # ... then to natural qudit order on both row and column groups
    row_order = list(support) + rest
    perm = [row_order.index(q) for q in range(n)]
    full = full.transpose(perm + [n + p for p in perm])
    return full.reshape(d**n, d**n)


@lru_cache(maxsize=64)
def _completions(modes: int, cap: int):
    """counts[j, s] = C(j + s, s): occupation vectors of j modes with sum <= s."""
    return np.array([[math.comb(j + s, s) for s in range(cap + 1)]
                     for j in range(modes + 1)], dtype=np.int64)


def _rank(occ, cap: int):
    """Lexicographic index of each occupation row (last axis: modes).

    Combinatorial number system (Streltsov, Alon & Cederbaum, PRA 81,
    022124 (2010)): with k_i modes from mode i on and r_i quanta left for
    them, the rows that share the prefix n_1 .. n_{i-1} and hold fewer than
    n_i quanta in mode i number
    C(k_i + r_i, r_i) - C(k_i + r_i - n_i, r_i - n_i).
    """
    occ = np.asarray(occ, dtype=np.int64)
    modes = occ.shape[-1]
    counts = _completions(modes, cap)
    left = cap - np.cumsum(occ, axis=-1) + occ
    rest = np.arange(modes, 0, -1)
    return (counts[rest, left] - counts[rest, left - occ]).sum(axis=-1)


def _occupation_table(modes: int, cap: int):
    """All occupation vectors with sum <= cap, lexicographically ordered:
    the ranks 0, 1, ... unranked mode by mode (the inverse of `_rank`)."""
    counts = _completions(modes, cap)
    rest = np.arange(counts[modes, cap])
    left = np.full(rest.size, cap)
    columns = []
    for i in range(modes):
        tail = counts[modes - 1 - i]
        occ = np.zeros(rest.size, dtype=np.int64)
        for _ in range(cap):
            # rows ranked past all completions of the current occupation
            size = tail[left - occ]
            step = (occ < left) & (rest >= size)
            rest -= np.where(step, size, 0)
            occ += step
        left -= occ
        columns.append(occ)
    table = np.stack(columns, axis=1)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class TruncatedSpace:
    """Indexed basis of (system) x (M baths x N_m modes, <= p quanta each)."""

    n: int
    d: int
    baths: int
    modes: int
    cap: int
    table: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.dimension > STATE_CAP:
            raise DimensionOverflow(
                f"dimension {self.dimension} exceeds cap {STATE_CAP}"
            )
        object.__setattr__(self, "table",
                           _occupation_table(self.modes, self.cap))

    @property
    def block_size(self):
        return math.comb(self.modes + self.cap, self.cap)

    @property
    def sys_dim(self):
        return self.d**self.n

    @property
    def env_dim(self):
        return self.block_size**self.baths

    @property
    def dimension(self):
        return self.sys_dim * self.env_dim

    @property
    def _radix(self):
        """Mixed radix of a basis index: system digits, then bath blocks."""
        return (self.d,) * self.n + (self.block_size,) * self.baths

    def index_to_labels(self, index: int):
        """(system digits, per-bath occupation tuples) for a basis index."""
        parts = [int(p) for p in np.unravel_index(index, self._radix)]
        return tuple(parts[:self.n]), tuple(
            tuple(int(v) for v in self.table[b]) for b in parts[self.n:])

    def labels_to_index(self, digits, blocks) -> int:
        occ = np.asarray(blocks, dtype=np.int64)
        if occ.shape != (self.baths, self.modes) or not (
                np.all(occ >= 0) and np.all(occ.sum(axis=1) <= self.cap)):
            raise ValueError("occupations outside the truncated space")
        parts = tuple(digits) + tuple(_rank(occ, self.cap))
        return int(np.ravel_multi_index(parts, self._radix))

    def vacuum_index(self, digits) -> int:
        return self.labels_to_index(digits, [(0,) * self.modes] * self.baths)


def enumerate_basis(n: int, d: int, baths: int, modes: int, cap: int) -> TruncatedSpace:
    """Build the truncated space; dimension d^n * C(modes+cap, cap)^baths."""
    if min(n, d, baths, modes) < 1 or cap < 0:
        raise ValueError("counts must be >= 1 (cap >= 0)")
    return TruncatedSpace(n, d, baths, modes, cap)


def _lift(space: TruncatedSpace, bath: int, block, system) -> sp.csr_matrix:
    """`system` (x) `block` on one bath, the identity on the other baths."""
    def eye(size):
        return sp.identity(size, format="csr", dtype=complex)
    out = sp.kron(eye(space.block_size**bath), block, format="csr")
    out = sp.kron(out, eye(space.block_size ** (space.baths - 1 - bath)),
                  format="csr")
    return sp.kron(sp.csr_matrix(system), out, format="csr")


def _block(space: TruncatedSpace, rows, cols, vals) -> sp.csr_matrix:
    """Block-size matrix from (row, col, value) arrays, zero values dropped."""
    keep = vals != 0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(space.block_size,) * 2, dtype=complex)


def _moves(space: TruncatedSpace, to_next: bool = False):
    """(row, mode j, target row) of every quantum leaving an occupied mode j:
    n -> n - e_j, or n -> n - e_j + e_{j+1} with `to_next`."""
    row, mode = np.nonzero(space.table[:, :space.modes - to_next])
    occ = space.table[row]
    occ[np.arange(row.size), mode] -= 1
    if to_next:
        occ[np.arange(row.size), mode + 1] += 1
    return row, mode, _rank(occ, space.cap)


def _system_on_space(space: TruncatedSpace, mat) -> sp.csr_matrix:
    return sp.kron(sp.csr_matrix(mat),
                   sp.identity(space.env_dim, format="csr", dtype=complex),
                   format="csr")


def build_hamiltonian_parts(model: SystemModel, baths, space: TruncatedSpace):
    """(constant part, [(term, profile), ...]) of the dilated Hamiltonian.

    Constant part: every bath's quadratic form and its coupling
    L_alpha a^dag(g_alpha) + h.c. (module docstring), plus the
    constant-profile system terms.  Non-constant system terms are returned
    separately so repeated builds only rescale cached matrices.
    """
    if len(baths) != space.baths or any(
            np.shape(b.onsite) != (space.modes,) for b in baths):
        raise ShapeMismatch("need one bath of `modes` modes per space bath")

    table = space.table
    row, mode, lower = _moves(space)
    raise_amp = np.sqrt(table[row, mode])
    hop_from, hop_mode, hop_to = _moves(space, to_next=True)
    hop_amp = np.sqrt(table[hop_from, hop_mode]
                      * (table[hop_from, hop_mode + 1] + 1))
    diag = np.arange(space.block_size)

    dim = space.dimension
    h_const = sp.csr_matrix((dim, dim), dtype=complex)
    for alpha, bath in enumerate(baths):
        hop = np.asarray(bath.hopping)[hop_mode] * hop_amp
        quadratic = _block(space, np.concatenate([diag, hop_to, hop_from]),
                           np.concatenate([diag, hop_from, hop_to]),
                           np.concatenate([table @ np.asarray(bath.onsite),
                                           hop, np.conj(hop)]))
        h_const = h_const + _lift(space, alpha, quadratic,
                                  np.eye(space.sys_dim))
        raise_g = _block(space, row, lower,
                         np.asarray(bath.couplings)[mode] * raise_amp)
        coupling = _lift(space, alpha, raise_g, model.jump_matrix(alpha))
        h_const = h_const + coupling + coupling.conj().T

    profiled = []
    for support, mat, profile in model.hs_terms:
        term = _system_on_space(
            space, embed_system_operator(model.n, model.d, support, mat))
        if profile.is_constant:
            h_const = h_const + term
        else:
            profiled.append((term, profile))
    return h_const, profiled


def hamiltonian_bytes(model: SystemModel, space: TruncatedSpace) -> int:
    """Upper estimate of the CSR bytes of `build_hamiltonian_parts`' output.

    Sums the nonzeros of every lifted block, known from the occupation table
    before anything is assembled: each bath's quadratic form (diagonal and
    hops) on every system state, each jump term and its adjoint against the
    raising block, and each system term on every environment state.  A
    nonzero takes 16 bytes of complex value and 4 of column index.
    """
    occupied = int(np.count_nonzero(space.table))
    hops = int(np.count_nonzero(space.table[:, :-1]))
    other_baths = space.block_size ** (space.baths - 1)

    def system_nnz(terms):
        return sum(int(np.count_nonzero(mat))
                   * model.d ** (model.n - len(support))
                   for support, mat, _ in terms)

    bath_terms = (space.baths * space.sys_dim * (space.block_size + 2 * hops)
                  + 2 * occupied * system_nnz(model.jumps))
    nnz = other_baths * bath_terms + space.env_dim * system_nnz(model.hs_terms)
    return 20 * nnz + 4 * (space.dimension + 1)


# -- initial environment states ----------------------------------------------

@dataclass(frozen=True)
class InitialEnvState:
    """Per-bath initial state: vacuum, single photon, or coherent.

    ``amplitudes`` are chain-mode coefficients (single photon: projection of
    a frequency-domain wavepacket onto the mode functions; coherent:
    displacements).  ``residual`` is the squared weight of the wavepacket
    outside the chain span, reported into the initialization error budget.
    """

    kind: str = "vacuum"              # vacuum | single_photon | coherent
    amplitudes: np.ndarray | None = None
    residual: float = 0.0

    def moments(self):
        """(mu1, mu2) of the bath occupation for the prepared state."""
        if self.kind == "vacuum":
            return 0.0, 0.0
        if self.kind == "single_photon":
            return 1.0, 1.0
        nbar = float(np.sum(np.abs(self.amplitudes) ** 2))
        return nbar, nbar * (nbar + 1.0)


def project_wavepacket(coeffs, coupling, samples_omega, samples_values):
    """Project a frequency-domain wavepacket onto the chain mode functions.

    Returns (amplitudes, residual_sq).  The wavepacket need not be
    normalized; amplitudes are c_j = <phi_j, xi> with phihat_j = q_j vhat.
    """
    from .chain import orthonormal_polynomials

    w = np.asarray(samples_omega, dtype=float)
    xi = np.asarray(samples_values, dtype=complex)
    sel = np.abs(w) <= coeffs.omega_c
    q = orthonormal_polynomials(coeffs, coeffs.v_norm**2, w[sel])
    vhat = np.asarray(coupling.vhat(w[sel]))
    amps = np.trapezoid(q * (np.conj(vhat) * xi[sel])[None, :], w[sel], axis=1)
    norm_sq = float(np.trapezoid(np.abs(xi) ** 2, w))
    residual = max(norm_sq - float(np.sum(np.abs(amps) ** 2)), 0.0)
    return amps, residual


def assemble_initial_state(space: TruncatedSpace, sys_state,
                           env_states) -> tuple[np.ndarray, float]:
    """Full normalized state vector and the total initialization weight lost.

    ``sys_state`` is a dense system vector; ``env_states`` holds one
    InitialEnvState per bath.
    """
    if len(env_states) != space.baths:
        raise ShapeMismatch("need one environment state per bath")
    sys_state = np.asarray(sys_state, dtype=complex)
    if sys_state.shape != (space.sys_dim,):
        raise ShapeMismatch("system state has wrong dimension")

    blocks = []
    lost = 0.0
    for st in env_states:
        vec = np.zeros(space.block_size, dtype=complex)
        if st.kind == "vacuum":
            vec[0] = 1.0
        elif st.kind == "single_photon":
            amps = np.asarray(st.amplitudes, dtype=complex)
            if amps.shape != (space.modes,):
                raise ShapeMismatch("single-photon amplitudes need length modes")
            if space.cap > 0:
                vec[_rank(np.eye(space.modes), space.cap)] = amps
            lost += st.residual
        elif st.kind == "coherent":
            disp = np.asarray(st.amplitudes, dtype=complex)
            if disp.shape != (space.modes,):
                raise ShapeMismatch("displacements need length modes")
            root_fact = np.sqrt([float(math.factorial(k))
                                 for k in range(space.cap + 1)])
            vec = np.full(space.block_size,
                          np.exp(-0.5 * float(np.sum(np.abs(disp) ** 2))))
            for j, occ in enumerate(space.table.T):
                vec = vec * disp[j] ** occ / root_fact[occ]
            lost += 1.0 - float(np.sum(np.abs(vec) ** 2))
        else:
            raise ValueError(f"unknown environment state kind {st.kind!r}")
        nrm = float(np.linalg.norm(vec))
        if nrm == 0.0:
            raise ValueError("environment state has zero weight in the space")
        blocks.append(vec / nrm)

    env = blocks[0]
    for vec in blocks[1:]:
        env = np.kron(env, vec)
    full = np.kron(sys_state / np.linalg.norm(sys_state), env)
    return full, lost
