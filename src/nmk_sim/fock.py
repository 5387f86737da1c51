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
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp

from .errors import DimensionOverflow, ShapeMismatch

STATE_CAP = 2**24
# Largest assembled Hamiltonian, in estimated CSR bytes, that a run may build
# (`hamiltonian_bytes`).  Assembly peaks at about 2.75x the finished matrix:
# building a 75 MB one (3-qubit ring, dim 343,000, 3.87M nonzeros) raises
# peak RSS by 206 MB.  The largest benchmark Hamiltonian (dim 21,252) takes
# 3.3 MB.
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

    def __post_init__(self):
        if self.kind not in ("const", "cos", "sin"):
            raise ValueError(f"unknown profile kind {self.kind!r}")

    def __call__(self, t: float) -> float:
        if self.kind == "const":
            return 1.0
        if self.kind == "cos":
            return math.cos(self.frequency * t)
        return math.sin(self.frequency * t)

    def taylor(self, t0: float, h: float, degree: int) -> np.ndarray:
        """Coefficients c_0 .. c_degree of f(t0 + s h) = sum_j c_j s^j:
        (1, 0, 0, ...) for const, (omega h)^j / j! cos(omega t0 + j pi / 2)
        for cos, and for sin the same with sin(x) = cos(x - pi / 2)."""
        j = np.arange(degree + 1)
        if self.is_constant:
            return (j == 0).astype(float)
        x = self.frequency * t0
        cycle = np.array([math.cos(x), -math.sin(x), -math.cos(x),
                          math.sin(x)])     # cos(x + j pi / 2), j = 0 .. 3
        scale = np.cumprod(np.append(1.0, self.frequency * h / j[1:]))
        return scale * cycle[(j - (self.kind == "sin")) % 4]

    @property
    def is_constant(self):
        return self.kind == "const"


@dataclass(frozen=True)
class SystemModel:
    """Qudit register, k-local Hamiltonian terms, and jump operators, each
    validated and embedded once (read-only `hs_operators`, `jump_operators`)."""

    n: int
    d: int
    hs_terms: tuple = ()     # (support tuple, matrix, TimeProfile)
    jumps: tuple = ()        # (support tuple, matrix, bath index)
    hs_operators: tuple = field(init=False, repr=False, compare=False)
    jump_operators: dict = field(init=False, repr=False, compare=False)
    _jump_norms: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        count = len(self.hs_terms) + len({b for _, _, b in self.jumps})
        if (size := 16 * count * self.sys_dim**2) > HAMILTONIAN_BYTES_CAP:
            raise DimensionOverflow(
                f"system register of {size / 2**20:.0f} MiB ({count} operators"
                f" at dimension {self.sys_dim}) exceeds cap "
                f"{HAMILTONIAN_BYTES_CAP / 2**20:.0f} MiB")
        embed = partial(embed_system_operator, self.n, self.d)
        terms, operators = [], []
        for support, mat, profile in self.hs_terms:
            mat = np.asarray(mat, dtype=complex)
            self._check_local(support, mat)
            if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL:
                raise ValueError("system Hamiltonian terms must be Hermitian")
            if not isinstance(profile, TimeProfile):
                profile = TimeProfile(*profile) if profile else TimeProfile()
            terms.append((tuple(support), mat, profile))
            operators.append((embed(support, mat), profile))
        jumps, summed = [], {}
        for support, mat, bath in self.jumps:
            mat = np.asarray(mat, dtype=complex)
            self._check_local(support, mat)
            jumps.append((tuple(support), mat, int(bath)))
            summed[int(bath)] = summed.get(int(bath), 0) + embed(support, mat)
        for op in [op for op, _ in operators] + list(summed.values()):
            op.flags.writeable = False
        object.__setattr__(self, "hs_terms", tuple(terms))
        object.__setattr__(self, "jumps", tuple(jumps))
        object.__setattr__(self, "hs_operators", tuple(operators))
        object.__setattr__(self, "jump_operators", summed)
        object.__setattr__(self, "_jump_norms", {})    # see `jump_norm`

    def _check_local(self, support, mat):
        if any(q < 0 or q >= self.n for q in support):
            raise ValueError("support references qudits outside the register")
        if len(set(support)) != len(support):
            raise ValueError("support qudits must be distinct")
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
        if bath in self.jump_operators:
            return self.jump_operators[bath]
        return np.zeros((self.sys_dim, self.sys_dim), dtype=complex)

    def jump_norm(self, bath: int) -> float:
        """Spectral norm of `jump_matrix(bath)`: one dense SVD per bath,
        taken at the first call and kept."""
        if bath not in self._jump_norms:
            self._jump_norms[bath] = float(
                np.linalg.norm(self.jump_matrix(bath), 2))
        return self._jump_norms[bath]

    def hs_matrix(self, t: float = 0.0):
        """Dense H_S(t) on the full register."""
        out = np.zeros((self.sys_dim, self.sys_dim), dtype=complex)
        for op, profile in self.hs_operators:
            out += profile(t) * op
        return out

    @property
    def time_dependent(self):
        return any(not p.is_constant for _, _, p in self.hs_terms)


def embed_system_operator(n: int, d: int, support, mat):
    """Embed an operator on distinct `support` qudits into the full d**n
    register (dense): mat (x) identity on the other qudits, its row and
    column axes permuted from (support, rest) to natural qudit order."""
    full = np.kron(np.asarray(mat, dtype=complex),
                   np.eye(d ** (n - len(support))))
    order = list(support) + [q for q in range(n) if q not in support]
    perm = [order.index(q) for q in range(n)]
    full = full.reshape((d,) * (2 * n)).transpose(perm + [n + p for p in perm])
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
        if (size := 8 * self.block_size * self.modes) > HAMILTONIAN_BYTES_CAP:
            raise DimensionOverflow(
                f"occupation table of {size / 2**20:.0f} MiB ({self.block_size}"
                f" rows of {self.modes} modes) exceeds cap "
                f"{HAMILTONIAN_BYTES_CAP / 2**20:.0f} MiB")
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


def _moves(space: TruncatedSpace, to_next: bool = False):
    """(row, mode j, target row) of every quantum leaving an occupied mode j:
    n -> n - e_j, or n -> n - e_j + e_{j+1} with `to_next`.  Both keep the
    table's order and are onto the rows below the cap, or with n_{j+1} >= 1."""
    table = space.table
    mode, row = np.nonzero(table[:, :space.modes - to_next].T)
    targets = table[:, 1:].T if to_next else np.broadcast_to(
        table.sum(axis=1) < space.cap, (space.modes, len(table)))
    return row, mode, np.nonzero(targets)[1]


def _lift(space: TruncatedSpace, bath: int, system, rows, cols, vals):
    """CSR `system` (x) (block (rows, cols, vals) on one bath, zeros dropped)
    (x) identity on the other baths: entries (s, s') and (b, b') give row
    (s, l, b, r), column (s', l, b', r) for each l (baths before) and r
    (after)."""
    keep = vals != 0
    s_row, s_col = np.nonzero(system)
    right = space.block_size ** (space.baths - 1 - bath)
    shift = np.arange(space.env_dim, dtype=np.int32).reshape(
        -1, space.block_size, right)[:, 0]          # indices (l, 0, r)

    def index(s, b):            # of every (system, block) pair, then l and r
        at = np.add.outer(s * space.env_dim, b[keep] * right)
        return np.add.outer(at.astype(np.int32), shift).ravel()

    vals = np.multiply.outer(system[s_row, s_col], vals[keep]).ravel()
    return sp.csr_matrix((np.repeat(vals, shift.size), (
        index(s_row, rows), index(s_col, cols))), shape=(space.dimension,) * 2)


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
    quad_rows = np.concatenate([diag, hop_to, hop_from])
    quad_cols = np.concatenate([diag, hop_from, hop_to])

    dim = space.dimension
    h_const = sp.csr_matrix((dim, dim), dtype=complex)
    for alpha, bath in enumerate(baths):
        hop = np.asarray(bath.hopping)[hop_mode] * hop_amp
        quadratic = np.concatenate([table @ np.asarray(bath.onsite), hop,
                                    np.conj(hop)])
        h_const = h_const + _lift(space, alpha, np.eye(space.sys_dim),
                                  quad_rows, quad_cols, quadratic)
        coupling = _lift(space, alpha, model.jump_matrix(alpha), row, lower,
                         np.asarray(bath.couplings)[mode] * raise_amp)
        h_const = h_const + coupling
        h_const = h_const + coupling.conj().T

    profiled = []
    for mat, profile in model.hs_operators:
        term = _lift(space, 0, mat, diag, diag, np.ones(space.block_size))
        if profile.is_constant:
            h_const = h_const + term
        else:
            profiled.append((term, profile))
    return h_const, profiled


def hamiltonian_bytes(model: SystemModel, space: TruncatedSpace) -> int:
    """Upper estimate of the CSR bytes of `build_hamiltonian_parts`' output.

    Counts the nonzeros of every lifted block, known from the occupation
    table and the register's operators before anything is assembled.  Every
    bath's onsite energies and each constant system term's diagonal share
    the constant part's diagonal, at most `dimension` entries, counted once.
    Off it: each bath's hops on every system state, each jump operator and
    its adjoint against the raising block, and each constant system term on
    every environment state.  Each profiled system term is a part of its
    own, counted whole.  A nonzero takes 16 bytes of complex value and 4 of
    column index, and each part 4 (dimension + 1) bytes of row pointers.
    """
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
    return 20 * nnz + 4 * (space.dimension + 1) * parts


# -- initial environment states ----------------------------------------------

@dataclass(frozen=True)
class InitialEnvState:
    """Per-bath initial state: vacuum, single photon, or coherent.

    ``amplitudes`` are chain-mode coefficients (single photon: projection of
    a frequency-domain wavepacket onto the mode functions; coherent:
    displacements).  ``residual`` is the norm of the wavepacket outside the
    chain span: the CLI stores the square root of `project_wavepacket`'s
    squared residual.  `assemble_initial_state` adds it to the weight lost
    for a single photon; for a coherent state it adds the squared tail
    weight 1 - ||vec||^2 instead (no budget reads that value: certify
    refuses coherent states).
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
