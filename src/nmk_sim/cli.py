"""Experiment driver: one JSON document in, CSV/JSON artifacts out.

Subcommands map onto the pipeline: ``chain-map`` stops after the
star-to-chain transformation, ``simulate`` propagates, ``certify`` adds the
assembled error budget plus measured refinement gaps, ``compare-oracle``
runs the star-geometry reference, and ``sweep`` runs a cartesian grid of
(epsilon, cutoff, modes, cap) points.  Outputs are deterministic: fixed
iteration orders, floats printed with 17 significant digits, no wall-clock.
"""

from __future__ import annotations

import argparse
import itertools
import json
# argparse's first translated message imports `locale` through `gettext` in
# every run; loaded here, with the rest of start-up, rather than inside `main`
import locale
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import chain as chain_mod
from . import dynamics as dyn
from . import fock
from . import kernels as ker
from . import oracle as orc
from . import validator
from .errors import (DimensionOverflow, NmkSimError, SchemaViolation,
                     ShapeMismatch, StepControlFailure, UnsupportedInitialState)

MODES = ("chain-map", "simulate", "certify", "compare-oracle", "sweep")
# The level names `logging` accepts for NMK_SIM_LOG (any case); at INFO and
# below `run` reports its progress on stderr in logging's format
LOG_LEVELS = {"CRITICAL": 50, "FATAL": 50, "ERROR": 40, "WARN": 30,
              "WARNING": 30, "INFO": 20, "DEBUG": 10, "NOTSET": 0}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _matrix_from_doc(doc, scale=1.0):
    # `SystemModel` refuses the non-finite entries an infinite scale makes
    with np.errstate(invalid="ignore", over="ignore"):
        if isinstance(doc, str):
            mat = fock.NAMED_MATRICES[doc]
        else:
            re = np.asarray(doc["re"], dtype=float)
            im = np.asarray(doc.get("im", np.zeros_like(re)), dtype=float)
            mat = re + 1j * im
            scale = scale * doc.get("scale", 1.0)
        return scale * mat


def _nan_path(doc):
    """Keys and indices down to the first NaN of a parsed JSON document (the
    parser accepts NaN, and NaN passes every schema bound), or None."""
    if isinstance(doc, float):
        return [] if math.isnan(doc) else None
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        if (path := _nan_path(child)) is not None:
            return [key, *path]
    return None


def _kernel_from_doc(doc) -> ker.MemoryKernel:
    kind = doc["kind"]
    phase = tuple(doc.get("phase_poly", ()))
    if kind == "lorentzian_sum":
        terms = [(t["alpha"], t["omega"], t["gamma"]) for t in doc.get("terms", [])]
        return ker.MemoryKernel.lorentzian_sum(terms, phase)
    if kind == "delta_train":
        atoms = [(a.get("weight_re", 1.0) + 1j * a.get("weight_im", 0.0),
                  a["location"]) for a in doc.get("atoms", [])]
        return ker.MemoryKernel.delta_train(atoms, phase)
    grid = doc["grid"]
    omegas = np.linspace(grid["start"], grid["stop"], len(grid["values"]))
    return ker.MemoryKernel.tabulated(omegas, grid["values"], phase)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment document bound to domain objects."""

    mode: str
    model: fock.SystemModel
    kernels: tuple
    env_docs: tuple
    mollifier: ker.Mollifier
    reg_grid: tuple | None
    cutoff_omega: float
    modes: int
    particle_cap: int
    t_final: float
    out_step: float
    star_modes: int
    sweep_axes: dict = field(default_factory=dict)
    sys_initial: np.ndarray | None = None

    @classmethod
    def from_document(cls, doc) -> "ExperimentConfig":
        if (err := validator.shipped().best_error(doc)) is not None:
            path, message = err
            raise SchemaViolation(
                f"at {'/'.join(map(str, path)) or '<root>'}: {message}")
        if (nan := _nan_path(doc)) is not None:
            raise SchemaViolation(
                f"at {'/'.join(map(str, nan))}: NaN is not a number")

        sysdoc = doc["system"]
        n, d = sysdoc["n"], sysdoc["d"]
        hs_terms = []
        for term in sysdoc.get("hamiltonian", []):
            prof_doc = term.get("profile", {"type": "const"})
            profile = fock.TimeProfile(prof_doc["type"],
                                       prof_doc.get("frequency", 0.0))
            hs_terms.append((tuple(term["support"]),
                             _matrix_from_doc(term["matrix"], term.get("scale", 1.0)),
                             profile))
        jumps = []
        for term in sysdoc.get("jumps", []):
            jumps.append((tuple(term["support"]),
                          _matrix_from_doc(term["matrix"], term.get("scale", 1.0)),
                          term["bath"]))
        try:
            model = fock.SystemModel(n, d, tuple(hs_terms), tuple(jumps))
        except (ValueError, ShapeMismatch) as exc:    # a size refusal exits 3
            raise SchemaViolation(f"at system: {exc}") from exc

        baths = doc["baths"]
        if any(b >= len(baths) for _, _, b in model.jumps):
            raise SchemaViolation("at system/jumps: bath index out of range")
        kernels = []
        for i, bath in enumerate(baths):
            try:
                kernels.append(_kernel_from_doc(bath["kernel"]))
            except (ValueError, NmkSimError) as exc:
                raise SchemaViolation(f"at baths/{i}/kernel: {exc}") from exc
        env_docs = tuple(b.get("initial", {"type": "vacuum"}) for b in baths)
        for i, env in enumerate(env_docs):
            disp = env.get("displacements", {"re": []})
            if len(disp.get("im", disp["re"])) != len(disp["re"]):
                raise SchemaViolation(
                    f"at baths/{i}/initial: displacements need as many im "
                    "as re entries")
            # the wavepacket divides by width**2, which must neither
            # overflow nor vanish
            width = env.get("wavepacket", {}).get("width", 1.0)
            if not 0.0 < width * width < math.inf:
                raise SchemaViolation(
                    f"at baths/{i}/initial/wavepacket/width: width**2 of "
                    f"{width:g} is not a positive finite float")

        mol_doc = doc["mollifier"]
        reg = doc.get("regularization")
        sweep = doc.get("sweep", {})
        # an infinite grid scale passes every schema bound, and no grid
        # resolves it
        scales = [("mollifier/epsilon", mol_doc["epsilon"]),
                  ("cutoff_omega", doc["cutoff_omega"])]
        if reg:
            scales.append(("regularization/omega_max", reg["omega_max"]))
        scales += [(f"sweep/{axis}/{j}", value)
                   for axis in ("epsilon", "cutoff_omega")
                   for j, value in enumerate(sweep.get(axis, []))]
        for path, value in scales:
            if not math.isfinite(value):
                raise SchemaViolation(f"at {path}: {value} is not finite")

        mollifier = ker.Mollifier(mol_doc["epsilon"],
                                  mol_doc.get("family", "standard_bump"))
        reg_grid = (reg["omega_max"], reg.get("n_points", 8193)) if reg else None

        init = sysdoc.get("initial", {"basis_state": 0})
        if "amplitudes" in init:
            re = np.asarray(init["amplitudes"]["re"], dtype=float)
            im = np.asarray(init["amplitudes"].get("im", np.zeros_like(re)))
            if re.shape != (d**n,) or im.shape != (d**n,):
                raise SchemaViolation(
                    f"at system/initial: amplitudes need {d**n} entries")
            sys_initial = re + 1j * im
            if not 0.0 < np.linalg.norm(sys_initial) < math.inf:
                raise SchemaViolation(
                    "at system/initial: amplitudes need a nonzero finite norm")
        else:
            index = init.get("basis_state", 0)
            if index >= d**n:
                raise SchemaViolation(
                    f"at system/initial: basis_state {index} is outside "
                    f"the {d**n} system states")
            sys_initial = np.zeros(d**n, dtype=complex)
            sys_initial[index] = 1.0

        return cls(
            mode=doc["mode"], model=model, kernels=tuple(kernels),
            env_docs=env_docs, mollifier=mollifier,
            reg_grid=reg_grid, cutoff_omega=doc["cutoff_omega"],
            modes=doc["modes"], particle_cap=doc["particle_cap"],
            t_final=doc["t_final"], out_step=doc.get("out_step", 0.05),
            star_modes=doc.get("oracle", {}).get("star_modes", 64),
            sweep_axes=dict(sorted(doc.get("sweep", {}).items())),
            sys_initial=sys_initial,
        )

    @classmethod
    def from_path(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaViolation(f"at line {exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise SchemaViolation(
                f"at --config: {path} is not UTF-8 text "
                f"(byte {exc.start}: {exc.reason})") from exc
        except OSError as exc:
            raise SchemaViolation(
                f"at --config: cannot read {path}: {exc.strerror}") from exc
        return cls.from_document(doc)


# -- pipeline pieces -----------------------------------------------------------

def _regularized(cfg: ExperimentConfig):
    """(couplings, regularization budget term); the term for certify only,
    since other modes accept states and epsilons it is not computable for."""
    couplings = []
    for kernel in cfg.kernels:
        grid = cfg.reg_grid or ker.choose_grid(kernel, cfg.mollifier)
        couplings.append(ker.regularize(kernel, cfg.mollifier, grid))
    term = None
    if cfg.mode == "certify":
        term = dyn.regularization_term(cfg.model, cfg.kernels,
                                       cfg.mollifier.epsilon, cfg.t_final,
                                       _state_constants(cfg, couplings))
    return couplings, term


def _chains(couplings, omega_c, modes):
    return [chain_mod.star_to_chain(c, omega_c, modes) for c in couplings]


def _space(cfg, modes, cap, star=False):
    """Enumerated space, refused before assembly if its Hamiltonian, the
    (output times, dimension) complex array of its run's states or the
    (output times, sys_dim, sys_dim) array of its reduced states is too big.
    A `star` space's couplings are complex when a kernel has a nonzero
    phase polynomial; a chain's are always real."""
    space = fock.enumerate_basis(cfg.model.n, cfg.model.d, len(cfg.kernels),
                                 modes, cap)
    cap_mib = fock.HAMILTONIAN_BYTES_CAP / 2**20
    phased = star and any(any(k.phase_poly) for k in cfg.kernels)
    size = fock.hamiltonian_bytes(cfg.model, space, complex_couplings=phased)
    if size > fock.HAMILTONIAN_BYTES_CAP:
        raise DimensionOverflow(
            f"Hamiltonian of about {size / 2**20:.0f} MiB at dimension "
            f"{space.dimension} exceeds cap {cap_mib:.0f} MiB")
    rows = dyn.output_count(cfg.t_final, cfg.out_step)
    size = rows * space.dimension * 16
    if size > fock.HAMILTONIAN_BYTES_CAP:
        raise DimensionOverflow(
            f"output states of {size / 2**20:.0f} MiB ({rows} times at "
            f"dimension {space.dimension}) exceed cap {cap_mib:.0f} MiB")
    size = rows * space.sys_dim**2 * 16
    if size > fock.HAMILTONIAN_BYTES_CAP:
        raise DimensionOverflow(
            f"reduced states of {size / 2**20:.0f} MiB ({rows} times at "
            f"system dimension {space.sys_dim}) exceed cap {cap_mib:.0f} MiB")
    return space


def _no_photon_weight(cfg, bath, wp, grid=None):
    """Refusal of a single-photon packet without weight: on the sample points
    that `grid` names, when given and the packet is centred inside the
    cutoff (it falls between two points), else below the cutoff."""
    if grid is not None and abs(wp["center"]) <= cfg.cutoff_omega:
        return UnsupportedInitialState(
            f"bath {bath}: single-photon wavepacket at center "
            f"{wp['center']:g} of width {wp['width']:g} has no weight on the "
            f"{grid}")
    return UnsupportedInitialState(
        f"bath {bath}: single-photon wavepacket at center {wp['center']:g} has "
        f"no weight below cutoff_omega {cfg.cutoff_omega:g}")


def _reg_grid_name(w):
    return (f"{w.size} points of the regularization grid of spacing "
            f"{(w[-1] - w[0]) / (w.size - 1):g}")


def _wavepacket(wp, w, squared=False):
    """exp(-(w - center)^2 / (2 width^2)) at the frequencies w, or its square;
    an exponent that overflows (a narrow packet far from w) gives 0."""
    with np.errstate(over="ignore"):
        return np.exp(-((w - wp["center"]) ** 2)
                      / ((1.0 if squared else 2.0) * wp["width"] ** 2))


def _env_states(cfg, chains, couplings):
    states = []
    for i, (doc, coeffs, coupling) in enumerate(zip(cfg.env_docs, chains,
                                                    couplings)):
        kind = doc["type"]
        if kind == "vacuum":
            states.append(fock.InitialEnvState())
        elif kind == "single_photon":
            wp = doc["wavepacket"]
            w = coupling.grid
            xi = _wavepacket(wp, w)
            norm_sq = float(np.trapezoid(np.abs(xi) ** 2, w))
            if norm_sq == 0.0:
                raise _no_photon_weight(cfg, i, wp, _reg_grid_name(w))
            xi = xi / math.sqrt(norm_sq)
            amps, residual = fock.project_wavepacket(coeffs, coupling, w, xi)
            if np.linalg.norm(amps) == 0.0:
                raise _no_photon_weight(cfg, i, wp)
            states.append(fock.InitialEnvState("single_photon", amps,
                                               math.sqrt(max(residual, 0.0))))
        else:
            disp = doc["displacements"]
            re = np.asarray(disp["re"], dtype=float)
            im = np.asarray(disp.get("im", np.zeros_like(re)))
            states.append(fock.InitialEnvState("coherent", re + 1j * im))
    return states


def _simulate(cfg, space, chains, env):
    """Propagate the built stages; returns (validated trajectory, lost norm)."""
    psi0, lost = fock.assemble_initial_state(space, cfg.sys_initial, env)
    traj = dyn.evolve(cfg.model, chains, space, psi0, cfg.t_final,
                      out_step=cfg.out_step)
    return traj.validate(), lost


def _star_env_states(cfg, stars):
    """Environment states projected onto the star modes."""
    states = []
    for i, (doc, star) in enumerate(zip(cfg.env_docs, stars)):
        kind = doc["type"]
        if kind == "vacuum":
            states.append(fock.InitialEnvState())
        else:   # single photon; `_run_point` refuses coherent states
            wp = doc["wavepacket"]
            xi = _wavepacket(wp, star.omegas).astype(complex)
            norm = np.linalg.norm(xi)
            if norm == 0.0:
                raise _no_photon_weight(
                    cfg, i, wp, f"{star.count} star nodes of spacing "
                    f"{2.0 * cfg.cutoff_omega / star.count:g}")
            states.append(fock.InitialEnvState("single_photon", xi / norm))
    return states


def _state_constants(cfg, couplings):
    kinds = [doc["type"] for doc in cfg.env_docs]
    if all(k == "vacuum" for k in kinds):
        return dyn.StateConstants.vacuum(len(kinds))
    if any(k == "coherent" for k in kinds):
        raise UnsupportedInitialState(
            "regularization constants are only computable for vacuum and "
            "single-photon environment states")
    n1, n2 = [], []
    for i, (doc, coupling) in enumerate(zip(cfg.env_docs, couplings)):
        if doc["type"] == "vacuum":
            n1.append(0.0)
            n2.append(0.0)
        else:
            wp = doc["wavepacket"]
            w = coupling.grid
            xi2 = _wavepacket(wp, w, squared=True)
            mass = float(np.trapezoid(xi2, w))
            if mass == 0.0:
                raise _no_photon_weight(cfg, i, wp, _reg_grid_name(w))
            xi2 = xi2 / mass
            n1.append(float(np.trapezoid((1.0 + w**2) * xi2, w)))
            n2.append(float(np.trapezoid((1.0 + w**2) ** 2 * xi2, w)))
    return dyn.StateConstants.from_photon_counts(cfg.kernels, n1, n2)


# -- artifact writers ----------------------------------------------------------

def _atomic_write(out_dir, name, text):
    path = os.path.join(out_dir, name)
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv(header, rows) -> str:
    """CSV text of a header and rows, one line each: strings as given,
    numbers with 17 significant digits (`_fmt`)."""
    return "".join(",".join(c if isinstance(c, str) else _fmt(c) for c in line)
                   + "\n" for line in [header, *rows])


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def trajectory_csv(traj: dyn.Trajectory, sys_dim: int) -> str:
    cols = ["t"]
    for i in range(sys_dim):
        for j in range(sys_dim):
            cols += [f"rho_{i}_{j}_re", f"rho_{i}_{j}_im"]
    baths = traj.mu1.shape[1]
    cols += [f"mu1_{a}" for a in range(baths)]
    cols += [f"mu2_{a}" for a in range(baths)]
    cols += ["norm", "oracle"]
    n = len(traj.times)
    rho = traj.rho_s.reshape(n, sys_dim * sys_dim)
    table = np.column_stack([
        traj.times, np.stack([rho.real, rho.imag], axis=-1).reshape(n, -1),
        traj.mu1, traj.mu2, traj.norms])
    flag = str(int(traj.oracle))
    return _csv(cols, ([*row, flag] for row in table))


# -- mode runners ---------------------------------------------------------------

def _padded(env, extra):
    """Environment states on `extra` more chain modes, holding no quanta."""
    return [st if st.kind == "vacuum" else
            replace(st, amplitudes=np.pad(st.amplitudes, (0, extra)))
            for st in env]


def _max_gap(traj, fine):
    return float(np.max(dyn.trace_distance(traj.rho_s, fine.rho_s)))


def _measured_gaps(cfg, couplings, space, chains, env, base_traj, cap_space,
                   long_space):
    """Trace-distance gaps to the refined pipelines.

    Each refinement rebuilds only the stages its parameter changes; the
    refined spaces come enumerated (and size-checked) by the caller.  The
    long chain starts from the base environment state padded with empty
    modes, so the chain gap does not also measure a finer projection of the
    initial state; with a non-vacuum environment the initialization gap is
    the long chain from that padded state against the long chain from its
    own projection.
    """
    fine_p, _ = _simulate(cfg, cap_space, chains, env)
    wide = _chains(couplings, 2.0 * cfg.cutoff_omega, cfg.modes)
    fine_w, _ = _simulate(cfg, space, wide, _env_states(cfg, wide, couplings))
    long = _chains(couplings, cfg.cutoff_omega, long_space.modes)
    fine_n, _ = _simulate(cfg, long_space, long,
                          _padded(env, long_space.modes - cfg.modes))
    gaps = {"truncation": _max_gap(base_traj, fine_p),
            "cutoff": _max_gap(base_traj, fine_w),
            "chain": _max_gap(base_traj, fine_n)}
    if any(st.kind != "vacuum" for st in env):
        fine_i, _ = _simulate(cfg, long_space, long,
                              _env_states(cfg, long, couplings))
        gaps["initialization"] = _max_gap(fine_n, fine_i)
    return gaps


def _run_point(cfg: ExperimentConfig, out_dir, tag="", regularized=None):
    suffix = f"-{tag}" if tag else ""

    if cfg.mode == "chain-map":
        chains = _chains(_regularized(cfg)[0], cfg.cutoff_omega, cfg.modes)
        _atomic_write(out_dir, f"chain{suffix}.json",
                      _json([c.to_json_dict() for c in chains]))
        return {}

    # every size check of this point, and the star oracle's refusals, run
    # before any chain work
    space = _space(cfg, cfg.modes, cfg.particle_cap)
    if cfg.mode == "compare-oracle":
        if any(doc["type"] == "coherent" for doc in cfg.env_docs):
            raise UnsupportedInitialState(
                "star oracle supports vacuum and single-photon states")
        if cfg.model.time_dependent:
            raise StepControlFailure(
                "star oracle supports constant system profiles only")
        star_space = _space(cfg, cfg.star_modes, cfg.particle_cap, star=True)
    if cfg.mode == "certify":
        cap_space = _space(cfg, cfg.modes, cfg.particle_cap + 2)
        long_space = _space(cfg, cfg.modes + 8, cfg.particle_cap)
    couplings, reg_term = regularized or _regularized(cfg)
    chains = _chains(couplings, cfg.cutoff_omega, cfg.modes)
    env = _env_states(cfg, chains, couplings)
    if cfg.mode == "compare-oracle":
        stars = [orc.StarDiscretization.from_coupling(c, cfg.cutoff_omega,
                                                      cfg.star_modes)
                 for c in couplings]
        star_env = _star_env_states(cfg, stars)
    traj, lost = _simulate(cfg, space, chains, env)
    _atomic_write(out_dir, f"trajectory{suffix}.csv",
                  trajectory_csv(traj, space.sys_dim))
    _atomic_write(out_dir, f"chain{suffix}.json",
                  _json([c.to_json_dict() for c in chains]))
    if cfg.mode == "simulate":
        return {}

    if cfg.mode == "compare-oracle":
        psi0, _ = fock.assemble_initial_state(star_space, cfg.sys_initial,
                                              star_env)
        star_traj = orc.star_evolve(cfg.model, stars, star_space, psi0,
                                    cfg.t_final, out_step=cfg.out_step)
        star_traj.validate()
        _atomic_write(out_dir, f"oracle-trajectory{suffix}.csv",
                      trajectory_csv(star_traj, star_space.sys_dim))
        dists = dyn.trace_distance(traj.rho_s, star_traj.rho_s)
        _atomic_write(out_dir, f"report{suffix}.csv",
                      _csv(["t", "trace_distance"], zip(traj.times, dists)))
        return {}

    # certify (also the per-point payload of sweep)
    budget = dyn.assemble_error_budget(
        cfg.model, couplings, chains, space, cfg.t_final, reg_term,
        initial_moments=[st.moments() for st in env], initialization=lost)
    _atomic_write(out_dir, f"budget{suffix}.json", _json(budget.to_json_dict()))
    gaps = _measured_gaps(cfg, couplings, space, chains, env, traj, cap_space,
                          long_space)
    rows = [[name, getattr(budget, name), gaps.get(name, 0.0)]
            for name in budget.TERMS]
    rows.append(["total", budget.total, max(gaps.values())])
    _atomic_write(out_dir, f"report{suffix}.csv",
                  _csv(["kind", "certified", "measured"], rows))
    return {"budget": budget, "gaps": gaps}


def _sweep_points(cfg: ExperimentConfig):
    axes = {
        "epsilon": cfg.sweep_axes.get("epsilon", [cfg.mollifier.epsilon]),
        "cutoff_omega": cfg.sweep_axes.get("cutoff_omega", [cfg.cutoff_omega]),
        "modes": cfg.sweep_axes.get("modes", [cfg.modes]),
        "particle_cap": cfg.sweep_axes.get("particle_cap", [cfg.particle_cap]),
    }
    names = sorted(axes)
    for combo in itertools.product(*(axes[k] for k in names)):
        yield dict(zip(names, combo))


def _point_config(cfg: ExperimentConfig, point) -> ExperimentConfig:
    return replace(
        cfg, mode="certify",
        mollifier=ker.Mollifier(point["epsilon"], cfg.mollifier.family),
        cutoff_omega=point["cutoff_omega"], modes=point["modes"],
        particle_cap=point["particle_cap"], sweep_axes={})


def _sweep_worker(args):
    cfg, point, out_dir, tag, regularized = args
    result = _run_point(_point_config(cfg, point), out_dir, tag=tag,
                        regularized=regularized)
    row = dict(point)
    budget, gaps = result["budget"], result["gaps"]
    for name in budget.TERMS:
        row[f"cert_{name}"] = getattr(budget, name)
    row["cert_total"] = budget.total
    for name, val in gaps.items():
        row[f"meas_{name}"] = val
    return tag, row


def _run_sweep(cfg: ExperimentConfig, out_dir, jobs: int):
    points = list(_sweep_points(cfg))
    tags = [f"pt{idx:04d}" for idx in range(len(points))]
    # couplings and the regularization term depend on the point only
    # through epsilon: build them once each
    by_eps = {}
    for pt in points:
        if pt["epsilon"] not in by_eps:
            by_eps[pt["epsilon"]] = _regularized(_point_config(cfg, pt))
    work = [(cfg, pt, out_dir, tag, by_eps[pt["epsilon"]])
            for pt, tag in zip(points, tags)]
    # a fork-started pool starts all of its workers on the first submit
    workers = min(jobs, len(points))
    if workers > 1:
        # imported only for a pool: it costs every run about 4 ms of start-up
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers) as pool:
            rows = dict(pool.map(_sweep_worker, work))
    else:
        rows = dict(map(_sweep_worker, work))
    cols = ["cutoff_omega", "epsilon", "modes", "particle_cap",
            *(f"cert_{name}" for name in dyn.ErrorBudget.TERMS), "cert_total",
            "meas_truncation", "meas_cutoff", "meas_chain"]
    _atomic_write(out_dir, "sweep.csv",
                  _csv(["point", *cols],
                       ([tag, *(rows[tag][c] for c in cols)] for tag in tags)))


def run(config: ExperimentConfig, out_dir: str, jobs: int = 1,
        verbose: bool = False) -> int:
    """Execute the configured mode; returns the process exit status.  When
    `verbose`, reports the run's settings and, at the end, its output
    directory on stderr, as INFO lines."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise SchemaViolation(
            f"at --out: cannot create {out_dir}: {exc.strerror}") from exc
    if verbose:
        print("INFO nmk_sim: mode %s: %d bath(s), omega_c=%g, modes=%d, "
              "cap=%d, t=%g" % (config.mode, len(config.kernels),
                                config.cutoff_omega, config.modes,
                                config.particle_cap, config.t_final),
              file=sys.stderr)
    if config.mode == "sweep":
        _run_sweep(config, out_dir, jobs)
    else:
        _run_point(config, out_dir)
    if verbose:
        print("INFO nmk_sim: artifacts written to %s" % out_dir,
              file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nmk-sim",
        description="Simulate non-Markovian open systems through certified "
                    "Markovian dilations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in MODES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        level = os.environ.get("NMK_SIM_LOG", "WARNING")
        if level.upper() not in LOG_LEVELS:
            raise SchemaViolation(
                f"at NMK_SIM_LOG: unknown level {level!r}, need one of "
                f"{', '.join(LOG_LEVELS)} (any case)")
        if args.jobs < 1:
            raise SchemaViolation(
                f"at --jobs: needs at least 1 worker, got {args.jobs}")
        cfg = ExperimentConfig.from_path(args.config)
        cfg = replace(cfg, mode=args.command)
        if cfg.mode == "sweep" and not cfg.sweep_axes:
            raise SchemaViolation("at sweep: sweep mode needs non-empty axes")
        if cfg.mode in ("certify", "sweep"):
            # the truncation certificate divides by the cap of every point
            axes = cfg.sweep_axes if cfg.mode == "sweep" else {}
            cap = min(axes.get("particle_cap", [cfg.particle_cap]))
            if cap < 1:
                raise SchemaViolation(
                    f"at particle_cap: {cfg.mode} needs a cap of at least 1, "
                    f"got {cap}")
        return run(cfg, args.out, jobs=args.jobs,
                   verbose=LOG_LEVELS[level.upper()] <= LOG_LEVELS["INFO"])
    except SchemaViolation as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NmkSimError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
