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
import concurrent.futures
import functools
import itertools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field, replace
from importlib import resources

import jsonschema
import numpy as np

from . import chain as chain_mod
from . import dynamics as dyn
from . import fock
from . import kernels as ker
from . import oracle as orc
from .errors import (DimensionOverflow, NmkSimError, SchemaViolation,
                     UnsupportedInitialState)

log = logging.getLogger("nmk_sim")

MODES = ("chain-map", "simulate", "certify", "compare-oracle", "sweep")


def _load_schema():
    with resources.files("nmk_sim").joinpath("schema.json").open() as fh:
        return json.load(fh)


@functools.cache
def _schema_validator():
    # Built once: `jsonschema.validate` re-checks the schema itself on every
    # call, which costs 50x the validation of a document.
    schema = _load_schema()
    return jsonschema.validators.validator_for(schema)(schema)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _matrix_from_doc(doc, scale=1.0):
    if isinstance(doc, str):
        mat = fock.NAMED_MATRICES[doc]
    else:
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc.get("im", np.zeros_like(re)), dtype=float)
        mat = re + 1j * im
        scale = scale * doc.get("scale", 1.0)
    return scale * mat


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
    if kind == "complex_gaussian_sum":
        terms = [(g.get("coefficient_re", 1.0) + 1j * g.get("coefficient_im", 0.0),
                  g["chirp"]) for g in doc.get("gaussians", [])]
        return ker.MemoryKernel.complex_gaussian_sum(terms, phase)
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
        exc = jsonschema.exceptions.best_match(
            _schema_validator().iter_errors(doc))
        if exc is not None:
            path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
            raise SchemaViolation(f"at {path}: {exc.message}") from exc

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
        except (ValueError, NmkSimError) as exc:
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

        mol_doc = doc["mollifier"]
        mollifier = ker.Mollifier(mol_doc["epsilon"],
                                  mol_doc.get("family", "standard_bump"))
        reg = doc.get("regularization")
        reg_grid = (reg["omega_max"], reg.get("n_points", 8193)) if reg else None

        init = sysdoc.get("initial", {"basis_state": 0})
        if "amplitudes" in init:
            re = np.asarray(init["amplitudes"]["re"], dtype=float)
            im = np.asarray(init["amplitudes"].get("im", np.zeros_like(re)))
            sys_initial = re + 1j * im
        else:
            sys_initial = np.zeros(d**n, dtype=complex)
            sys_initial[init.get("basis_state", 0)] = 1.0

        sweep_axes = dict(sorted(doc.get("sweep", {}).items()))
        if doc["mode"] == "sweep" and not sweep_axes:
            raise SchemaViolation("at sweep: sweep mode needs non-empty axes")

        return cls(
            mode=doc["mode"], model=model, kernels=tuple(kernels),
            env_docs=env_docs, mollifier=mollifier,
            reg_grid=reg_grid, cutoff_omega=doc["cutoff_omega"],
            modes=doc["modes"], particle_cap=doc["particle_cap"],
            t_final=doc["t_final"], out_step=doc.get("out_step", 0.05),
            star_modes=doc.get("oracle", {}).get("star_modes", 64),
            sweep_axes=sweep_axes, sys_initial=sys_initial,
        )

    @classmethod
    def from_path(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaViolation(f"at line {exc.lineno}: {exc.msg}") from exc
        return cls.from_document(doc)


# -- pipeline pieces -----------------------------------------------------------

def _couplings(cfg: ExperimentConfig):
    out = []
    for kernel in cfg.kernels:
        grid = cfg.reg_grid or ker.choose_grid(kernel, cfg.mollifier)
        out.append(ker.regularize(kernel, cfg.mollifier, grid))
    return out


def _chains(couplings, omega_c, modes):
    return [chain_mod.star_to_chain(c, omega_c, modes) for c in couplings]


def _space(cfg, modes, cap):
    """Enumerated space, refused before assembly if its Hamiltonian is too big."""
    space = fock.enumerate_basis(cfg.model.n, cfg.model.d, len(cfg.kernels),
                                 modes, cap)
    size = fock.hamiltonian_bytes(cfg.model, space)
    if size > fock.HAMILTONIAN_BYTES_CAP:
        raise DimensionOverflow(
            f"Hamiltonian of about {size / 2**20:.0f} MiB at dimension "
            f"{space.dimension} exceeds cap "
            f"{fock.HAMILTONIAN_BYTES_CAP / 2**20:.0f} MiB")
    return space


def _env_states(cfg, chains, couplings):
    states = []
    for doc, coeffs, coupling in zip(cfg.env_docs, chains, couplings):
        kind = doc["type"]
        if kind == "vacuum":
            states.append(fock.InitialEnvState())
        elif kind == "single_photon":
            wp = doc["wavepacket"]
            w = coupling.grid
            xi = np.exp(-((w - wp["center"]) ** 2) / (2.0 * wp["width"] ** 2))
            xi = xi / math.sqrt(float(np.trapezoid(np.abs(xi) ** 2, w)))
            amps, residual = fock.project_wavepacket(coeffs, coupling, w, xi)
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
                      dyn.StepControl(out_step=cfg.out_step))
    return traj.validate(), lost


def _star_env_states(cfg, stars):
    """Environment states projected onto the star modes."""
    states = []
    for doc, star in zip(cfg.env_docs, stars):
        kind = doc["type"]
        if kind == "vacuum":
            states.append(fock.InitialEnvState())
        elif kind == "single_photon":
            wp = doc["wavepacket"]
            dw = star.omegas[1] - star.omegas[0]
            xi = np.exp(-((star.omegas - wp["center"]) ** 2)
                        / (2.0 * wp["width"] ** 2)).astype(complex)
            amps = xi * math.sqrt(dw)
            amps = amps / np.linalg.norm(amps)
            states.append(fock.InitialEnvState("single_photon", amps))
        else:
            raise UnsupportedInitialState(
                "star oracle supports vacuum and single-photon states")
    return states


def _state_constants(cfg, env_states, couplings):
    kinds = [st.kind for st in env_states]
    if all(k == "vacuum" for k in kinds):
        return dyn.StateConstants.vacuum(len(kinds))
    if any(k == "coherent" for k in kinds):
        raise UnsupportedInitialState(
            "regularization constants are only computable for vacuum and "
            "single-photon environment states")
    n1, n2 = [], []
    for doc, coupling in zip(cfg.env_docs, couplings):
        if doc["type"] == "vacuum":
            n1.append(0.0)
            n2.append(0.0)
        else:
            wp = doc["wavepacket"]
            w = coupling.grid
            xi2 = np.exp(-((w - wp["center"]) ** 2) / wp["width"] ** 2)
            xi2 = xi2 / float(np.trapezoid(xi2, w))
            n1.append(float(np.trapezoid((1.0 + w**2) * xi2, w)))
            n2.append(float(np.trapezoid((1.0 + w**2) ** 2 * xi2, w)))
    return dyn.StateConstants.from_photon_counts(cfg.kernels, n1, n2)


def _budget(cfg, couplings, chains, space, env_states, lost):
    mu1_0 = sum(st.moments()[0] for st in env_states)
    consts = _state_constants(cfg, env_states, couplings)
    return dyn.assemble_error_budget(
        cfg.model, cfg.kernels, couplings, chains, space, cfg.t_final,
        state_constants=consts, mu1_0=mu1_0, initialization=lost)


# -- artifact writers ----------------------------------------------------------

def _atomic_write(path, text):
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def trajectory_csv(traj: dyn.Trajectory, sys_dim: int) -> str:
    cols = ["t"]
    for i in range(sys_dim):
        for j in range(sys_dim):
            cols += [f"rho_{i}_{j}_re", f"rho_{i}_{j}_im"]
    baths = traj.mu1.shape[1]
    cols += [f"mu1_{a}" for a in range(baths)]
    cols += [f"mu2_{a}" for a in range(baths)]
    cols += ["norm", "oracle"]
    lines = [",".join(cols)]
    for k, t in enumerate(traj.times):
        row = [_fmt(t)]
        for i in range(sys_dim):
            for j in range(sys_dim):
                row += [_fmt(traj.rho_s[k, i, j].real), _fmt(traj.rho_s[k, i, j].imag)]
        row += [_fmt(x) for x in traj.mu1[k]]
        row += [_fmt(x) for x in traj.mu2[k]]
        row += [_fmt(traj.norms[k]), str(int(traj.oracle))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _chain_json(chains) -> str:
    return json.dumps([c.to_json_dict() for c in chains], indent=2,
                      sort_keys=True) + "\n"


# -- mode runners ---------------------------------------------------------------

def _padded(env, extra):
    """Environment states on `extra` more chain modes, holding no quanta."""
    return [st if st.kind == "vacuum" else
            replace(st, amplitudes=np.pad(st.amplitudes, (0, extra)))
            for st in env]


def _max_gap(traj, fine):
    return max(dyn.trace_distance(a, b) for a, b in zip(traj.rho_s, fine.rho_s))


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


def _run_point(cfg: ExperimentConfig, out_dir, tag="", couplings=None):
    os.makedirs(out_dir, exist_ok=True)
    suffix = f"-{tag}" if tag else ""

    if cfg.mode == "chain-map":
        chains = _chains(_couplings(cfg), cfg.cutoff_omega, cfg.modes)
        _atomic_write(os.path.join(out_dir, f"chain{suffix}.json"),
                      _chain_json(chains))
        return {}

    # every size check of this point runs before any chain work
    space = _space(cfg, cfg.modes, cfg.particle_cap)
    if cfg.mode == "compare-oracle":
        star_space = _space(cfg, cfg.star_modes, cfg.particle_cap)
    if cfg.mode == "certify":
        cap_space = _space(cfg, cfg.modes, cfg.particle_cap + 2)
        long_space = _space(cfg, cfg.modes + 8, cfg.particle_cap)
    couplings = couplings or _couplings(cfg)
    chains = _chains(couplings, cfg.cutoff_omega, cfg.modes)
    env = _env_states(cfg, chains, couplings)
    traj, lost = _simulate(cfg, space, chains, env)
    _atomic_write(os.path.join(out_dir, f"trajectory{suffix}.csv"),
                  trajectory_csv(traj, space.sys_dim))
    _atomic_write(os.path.join(out_dir, f"chain{suffix}.json"),
                  _chain_json(chains))
    if cfg.mode == "simulate":
        return {}

    if cfg.mode == "compare-oracle":
        stars = [orc.StarDiscretization.from_coupling(c, cfg.cutoff_omega,
                                                      cfg.star_modes)
                 for c in couplings]
        star_env = _star_env_states(cfg, stars)
        psi0, _ = fock.assemble_initial_state(star_space, cfg.sys_initial,
                                              star_env)
        star_traj = orc.star_evolve(cfg.model, stars, cfg.particle_cap, psi0,
                                    cfg.t_final,
                                    dyn.StepControl(out_step=cfg.out_step),
                                    space=star_space)
        star_traj.validate()
        _atomic_write(os.path.join(out_dir, f"oracle-trajectory{suffix}.csv"),
                      trajectory_csv(star_traj, star_space.sys_dim))
        lines = ["t,trace_distance"]
        for k, t in enumerate(traj.times):
            lines.append(",".join([
                _fmt(t), _fmt(dyn.trace_distance(traj.rho_s[k],
                                                 star_traj.rho_s[k]))]))
        _atomic_write(os.path.join(out_dir, f"report{suffix}.csv"),
                      "\n".join(lines) + "\n")
        return {}

    # certify (also the per-point payload of sweep)
    budget = _budget(cfg, couplings, chains, space, env, lost)
    _atomic_write(os.path.join(out_dir, f"budget{suffix}.json"),
                  json.dumps(budget.to_json_dict(), indent=2, sort_keys=True) + "\n")
    gaps = _measured_gaps(cfg, couplings, space, chains, env, traj, cap_space,
                          long_space)
    lines = ["kind,certified,measured"]
    for name in ("regularization", "cutoff", "chain", "truncation",
                 "initialization"):
        measured = gaps.get(name, 0.0)
        lines.append(",".join([name, _fmt(getattr(budget, name)),
                               _fmt(measured)]))
    lines.append(",".join(["total", _fmt(budget.total),
                           _fmt(max(gaps.values()))]))
    _atomic_write(os.path.join(out_dir, f"report{suffix}.csv"),
                  "\n".join(lines) + "\n")
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
    cfg, point, out_dir, tag, couplings = args
    result = _run_point(_point_config(cfg, point), out_dir, tag=tag,
                        couplings=couplings)
    row = dict(point)
    budget, gaps = result["budget"], result["gaps"]
    for name in ("regularization", "cutoff", "chain", "truncation",
                 "initialization"):
        row[f"cert_{name}"] = getattr(budget, name)
    row["cert_total"] = budget.total
    for name, val in gaps.items():
        row[f"meas_{name}"] = val
    return tag, row


def _run_sweep(cfg: ExperimentConfig, out_dir, jobs: int):
    points = list(_sweep_points(cfg))
    tags = [f"pt{idx:04d}" for idx in range(len(points))]
    # couplings depend on the point only through epsilon: regularize once each
    by_eps = {}
    for pt in points:
        if pt["epsilon"] not in by_eps:
            by_eps[pt["epsilon"]] = _couplings(_point_config(cfg, pt))
    work = [(cfg, pt, out_dir, tag, by_eps[pt["epsilon"]])
            for pt, tag in zip(points, tags)]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = dict(pool.map(_sweep_worker, work))
    else:
        rows = dict(map(_sweep_worker, work))
    cols = ["point", "cutoff_omega", "epsilon", "modes", "particle_cap",
            "cert_regularization", "cert_cutoff", "cert_chain",
            "cert_truncation", "cert_initialization", "cert_total",
            "meas_truncation", "meas_cutoff", "meas_chain"]
    lines = [",".join(cols)]
    for tag in tags:
        row = rows[tag]
        out = [tag]
        for c in cols[1:]:
            val = row[c]
            out.append(str(int(val)) if c in ("modes", "particle_cap")
                       else _fmt(val))
        lines.append(",".join(out))
    _atomic_write(os.path.join(out_dir, "sweep.csv"), "\n".join(lines) + "\n")


def run(config: ExperimentConfig, out_dir: str, jobs: int = 1) -> int:
    """Execute the configured mode; returns the process exit status."""
    os.makedirs(out_dir, exist_ok=True)
    log.info("mode %s: %d bath(s), omega_c=%g, modes=%d, cap=%d, t=%g",
             config.mode, len(config.kernels), config.cutoff_omega,
             config.modes, config.particle_cap, config.t_final)
    if config.mode == "sweep":
        _run_sweep(config, out_dir, jobs)
    else:
        _run_point(config, out_dir)
    log.info("artifacts written to %s", out_dir)
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

    logging.basicConfig(
        level=os.environ.get("NMK_SIM_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")

    try:
        cfg = ExperimentConfig.from_path(args.config)
        cfg = replace(cfg, mode=args.command)
        if cfg.mode == "sweep" and not cfg.sweep_axes:
            raise SchemaViolation("at sweep: sweep mode needs non-empty axes")
        return run(cfg, args.out, jobs=args.jobs)
    except SchemaViolation as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NmkSimError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
