"""Seeded workload generator: one nmk-sim config document per (workload, seed).

Seed 0 reproduces the base documents below exactly.  Other seeds perturb only
physical parameters (Lorentzian alpha/omega/gamma, the delta-train side-atom
weights and locations, the drive frequency) by a few percent, so modes, caps,
dimensions and time grids, and with them the size of the work, stay fixed.
"""

from __future__ import annotations

import copy
import random

# Fractional size of the seeded perturbations.  Small enough that the
# controllers (panel doublings, CF4 step halving) do the same work on every
# seed; large enough that the outputs differ from seed to seed.
REL = 0.02

_QUBIT_DESK = {
    "n": 1,
    "d": 2,
    "hamiltonian": [{"support": [0], "matrix": "sigma_z", "scale": 0.5}],
    "jumps": [{"support": [0], "matrix": "sigma_x", "bath": 0}],
    "initial": {"basis_state": 0},
}

_DESK_BATH = {
    "kernel": {"kind": "lorentzian_sum",
               "terms": [{"alpha": 1.0, "omega": 0.0, "gamma": 1.0}]},
    "initial": {"type": "vacuum"},
}

# configs/convergence-sweep.json as of the commit that added this benchmark,
# with the sweep cut from particle caps {1, 2} to cap 1: three certify points
# instead of six.  The six-point op took 7-8 s, so a run held three ops and its
# median moved with every slow spell of the host; at about 3 s a run holds
# seven or more.
_SWEEP = {
    "mode": "sweep",
    "seed": 0,
    "system": _QUBIT_DESK,
    "baths": [_DESK_BATH],
    "mollifier": {"family": "standard_bump", "epsilon": 0.05},
    "cutoff_omega": 3.0,
    "modes": 6,
    "particle_cap": 1,
    "t_final": 1.0,
    "out_step": 0.1,
    "sweep": {"modes": [4, 6, 8], "particle_cap": [1]},
}

# configs/feedback-delay.json with the star oracle raised from 256 to 512 modes.
_ORACLE = {
    "mode": "compare-oracle",
    "seed": 0,
    "system": {
        "n": 1,
        "d": 2,
        "jumps": [{"support": [0], "matrix": "sigma_minus", "bath": 0}],
        "initial": {"basis_state": 0},
    },
    "baths": [{
        "kernel": {"kind": "delta_train", "atoms": [
            {"weight_re": -0.5, "location": -0.8},
            {"weight_re": 1.0, "location": 0.0},
            {"weight_re": -0.5, "location": 0.8},
        ]},
        "initial": {"type": "vacuum"},
    }],
    "mollifier": {"family": "standard_bump", "epsilon": 0.02},
    "cutoff_omega": 20.0,
    "modes": 64,
    "particle_cap": 1,
    "t_final": 2.0,
    "out_step": 0.05,
    "oracle": {"star_modes": 512},
}

# The driven case of acceptance criterion 5 cut to its first two output
# intervals (t_final 0.4 of 2.0; about 1,500 CF4 steps, 3 s per op on a
# 2-vCPU x86 KVM guest) so that a run holds enough ops for a steady median: a
# qubit with H_S = 0.4 cos(2t) sigma_x and a sigma_minus jump into the desk bath.
_DRIVEN = {
    "mode": "simulate",
    "seed": 0,
    "system": {
        "n": 1,
        "d": 2,
        "hamiltonian": [{"support": [0], "matrix": "sigma_x", "scale": 0.4,
                         "profile": {"type": "cos", "frequency": 2.0}}],
        "jumps": [{"support": [0], "matrix": "sigma_minus", "bath": 0}],
        "initial": {"basis_state": 0},
    },
    "baths": [_DESK_BATH],
    "mollifier": {"family": "standard_bump", "epsilon": 0.05},
    "cutoff_omega": 3.0,
    "modes": 4,
    "particle_cap": 2,
    "t_final": 0.4,
    "out_step": 0.2,
}

# The desk model on 20 modes at cap 4: dimension 21,252 (nnz 162,932), 15x
# DENSE_EIG_DIM, so propagation takes the Krylov path.  At 30 modes (dimension
# 92,752, a 15 MB Hamiltonian) an op took 4-5 s and its time varied by 10-25%
# from op to op on a 2-vCPU x86 KVM guest; at this size the Hamiltonian (3.3 MB)
# fits in a core's L2 cache, an op takes about 1.1 s and a run holds ten ops.
_KRYLOV = {
    "mode": "simulate",
    "seed": 0,
    "system": _QUBIT_DESK,
    "baths": [_DESK_BATH],
    "mollifier": {"family": "standard_bump", "epsilon": 0.05},
    "cutoff_omega": 3.0,
    "modes": 20,
    "particle_cap": 4,
    "t_final": 2.0,
    "out_step": 0.1,
}

WORKLOADS = {
    "sweep-certify": {
        "command": "sweep", "doc": _SWEEP,
        "why": "three certify points whose budget reruns discretization plus "
               "Lanczos 64 times each: chain and dynamics budget code dominate "
               "(chain reuse, ROADMAP item 2)",
    },
    "oracle-star": {
        "command": "compare-oracle", "doc": _ORACLE,
        "why": "512-mode star oracle (kron lifts, dense eigh, dim 1026) plus "
               "one long 64-step chain recursion; budget and CF4 bypassed",
    },
    "driven-cf4": {
        "command": "simulate", "doc": _DRIVEN,
        "why": "driven qubit at dim 30: the CF4 step-halving controller does "
               "almost all the work (ROADMAP item 3); chain, fock and oracle "
               "near zero",
    },
    "fock-krylov": {
        "command": "simulate", "doc": _KRYLOV,
        "why": "only workload above DENSE_EIG_DIM (dim 21252): basis "
               "enumeration, sparse Hamiltonian build and Krylov "
               "expm_multiply (ROADMAP item 4)",
    },
}


def _scaled(rng, value):
    return value * (1.0 + REL * rng.uniform(-1.0, 1.0))


def make_config(workload: str, seed: int):
    """(CLI subcommand, config document) for one workload at one seed."""
    spec = WORKLOADS[workload]
    doc = copy.deepcopy(spec["doc"])
    doc["seed"] = seed
    if seed == 0:
        return spec["command"], doc
    rng = random.Random(f"{workload}/{seed}")
    for bath in doc["baths"]:
        kernel = bath["kernel"]
        if kernel["kind"] == "lorentzian_sum":
            for term in kernel["terms"]:
                term["alpha"] = _scaled(rng, term["alpha"])
                term["omega"] = term["omega"] + REL * rng.uniform(-1.0, 1.0)
                term["gamma"] = _scaled(rng, term["gamma"])
        else:
            # Side atoms move as a mirrored pair with |weight| <= 1/2 so the
            # spectral density 1 + 2 w cos(l omega) stays real and nonnegative.
            side = kernel["atoms"]
            weight = side[0]["weight_re"] * (1.0 - REL * rng.uniform(0.0, 1.0))
            location = _scaled(rng, side[2]["location"])
            side[0].update(weight_re=weight, location=-location)
            side[2].update(weight_re=weight, location=location)
    for term in doc["system"].get("hamiltonian", []):
        profile = term.get("profile")
        if profile and profile["type"] != "const":
            profile["frequency"] = _scaled(rng, profile["frequency"])
    return spec["command"], doc
