import functools
import json
import math
import os
import time
import tracemalloc
import warnings

import jsonschema
import numpy as np
import pytest

from nmk_sim import cli
from nmk_sim import dynamics as dyn
from nmk_sim import fock
from nmk_sim import oracle as orc
from nmk_sim.errors import SchemaViolation


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")


def _shipped(name):
    with open(os.path.join(CONFIGS, name)) as fh:
        return json.load(fh)


def _base_doc(**overrides):
    doc = {
        "mode": "simulate",
        "system": {
            "n": 1, "d": 2,
            "hamiltonian": [{"support": [0], "matrix": "sigma_z", "scale": 0.5}],
            "jumps": [{"support": [0], "matrix": "sigma_x", "bath": 0}],
            "initial": {"basis_state": 0},
        },
        "baths": [{"kernel": {"kind": "lorentzian_sum",
                              "terms": [{"alpha": 1.0, "omega": 0.0,
                                         "gamma": 1.0}]}}],
        "mollifier": {"epsilon": 0.05},
        "cutoff_omega": 3.0,
        "modes": 4,
        "particle_cap": 1,
        "t_final": 0.5,
        "out_step": 0.25,
    }
    doc.update(overrides)
    return doc


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- schema validation ------------------------------------------------------------

def test_shipped_schema_is_valid():
    # configs are validated without re-checking the schema itself
    schema = cli._load_schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_missing_section_is_exit_two(tmp_path, capsys):
    path = _write(tmp_path, {"mode": "simulate"})
    code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "required property" in capsys.readouterr().err


def test_field_path_in_diagnostic(tmp_path, capsys):
    doc = _base_doc()
    doc["modes"] = -3
    path = _write(tmp_path, doc)
    code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "modes" in capsys.readouterr().err


def test_unknown_field_rejected(tmp_path):
    doc = _base_doc(extra_knob=1)
    with pytest.raises(SchemaViolation):
        cli.ExperimentConfig.from_document(doc)


def test_bath_index_out_of_range(tmp_path):
    doc = _base_doc()
    doc["system"]["jumps"][0]["bath"] = 3
    with pytest.raises(SchemaViolation):
        cli.ExperimentConfig.from_document(doc)


@pytest.mark.parametrize("initial", [
    {"basis_state": 5},
    {"amplitudes": {"re": [1.0]}},
    {"amplitudes": {"re": [0.0, 0.0], "im": [0.0, 0.0]}},
], ids=["basis-state-range", "amplitudes-length", "amplitudes-zero"])
def test_bad_system_initial_state_is_exit_two(tmp_path, capsys, initial):
    doc = _base_doc()
    doc["system"]["initial"] = initial
    path = _write(tmp_path, doc)
    out = tmp_path / "o"
    code = cli.main(["simulate", "--config", path, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "at system/initial" in err and "Traceback" not in err
    assert not (out / "trajectory.csv").exists()


def test_malformed_json_is_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "line" in capsys.readouterr().err


def test_non_utf8_config_is_exit_two(tmp_path, capsys):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{")
    out = tmp_path / "o"
    code = cli.main(["simulate", "--config", str(path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and str(path) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["config-missing", "config-is-directory",
                                  "out-is-file"])
def test_unusable_config_or_out_path_is_exit_two(tmp_path, capsys, case):
    config = _write(tmp_path, _base_doc())
    out = tmp_path / "o"
    if case == "config-missing":
        config = str(tmp_path / "missing.json")
    elif case == "config-is-directory":
        config = str(tmp_path)
    else:
        out.write_text("")
    code = cli.main(["simulate", "--config", config, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert (str(out) if case == "out-is-file" else config) in err
    assert "Traceback" not in err


def test_numerical_failure_is_exit_three(tmp_path, capsys):
    doc = _base_doc()
    doc["baths"][0]["kernel"] = {
        "kind": "tabulated",
        "grid": {"start": -5.0, "stop": 5.0, "values": [0.0] * 65},
    }
    path = _write(tmp_path, doc)
    code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_kernel_error_is_exit_two(tmp_path, capsys):
    doc = _shipped("feedback-delay.json")
    doc["baths"][0]["kernel"]["atoms"][0]["location"] = 0.5
    path = _write(tmp_path, doc)
    code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "at baths/0/kernel" in err and "strictly increasing" in err


@pytest.mark.parametrize("start, stop", [(5.0, -5.0), (1.0, 1.0)],
                         ids=["reversed", "zero-step"])
def test_tabulated_grid_not_increasing_is_exit_two(tmp_path, capsys, start,
                                                   stop):
    # np.interp reads a density tabulated on such a grid as 0
    doc = _base_doc()
    doc["baths"][0]["kernel"] = {
        "kind": "tabulated",
        "grid": {"start": start, "stop": stop, "values": [1.0] * 65},
    }
    path = _write(tmp_path, doc)
    code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "at baths/0/kernel" in err and "strictly increasing" in err


def test_complex_gaussian_kernel_is_exit_two(tmp_path, capsys):
    # no nonnegative spectral density to regularize: refused by the schema
    doc = _base_doc()
    doc["baths"][0]["kernel"] = {
        "kind": "complex_gaussian_sum",
        "gaussians": [{"coefficient_re": 1.0, "chirp": 2.0}],
    }
    path = _write(tmp_path, doc)
    code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "at baths/0/kernel" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["certify", "sweep"])
def test_cap_below_one_is_exit_two(tmp_path, capsys, mode):
    # the truncation certificate divides by the cap
    doc = _shipped("lorentzian-desk.json")
    doc["particle_cap"] = 0
    if mode == "sweep":
        doc["particle_cap"] = 2
        doc["sweep"] = {"particle_cap": [2, 0]}
    path = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert cli.main([mode, "--config", path, "--out", str(out)]) == 2
    assert "particle_cap" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_space_fails_before_any_work(tmp_path, capsys):
    doc = _shipped("lorentzian-desk.json")
    doc.update(modes=400, particle_cap=3)     # 2 * C(403, 3) > STATE_CAP
    path = _write(tmp_path, doc)
    start = time.perf_counter()
    code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "exceeds cap" in capsys.readouterr().err
    assert time.perf_counter() - start < 5.0


def test_oversized_star_space_fails_before_chain_run(tmp_path, capsys):
    doc = _base_doc(mode="compare-oracle", particle_cap=3)
    doc["oracle"] = {"star_modes": 400}      # 2 * C(403, 3) > STATE_CAP
    path = _write(tmp_path, doc)
    out = tmp_path / "o"
    start = time.perf_counter()
    code = cli.main(["compare-oracle", "--config", path, "--out", str(out)])
    assert code == 3
    assert "exceeds cap" in capsys.readouterr().err
    assert time.perf_counter() - start < 5.0
    assert not (out / "trajectory.csv").exists()


def test_repeated_support_qudit_is_exit_two(tmp_path, capsys):
    doc = _shipped("lorentzian-desk.json")
    zz = [[1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0],
          [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    doc["system"]["n"] = 2
    doc["system"]["hamiltonian"].append({"support": [0, 0],
                                         "matrix": {"re": zz}})
    path = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "at system" in err and "distinct" in err
    assert "Traceback" not in err
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("mode", ["simulate", "certify"])
def test_oversized_register_fails_before_any_work(tmp_path, capsys, mode):
    # a 13-qubit register passes every space check at one mode and cap 1,
    # but its two operators would take 1 GiB each and its jump norm a dense
    # 8192 x 8192 SVD
    doc = _shipped("lorentzian-desk.json")
    doc["system"]["n"] = 13
    doc.update(modes=1, particle_cap=1)
    path = _write(tmp_path, doc)
    out = tmp_path / "o"
    start = time.perf_counter()
    code = cli.main([mode, "--config", path, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "system register" in err and "exceeds cap" in err
    assert time.perf_counter() - start < 5.0
    assert not out.exists()


@pytest.mark.parametrize("mode, field, modes", [
    ("compare-oracle", "star_modes", 512),     # star table: 515 MiB
    ("simulate", "modes", 2000),               # chain table: 30,563 MiB
])
def test_oversized_occupation_table_fails_before_any_work(tmp_path, capsys,
                                                          mode, field, modes):
    doc = _shipped("lorentzian-desk.json")
    if field == "star_modes":
        doc["oracle"]["star_modes"] = modes
    else:
        doc["modes"] = modes
    doc["particle_cap"] = 2
    path = _write(tmp_path, doc)
    out = tmp_path / "o"
    start = time.perf_counter()
    code = cli.main([mode, "--config", path, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "occupation table" in err and "exceeds cap" in err
    assert time.perf_counter() - start < 5.0
    assert not (out / "trajectory.csv").exists()


def _ring_doc(modes):
    """Three qubits in a ZZ ring, one sigma_x jump into a desk bath per site."""
    zz = [[1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0],
          [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    doc = _base_doc(mode="certify", modes=modes, particle_cap=1)
    doc["system"] = {
        "n": 3, "d": 2,
        "hamiltonian": [{"support": [q, (q + 1) % 3], "matrix": {"re": zz},
                         "scale": 0.5} for q in range(3)],
        "jumps": [{"support": [q], "matrix": "sigma_x", "bath": q}
                  for q in range(3)],
        "initial": {"basis_state": 0},
    }
    doc["baths"] = doc["baths"] * 3
    return doc


def test_oversized_certify_refinement_fails_before_any_work(tmp_path, capsys):
    # base dim 2744; the cap-3 refinement has dim 4.7M, under STATE_CAP, but
    # its Hamiltonian would take gigabytes
    path = _write(tmp_path, _ring_doc(6))
    out = tmp_path / "o"
    start = time.perf_counter()
    code = cli.main(["certify", "--config", path, "--out", str(out)])
    assert code == 3
    assert "exceeds cap" in capsys.readouterr().err
    assert time.perf_counter() - start < 5.0
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("mode, out_step", [
    ("simulate", 1e-7),          # 2e7 rows at the base dim 90: 27 GiB
    ("certify", 4e-5),           # base 69 MiB fits; cap-4 dim 990: 755 MiB
    ("compare-oracle", 4e-5),    # star dim 4290: 3.2 GiB
])
def test_oversized_output_states_fail_before_any_allocation(
        tmp_path, capsys, monkeypatch, mode, out_step):
    # the (output times, dim) state array of every space the point needs is
    # sized in cli._space, before any run starts or any grid is built
    def no_run(*args, **kwargs):
        raise AssertionError("propagation started")

    monkeypatch.setattr(dyn, "evolve", no_run)
    monkeypatch.setattr(dyn, "output_times", no_run)
    doc = _shipped("lorentzian-desk.json")
    doc["out_step"] = out_step
    path = _write(tmp_path, doc)
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        code = cli.main([mode, "--config", path, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert "output states" in err and "exceed cap" in err
    assert peak < 16 * 2**20
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("mode", ["simulate", "certify", "compare-oracle"])
def test_oversized_reduced_states_fail_fast(tmp_path, capsys, mode):
    # an 11-qubit register (128 MiB of operators, under the cap) at 41
    # output rows: the (41, 2048, 2048) reduced states would take 2.6 GiB
    # and trajectory.csv gigabytes more, while the (41, dim) states fit
    doc = _shipped("lorentzian-desk.json")
    doc["system"]["n"] = 11
    doc.update(modes=1, particle_cap=1)
    path = _write(tmp_path, doc)
    out = tmp_path / "o"
    start = time.perf_counter()
    code = cli.main([mode, "--config", path, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "reduced states" in err and "exceed cap" in err
    assert time.perf_counter() - start < 1.0
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("mode", ["simulate", "certify"])
@pytest.mark.parametrize("name", ["lorentzian-desk.json", "driven-qubit.json"])
def test_huge_norm_time_product_is_exit_three(tmp_path, capsys, name, mode):
    # a system term of scale 1e6 gives theta_run near 1e6 t_final, far above
    # dyn.NORM_TIME_LIMIT: the run must refuse before its first step, where
    # it would otherwise run for hours
    doc = _shipped(name)
    doc["system"]["hamiltonian"][0]["scale"] = 1e6
    path = _write(tmp_path, doc)
    out = tmp_path / "o"
    start = time.perf_counter()
    code = cli.main([mode, "--config", path, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "norm-time product" in err and "limit 65536" in err
    assert "Traceback" not in err
    assert time.perf_counter() - start < 5.0
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("mode", ["simulate", "certify"])
@pytest.mark.parametrize("frequency", [math.inf, 1e6], ids=["Infinity", "1e6"])
def test_unbounded_drive_frequency_is_exit_three(tmp_path, capsys, frequency,
                                                 mode):
    # JSON's Infinity passes the parser and the schema; it and a frequency of
    # 1e6 put theta_run far above dyn.NORM_TIME_LIMIT through max_k |omega_k|:
    # the run must refuse before its first step, where it would otherwise end
    # in a math domain error or run for hours
    doc = _shipped("driven-qubit.json")
    doc["system"]["hamiltonian"][0]["profile"]["frequency"] = frequency
    path = _write(tmp_path, doc)
    out = tmp_path / "o"
    start = time.perf_counter()
    code = cli.main([mode, "--config", path, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "norm-time product" in err and "limit 65536" in err
    assert "Traceback" not in err
    assert time.perf_counter() - start < 5.0
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("mode", ["simulate", "certify"])
@pytest.mark.parametrize("field, value", [
    ("gamma", 1e160), ("gamma", 1e300), ("gamma", math.inf),
    ("omega", 1e155), ("omega", -1e200), ("omega", math.inf),
], ids=["1e160", "1e300", "Infinity",
        "omega-1e155", "omega--1e200", "omega-Infinity"])
def test_lorentzian_gamma_squared_overflow_is_exit_two(tmp_path, capsys,
                                                       field, value, mode):
    # the schema accepts any positive gamma and any center omega, but the
    # spectral density takes (w - omega)**2 + gamma**2, which overflows a
    # float above about 1.3e154: the config is refused at load instead of
    # ending in an OverflowError traceback or numpy overflow warnings
    doc = _shipped("lorentzian-desk.json")
    doc["baths"][0]["kernel"]["terms"][0][field] = value
    path = _write(tmp_path, doc)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([mode, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "at baths/0/kernel" in err and f"{field}**2" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("mode", ["simulate", "certify"])
def test_lorentzian_center_in_float_range_runs(tmp_path, mode):
    # a center far outside the cutoff whose square still fits a float runs
    doc = _shipped("lorentzian-desk.json")
    doc["baths"][0]["kernel"]["terms"][0]["omega"] = 1e150
    path = _write(tmp_path, doc)
    assert cli.main([mode, "--config", path, "--out", str(tmp_path / "o")]) == 0


# -- chain-map ---------------------------------------------------------------------

def test_chain_map_flat_kernel_matches_legendre(tmp_path):
    doc = _base_doc(mode="chain-map", cutoff_omega=1.0, modes=4)
    doc["baths"][0]["kernel"] = {
        "kind": "tabulated",
        "grid": {"start": -2.0, "stop": 2.0, "values": [1.0] * 129},
    }
    doc["mollifier"] = {"epsilon": 1e-4}
    doc["regularization"] = {"omega_max": 3.0, "n_points": 4097}
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["chain-map", "--config", path, "--out", str(out)]) == 0
    chains = json.loads((out / "chain.json").read_text())
    onsite = np.array(chains[0]["onsite"])
    hopping = np.array(chains[0]["hopping"])
    alphas = np.arange(1, 4)
    assert np.max(np.abs(onsite)) < 1e-8
    assert np.max(np.abs(hopping - alphas / np.sqrt(4.0 * alphas**2 - 1))) < 1e-6


# -- simulate ----------------------------------------------------------------------

def test_zero_coupling_matches_closed_system(tmp_path):
    doc = _base_doc()
    doc["system"]["jumps"][0]["scale"] = 0.0
    doc["system"]["initial"] = {"amplitudes": {"re": [0.6, 0.8]}}
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    idx = {h: i for i, h in enumerate(header)}
    for row in rows[1:]:
        vals = row.split(",")
        t = float(vals[idx["t"]])
        # rho_ee is constant under sigma_z alone
        assert float(vals[idx["rho_0_0_re"]]) == pytest.approx(0.36, abs=1e-10)
        # coherence precesses at the sigma_z splitting
        expected = 0.48 * complex(math.cos(t), -math.sin(t))
        got = complex(float(vals[idx["rho_0_1_re"]]),
                      float(vals[idx["rho_0_1_im"]]))
        assert got == pytest.approx(expected, abs=1e-10)


def test_csv_is_byte_reproducible(tmp_path):
    path = _write(tmp_path, _base_doc())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == \
        (out2 / "trajectory.csv").read_bytes()


def test_seventeen_digit_floats(tmp_path):
    path = _write(tmp_path, _base_doc())
    out = tmp_path / "out"
    cli.main(["simulate", "--config", path, "--out", str(out)])
    rows = (out / "trajectory.csv").read_text().strip().split("\n")
    cell = rows[1].split(",")[1]
    assert float(cell) == float(format(float(cell), ".17g"))


# -- certify ------------------------------------------------------------------------

def test_certify_budget_dominates_gaps(tmp_path):
    path = _write(tmp_path, _base_doc(mode="certify"))
    out = tmp_path / "out"
    assert cli.main(["certify", "--config", path, "--out", str(out)]) == 0
    budget = json.loads((out / "budget.json").read_text())
    assert budget["total"] == pytest.approx(
        sum(budget[k] for k in ("regularization", "cutoff", "chain",
                                "truncation", "initialization")))
    rows = (out / "report.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        kind, certified, measured = row.split(",")
        if kind != "total":
            assert float(certified) >= float(measured) - 1e-12
    total_row = rows[-1].split(",")
    assert float(total_row[1]) >= float(total_row[2])


def test_certify_maps_each_chain_once(tmp_path, monkeypatch):
    # the particle-cap refinement reuses the base chains; the cutoff and
    # modes refinements map their own, and the chain budget term reads the
    # measure the base chain kept instead of rerunning discretize + Lanczos
    calls = []
    star_to_chain = cli.chain_mod.star_to_chain
    refined_calls = []
    refined_jacobi = cli.chain_mod._refined_jacobi

    def counting(coupling, omega_c, modes):
        calls.append((omega_c, modes))
        return star_to_chain(coupling, omega_c, modes)

    def counting_refined(coupling, omega_c, n):
        refined_calls.append((omega_c, n))
        return refined_jacobi(coupling, omega_c, n)

    monkeypatch.setattr(cli.chain_mod, "star_to_chain", counting)
    monkeypatch.setattr(cli.chain_mod, "_refined_jacobi", counting_refined)
    assert cli.main(["certify", "--config",
                     os.path.join(CONFIGS, "lorentzian-desk.json"),
                     "--out", str(tmp_path / "out")]) == 0
    assert calls == [(3.0, 8), (6.0, 8), (3.0, 16)]
    assert refined_calls == calls


def test_certify_point_takes_one_svd_per_bath(tmp_path, monkeypatch):
    # the regularization term and the budget both read every bath's jump
    # norm; SystemModel takes each bath's SVD once and keeps it
    models, svds = [], []
    post_init = fock.SystemModel.__post_init__
    norm = np.linalg.norm

    def recording(self):
        post_init(self)
        models.append(self)

    def counting(x, ord=None, *args, **kwargs):
        if ord == 2 and any(x is op for model in models
                            for op in model.jump_operators.values()):
            svds.append(x)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(fock.SystemModel, "__post_init__", recording)
    monkeypatch.setattr(np.linalg, "norm", counting)
    doc = _base_doc(mode="certify")
    doc["system"]["jumps"].append(
        {"support": [0], "matrix": "sigma_z", "bath": 1})
    doc["baths"].append(doc["baths"][0])
    assert cli.main(["certify", "--config", _write(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == 0
    assert len(models) == 1 and len(svds) == 2
    assert svds[0] is not svds[1]


def test_single_photon_environment(tmp_path):
    doc = _base_doc()
    doc["baths"][0]["initial"] = {
        "type": "single_photon",
        "wavepacket": {"center": 0.0, "width": 0.5},
    }
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    first = rows[1].split(",")
    mu1 = float(first[header.index("mu1_0")])
    assert mu1 == pytest.approx(1.0, abs=1e-10)  # one photon prepared


def test_certify_single_photon_state_constants(tmp_path):
    doc = _base_doc(mode="certify", t_final=0.25)
    doc["baths"][0]["initial"] = {
        "type": "single_photon",
        "wavepacket": {"center": 0.0, "width": 0.5},
    }
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["certify", "--config", path, "--out", str(out)]) == 0
    budget = json.loads((out / "budget.json").read_text())
    # photon states carry nonzero regularization-slope constants
    assert budget["regularization"] > 0.0
    assert budget["initialization"] >= 0.0


def test_certify_single_photon_gaps_below_certificates(tmp_path):
    # the modes + 8 refinement starts from the padded base photon, so the
    # chain row measures the chain alone; the re-projection of the photon is
    # measured in the initialization row
    doc = _shipped("lorentzian-desk.json")
    doc["t_final"] = 0.5
    doc["baths"][0]["initial"] = {
        "type": "single_photon",
        "wavepacket": {"center": 0.0, "width": 0.5},
    }
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["certify", "--config", path, "--out", str(out)]) == 0
    rows = (out / "report.csv").read_text().strip().split("\n")
    assert rows[0] == "kind,certified,measured"
    measured = {}
    for row in rows[1:]:
        kind, certified, gap = row.split(",")
        assert float(certified) >= float(gap), kind
        measured[kind] = float(gap)
    assert measured["initialization"] > 0.0


def test_certify_truncation_uses_each_baths_moments(tmp_path):
    # a single photon enters the truncation certificate as its own
    # (mu1, mu2) = (1, 1), so the a-priori moment curves the certificate
    # integrates lie above the simulated moments at every output time
    doc = _base_doc(mode="certify", t_final=0.5, particle_cap=2)
    doc["baths"][0]["initial"] = {
        "type": "single_photon",
        "wavepacket": {"center": 0.0, "width": 0.5},
    }
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["certify", "--config", path, "--out", str(out)]) == 0
    g = json.loads((out / "chain.json").read_text())[0]["v_norm"]  # ||L|| = 1
    budget = json.loads((out / "budget.json").read_text())
    assert budget["truncation"] == pytest.approx(
        dyn.truncation_certificate(2, 0.5, [g], mu1_0=[1.0], mu2_0=[1.0]),
        rel=1e-12)
    rows = (out / "trajectory.csv").read_text().strip().split("\n")
    idx = {h: i for i, h in enumerate(rows[0].split(","))}
    for row in rows[1:]:
        vals = [float(x) for x in row.split(",")]
        t = vals[idx["t"]]
        assert vals[idx["mu1_0"]] <= dyn.apriori_mu1(g, t, 1.0) + 1e-12
        assert vals[idx["mu2_0"]] <= dyn.apriori_mu2(g, t, 1.0, 1.0) + 1e-12


def test_certify_coherent_state_unsupported(tmp_path, capsys):
    doc = _base_doc(mode="certify", t_final=0.25, particle_cap=3)
    doc["baths"][0]["initial"] = {
        "type": "coherent",
        "displacements": {"re": [0.2, 0.0, 0.0, 0.0]},
    }
    path = _write(tmp_path, doc)
    code = cli.main(["certify", "--config", path, "--out",
                     str(tmp_path / "o")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    # the regularization term is checked before any artifact is written
    assert not (tmp_path / "o" / "trajectory.csv").exists()


# -- compare-oracle -----------------------------------------------------------------

def test_compare_oracle_report(tmp_path):
    doc = _base_doc(mode="compare-oracle")
    doc["oracle"] = {"star_modes": 24}
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["compare-oracle", "--config", path, "--out", str(out)]) == 0
    rows = (out / "report.csv").read_text().strip().split("\n")
    assert rows[0] == "t,trace_distance"
    dists = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(d < 5e-3 for d in dists)
    oracle_rows = (out / "oracle-trajectory.csv").read_text().strip().split("\n")
    assert oracle_rows[1].split(",")[-1] == "1"  # oracle flag column


def _single_photon_oracle_doc(star_modes):
    doc = _base_doc(mode="compare-oracle")
    doc["baths"][0]["initial"] = {
        "type": "single_photon",
        "wavepacket": {"center": 0.0, "width": 0.5},
    }
    doc["oracle"] = {"star_modes": star_modes}
    return doc


def test_compare_oracle_single_star_mode_photon(tmp_path, capsys):
    path = _write(tmp_path, _single_photon_oracle_doc(1))
    out = tmp_path / "out"
    assert cli.main(["compare-oracle", "--config", path, "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "report.csv").exists()


def _far_photon_doc(center, width):
    doc = _shipped("lorentzian-desk.json")
    doc["t_final"] = 0.5
    doc["baths"][0]["initial"] = {
        "type": "single_photon",
        "wavepacket": {"center": center, "width": width},
    }
    return doc


@pytest.mark.parametrize("mode", ["simulate", "compare-oracle"])
def test_wavepacket_outside_cutoff_is_exit_three(tmp_path, capsys, mode):
    path = _write(tmp_path, _far_photon_doc(60.0, 0.5))
    out = tmp_path / "o"
    assert cli.main([mode, "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("bath 0" in err and "center 60" in err
            and "cutoff_omega 3" in err)
    assert not (out / "trajectory.csv").exists()


def test_star_wavepacket_outside_cutoff_fails_before_chain_run(
        tmp_path, monkeypatch, capsys):
    # the star nodes stop short of omega_c, so a narrow packet just beyond it
    # underflows on every node; the chain state is replaced by vacuum so that
    # only the star projection can refuse it, before anything is written
    monkeypatch.setattr(cli, "_env_states", lambda cfg, chains, couplings:
                        [cli.fock.InitialEnvState()])
    path = _write(tmp_path, _far_photon_doc(3.3, 0.01))
    out = tmp_path / "o"
    assert cli.main(["compare-oracle", "--config", path, "--out", str(out)]) == 3
    assert "no weight below" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_star_photon_amplitudes_need_no_grid_step():
    # the sqrt(dw) factor of a uniform star grid cancels in the normalization
    cfg = cli.ExperimentConfig.from_document(_single_photon_oracle_doc(64))
    couplings, _ = cli._regularized(cfg)
    stars = [orc.StarDiscretization.from_coupling(c, cfg.cutoff_omega, 64)
             for c in couplings]
    amps = cli._star_env_states(cfg, stars)[0].amplitudes
    w = stars[0].omegas
    ref = np.exp(-w**2 / (2.0 * 0.5**2)) * math.sqrt(w[1] - w[0])
    ref = ref / np.linalg.norm(ref)
    np.testing.assert_allclose(amps, ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("case", ["coherent", "driven"])
def test_compare_oracle_refuses_before_any_work(tmp_path, capsys, case):
    doc = _shipped("lorentzian-desk.json")
    if case == "coherent":
        doc["baths"][0]["initial"] = {
            "type": "coherent",
            "displacements": {"re": [0.2] + [0.0] * 7},
        }
    else:
        doc["system"]["hamiltonian"][0]["profile"] = {"type": "cos",
                                                      "frequency": 2.0}
    path = _write(tmp_path, doc)
    out = tmp_path / "o"
    code = cli.main(["compare-oracle", "--config", path, "--out", str(out)])
    assert code == 3
    assert "star oracle supports" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()
    assert not (out / "chain.json").exists()


def test_compare_oracle_shares_output_times(tmp_path):
    # 3 * 0.1 is 0.30000000000000004: both runs must record on one grid
    # ending at t_final, so their rows pair up by time
    doc = _base_doc(mode="compare-oracle", t_final=0.3, out_step=0.1)
    doc["oracle"] = {"star_modes": 24}
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["compare-oracle", "--config", path, "--out", str(out)]) == 0

    def times(name):
        rows = (out / name).read_text().strip().split("\n")[1:]
        return [r.split(",")[0] for r in rows]

    chain_t = times("trajectory.csv")
    assert chain_t == times("oracle-trajectory.csv") == times("report.csv")
    assert [float(t) for t in chain_t] == pytest.approx([0.0, 0.1, 0.2, 0.3])
    assert float(chain_t[-1]) == 0.3


# -- sweep --------------------------------------------------------------------------

def test_sweep_grid_rows(tmp_path):
    doc = _base_doc(mode="sweep")
    doc["sweep"] = {"particle_cap": [1, 2], "modes": [4, 6]}
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", path, "--out", str(out),
                     "--jobs", "2"]) == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 4
    header = rows[0].split(",")
    assert "cert_total" in header and "meas_truncation" in header
    # certified columns dominate measured ones on every row
    idx = {h: i for i, h in enumerate(header)}
    for row in rows[1:]:
        vals = row.split(",")
        for kind in ("truncation", "cutoff", "chain"):
            assert float(vals[idx[f"cert_{kind}"]]) >= \
                float(vals[idx[f"meas_{kind}"]]) - 1e-12


class _RecordingPool:
    """Runs a sweep's points in process, recording each pool's worker count
    instead of starting workers."""

    def __init__(self, max_workers, sizes):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, pools", [(500, [3]), (2, [2]), (1, [])])
def test_sweep_pool_has_at_most_one_worker_per_point(tmp_path, monkeypatch,
                                                     jobs, pools):
    sizes = []
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                        functools.partial(_RecordingPool, sizes=sizes))
    doc = _base_doc(mode="sweep", modes=2)
    doc["sweep"] = {"modes": [2, 3, 4]}
    assert cli.main(["sweep", "--config", _write(tmp_path, doc),
                     "--out", str(tmp_path / "out"), "--jobs", str(jobs)]) == 0
    assert sizes == pools


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_is_exit_two(tmp_path, capsys, jobs):
    doc = _base_doc(mode="sweep")
    doc["sweep"] = {"modes": [4, 6]}
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", _write(tmp_path, doc),
                     "--out", str(out), "--jobs", str(jobs)])
    assert code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_regularizes_once_per_epsilon(tmp_path, monkeypatch):
    calls = {"regularize": 0, "regularization_error_bound": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    doc = _base_doc(mode="sweep")
    doc["sweep"] = {"modes": [4, 6]}
    out = tmp_path / "out"
    counting(cli.ker, "regularize")
    counting(cli.dyn, "regularization_error_bound")
    assert cli.main(["sweep", "--config", _write(tmp_path, doc),
                     "--out", str(out)]) == 0
    assert calls == {"regularize": 1, "regularization_error_bound": 1}
    monkeypatch.undo()

    # each point on its own regularizes for itself; the bytes must not move
    rows = (out / "sweep.csv").read_text().split("\n")
    for k, modes in enumerate((4, 6)):
        tag = f"pt{k:04d}"
        single = _base_doc(mode="sweep")
        single["sweep"] = {"modes": [modes]}
        one = tmp_path / f"one-{modes}"
        assert cli.main(["sweep", "--config",
                         _write(tmp_path, single, f"one-{modes}.json"),
                         "--out", str(one)]) == 0
        one_rows = (one / "sweep.csv").read_text().split("\n")
        assert one_rows[0] == rows[0]
        assert one_rows[1].replace("pt0000", tag, 1) == rows[1 + k]
        # a plain certify run takes its couplings from no sweep at all
        cert = tmp_path / f"cert-{modes}"
        assert cli.main(["certify", "--config",
                         _write(tmp_path, _base_doc(modes=modes),
                                f"cert-{modes}.json"),
                         "--out", str(cert)]) == 0
        for name in ("budget.json", "chain.json", "report.csv",
                     "trajectory.csv"):
            stem, ext = name.split(".")
            assert (cert / name).read_bytes() == \
                (out / f"{stem}-{tag}.{ext}").read_bytes()


def test_sweep_without_axes_rejected(tmp_path, capsys):
    path = _write(tmp_path, _base_doc())
    code = cli.main(["sweep", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2


def test_sweep_document_without_axes_runs_other_modes(tmp_path):
    # the subcommand, not the document's mode, decides whether axes are needed
    doc = _shipped("lorentzian-desk.json")
    doc["mode"] = "sweep"
    doc.pop("sweep", None)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", _write(tmp_path, doc),
                     "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
