"""Start-up cost: modules with narrow users load only when a run needs them.

`scipy.integrate` serves only the tabulated total variation, `scipy.special`
nothing, `mpmath` only the arbitrary-precision flat-chain check, and
`scipy.sparse` with `scipy.sparse.linalg` only the Lindblad oracle, which no
CLI mode runs, and the tests, where scipy's sparse matrices are the
reference: every Hamiltonian is built and multiplied by scipy's compiled CSR
kernels, which `nmk_sim.csr` loads by file path without running `scipy`'s
package `__init__`, so `scipy.sparse._sparsetools` is the only scipy module a
CLI process holds.  `logging` serves no CLI process: `cli.run` prints its two
progress lines itself.  `scipy.linalg`,
`numpy.polynomial` and `jsonschema` serve no CLI process at all: both
Gauss-Legendre rules are shipped constants, the chain's tridiagonal
eigenproblems go to numpy, and `nmk_sim.validator` checks configs against
`schema.json` (jsonschema is only the tests' reference).
`concurrent.futures` serves only a sweep with more than one job.  Each check
runs in a fresh interpreter, since this test session imports them.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NARROW = ("scipy", "scipy.integrate", "scipy.special", "mpmath",
          "scipy.sparse", "scipy.sparse.linalg", "scipy.linalg", "jsonschema",
          "concurrent.futures", "numpy.polynomial", "logging")
CONFIGS = sorted(os.listdir(os.path.join(ROOT, "configs")))
# the runs that do not exit 0: sweep needs sweep axes, and the star oracle
# takes constant system profiles only
EXIT_CODES = {("sweep", "driven-qubit.json"): 2,
              ("sweep", "feedback-delay.json"): 2,
              ("sweep", "lorentzian-desk.json"): 2,
              ("compare-oracle", "driven-qubit.json"): 3}


def _loaded_after(code):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = (f"import json, sys\n{code}\n"
             f"print(json.dumps([m for m in {NARROW!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_narrow_module():
    assert _loaded_after("import nmk_sim.cli") == []


def _cli_run(mode, tmp_path, config="lorentzian-desk.json"):
    config = os.path.join(ROOT, "configs", config)
    return ("from nmk_sim import cli\n"
            f"assert cli.main([{mode!r}, '--config', {config!r}, "
            f"'--out', {str(tmp_path)!r}]) == 0")


def test_lorentzian_certify_loads_no_narrow_module(tmp_path):
    # certify's chain term solves its eigenproblems with numpy
    assert _loaded_after(_cli_run("certify", tmp_path)) == []


def test_compare_oracle_loads_no_narrow_module(tmp_path):
    # the star oracle propagates with the chain's Taylor exponential
    assert _loaded_after(_cli_run("compare-oracle", tmp_path)) == []


@pytest.mark.parametrize("mode, config", [
    ("simulate", "driven-qubit.json"),
    ("chain-map", "lorentzian-desk.json"),
    ("compare-oracle", "feedback-delay.json"),
    ("sweep", "convergence-sweep.json"),
])
def test_subcommand_loads_no_narrow_module(mode, config, tmp_path):
    assert _loaded_after(_cli_run(mode, tmp_path, config)) == []


@pytest.mark.parametrize("config", CONFIGS)
def test_every_subcommand_of_a_shipped_config_loads_no_narrow_module(
        config, tmp_path):
    path = os.path.join(ROOT, "configs", config)
    code = "from nmk_sim import cli\n" + "".join(
        f"assert cli.main([{mode!r}, '--config', {path!r}, '--out', "
        f"{str(tmp_path / mode)!r}]) == {EXIT_CODES.get((mode, config), 0)}\n"
        for mode in ("chain-map", "simulate", "certify", "compare-oracle",
                     "sweep"))
    assert _loaded_after(code) == []
