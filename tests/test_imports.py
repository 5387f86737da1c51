"""Start-up cost: modules with narrow users load only when a run needs them.

`scipy.integrate` serves only the tabulated total variation, `scipy.special`
nothing, `mpmath` only the arbitrary-precision flat-chain check, and
`scipy.sparse.linalg` only the Lindblad oracle, which no CLI mode runs.  Each
check runs in a fresh interpreter, since this test session imports them.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NARROW = ("scipy.integrate", "scipy.special", "mpmath",
          "scipy.sparse.linalg")


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


def _cli_run(mode, tmp_path):
    config = os.path.join(ROOT, "configs", "lorentzian-desk.json")
    return ("from nmk_sim import cli\n"
            f"assert cli.main([{mode!r}, '--config', {config!r}, "
            f"'--out', {str(tmp_path)!r}]) == 0")


def test_lorentzian_certify_loads_no_narrow_module(tmp_path):
    assert _loaded_after(_cli_run("certify", tmp_path)) == []


def test_compare_oracle_loads_no_narrow_module(tmp_path):
    # the star oracle propagates with the chain's Taylor exponential
    assert _loaded_after(_cli_run("compare-oracle", tmp_path)) == []
