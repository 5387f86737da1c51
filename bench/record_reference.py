"""Record the seed-0 reference artifacts that check.py compares against.

Usage, from the root of a checkout:  python3 bench/record_reference.py [WORKLOAD...]

Each workload's seed-0 config is run once, with the same child and thread
settings as the benchmark, straight into ``bench/reference/<workload>/``.
Re-record only when a change is meant to alter the outputs, and say so.
"""

import json
import os
import shutil
import subprocess
import sys
import time

from run import BENCH_DIR, THREAD_VARS
from check import REFERENCE_ROOT
from workloads import WORKLOADS, make_config


def record(root, workload):
    command, doc = make_config(workload, 0)
    scratch = os.path.join(root, ".bench_out", f"reference-{workload}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    config = os.path.join(scratch, "config.json")
    with open(config, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    ref_dir = os.path.join(REFERENCE_ROOT, workload)
    shutil.rmtree(ref_dir, ignore_errors=True)
    env = dict(os.environ, NMK_SIM_LOG="WARNING",
               **{var: "1" for var in THREAD_VARS})
    subprocess.run(
        [sys.executable, "-E", "-s", os.path.join(BENCH_DIR, "child.py"),
         os.path.join(root, "src"), os.path.join(scratch, "result.json"),
         repr(time.monotonic()), "0", "reference", "--", command,
         "--config", config, "--out", ref_dir, "--jobs", "1"],
        cwd=root, env=env, check=True)
    print(f"{workload}: {sorted(os.listdir(ref_dir))}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        record(os.getcwd(), name)
