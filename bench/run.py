"""nmk-sim benchmark: the CLI run as a closed loop of fresh processes.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One parent process starts one child interpreter per op, one at a time (a
closed loop with a single client).  Each child imports ``nmk_sim.cli`` from
the checkout's ``src`` and calls ``main`` on the config the seeded generator
wrote for this workload (see workloads.py).  The first op is a warm-up and is
not timed; ops then start until ``--seconds`` of measuring are used up.  Every
op's artifacts are checked (see check.py); an op fails when it exits nonzero,
an artifact is missing or does not parse, or a check fails.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, each
the median over the measured ops.  With ``--trace 1`` ops alternate between
untraced and traced; traced ops wrap every layer binding (see spans.py) and
the line reports the per-layer metrics, medians over the traced ops, plus the
tracing overhead against the untraced ops of the same run.  Every child runs
with one BLAS/OpenMP thread.  Per-op records and the environment go to
``.bench_out/<workload>-seed<seed>-trace<trace>/results.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import check
import spans
from workloads import WORKLOADS, make_config

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_BUDGET_S = 120.0    # no op starts later than this into a run, and a
KILL_AT_S = 170.0       # stuck one is killed here, so a run ends within 180 s
MIN_MEASURED = 3        # untraced ops per run even if they overrun --seconds;
                        # a traced run needs one untraced and one traced op

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("certified_error", "1")]

_BUDGET_TERMS = ("assemble_error_budget", "chain_error_bound",
                 "truncation_certificate", "regularization_error_bound",
                 "cutoff_error_bound")

PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in spans.LAYERS]
    + [("kernels.choose_grid.s", "s"), ("kernels.regularize.s", "s"),
       ("kernels.weight.calls", "count"), ("kernels.weight.s", "s"),
       ("chain.star_to_chain.calls", "count"), ("chain.star_to_chain.s", "s"),
       ("chain.chain_error_single.calls", "count"),
       ("chain.chain_error_single.s", "s"), ("chain.rebuild_ratio", "1"),
       ("fock.enumerate_basis.s", "s"),
       ("fock.build_hamiltonian_parts.calls", "count"),
       ("fock.build_hamiltonian_parts.s", "s"),
       ("fock.dim.max", "count"), ("fock.nnz.max", "count"),
       ("fock.h_bytes.max", "bytes"),
       ("dynamics.evolve.calls", "count"), ("dynamics.evolve.self_s", "s"),
       ("dynamics.expm_multiply.calls", "count"),
       ("dynamics.expm_multiply.s", "s"),
       ("dynamics.eigh.calls", "count"), ("dynamics.eigh.s", "s")]
    + [(f"dynamics.{term}.s", "s") for term in _BUDGET_TERMS]
    + [("dynamics.validate.s", "s"),
       ("oracle.from_coupling.s", "s"), ("oracle.star_evolve.s", "s"),
       ("oracle.star_hamiltonian.s", "s"),
       ("cli.config.s", "s"), ("cli.trajectory_csv.s", "s"),
       ("cli.bytes_written", "bytes"),
       ("trace.overhead", "1"), ("trace.unspanned_s", "s")]
)


def layer_metrics(trace_doc, wall_s, sizes, bytes_written):
    """Per-layer metrics of one traced op (all but trace.overhead)."""
    sp = spans.load(trace_doc)
    selfs = spans.self_times(sp)
    out = {f"{layer}.self_s": secs
           for layer, secs in spans.layer_self(sp, selfs).items()}

    def timed(metric, name, calls=False):
        n, secs = spans.total(sp, name)
        out[f"{metric}.s"] = secs
        if calls:
            out[f"{metric}.calls"] = n

    timed("kernels.choose_grid", "kernels.choose_grid")
    timed("kernels.regularize", "kernels.regularize")
    timed("kernels.weight", "kernels.RegularizedCoupling.weight", calls=True)
    timed("chain.star_to_chain", "chain.star_to_chain", calls=True)
    timed("chain.chain_error_single", "chain.chain_error_single", calls=True)
    keys = [tuple(k) for k in trace_doc["keys"].get("chain._refined_jacobi", [])]
    out["chain.rebuild_ratio"] = len(keys) / len(set(keys)) if keys else 0.0
    timed("fock.enumerate_basis", "fock.enumerate_basis")
    timed("fock.build_hamiltonian_parts", "fock.build_hamiltonian_parts",
          calls=True)
    out["fock.dim.max"] = sizes.get("dim", 0)
    out["fock.nnz.max"] = sizes.get("nnz", 0)
    out["fock.h_bytes.max"] = sizes.get("h_bytes", 0)
    out["dynamics.evolve.calls"] = sum(s.name == "dynamics.evolve" for s in sp)
    out["dynamics.evolve.self_s"] = sum(
        st for s, st in zip(sp, selfs) if s.name == "dynamics.evolve")
    timed("dynamics.expm_multiply", "dynamics.expm_multiply", calls=True)
    timed("dynamics.eigh", "dynamics.eigh", calls=True)
    for term in _BUDGET_TERMS:
        timed(f"dynamics.{term}", f"dynamics.{term}")
    timed("dynamics.validate", "dynamics.Trajectory.validate")
    timed("oracle.from_coupling", "oracle.StarDiscretization.from_coupling")
    timed("oracle.star_evolve", "oracle.star_evolve")
    out["oracle.star_hamiltonian.s"] = spans.minus_children(
        sp, "oracle.star_evolve",
        {"dynamics._propagate_const", "dynamics._collect"})
    timed("cli.config", "cli.ExperimentConfig.from_path")
    timed("cli.trajectory_csv", "cli.trajectory_csv")
    out["cli.bytes_written"] = bytes_written
    out["trace.unspanned_s"] = spans.unspanned(sp, wall_s)
    return out


def environment(root, seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "nmk_sim")
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".json")):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "openblas_configuration": blas.get("openblas configuration")},
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Runner:
    """Runs and checks ops of one workload inside one output directory."""

    def __init__(self, root, workload, seed, out_root):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.out_root = out_root
        self.command, doc = make_config(workload, seed)
        self.config_path = os.path.join(out_root, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        self.env = dict(os.environ, NMK_SIM_LOG="WARNING",
                        TMPDIR=os.path.join(out_root, "tmp"),
                        **{var: "1" for var in THREAD_VARS})
        os.makedirs(self.env["TMPDIR"], exist_ok=True)
        self.count = 0

    def op(self, role, traced, kill_at):
        """Start one child, wait for it, check its artifacts; one record."""
        op_id = f"op{self.count:03d}"
        self.count += 1
        op_dir = os.path.join(self.out_root, op_id)
        out_dir = os.path.join(op_dir, "out")
        os.makedirs(op_dir)
        result_path = os.path.join(op_dir, "result.json")
        cli_args = [self.command, "--config", self.config_path,
                    "--out", out_dir, "--jobs", "1"]
        record = {"op": op_id, "role": role, "traced": traced, "problems": []}
        with open(os.path.join(op_dir, "stdout.txt"), "w") as fo, \
                open(os.path.join(op_dir, "stderr.txt"), "w") as fe:
            spawn = repr(time.monotonic())
            proc = subprocess.Popen(
                [sys.executable, "-E", "-s", CHILD, os.path.join(self.root, "src"),
                 result_path, spawn, "1" if traced else "0", op_id, "--",
                 *cli_args],
                cwd=self.root, env=self.env, stdout=fo, stderr=fe)
            status, usage = _wait(proc, kill_at - time.monotonic())
        record["exit_status"] = status
        record["cpu_s"] = usage.ru_utime + usage.ru_stime
        record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        if status != 0:
            record["problems"].append(f"exit status {status}")
        if os.path.exists(result_path):
            with open(result_path) as fh:
                result = json.load(fh)
            record.update(setup_s=result["setup_s"], wall_s=result["wall_s"],
                          sizes=result["sizes"])
            if status == 0:
                problems, cert = check.check_op(self.workload, self.command,
                                                out_dir, self.seed)
                record["problems"] += problems
                # 1 is the trivial bound on a trace distance: an op that
                # certifies nothing claims no tighter error than that.
                record["certified_error"] = 1.0 if cert is None else cert
            record["bytes_written"] = _tree_bytes(out_dir)
            if traced and "trace" in result:
                lm = layer_metrics(result["trace"], result["wall_s"],
                                   result["sizes"], record["bytes_written"])
                closure = sum(lm[f"{layer}.self_s"] for layer in spans.LAYERS) \
                    + lm["trace.unspanned_s"] - result["wall_s"]
                if abs(closure) > 1e-6:
                    record["problems"].append(
                        f"layer self times miss the wall time by {closure:.3e} s")
                record["layers"] = lm
        elif status == 0:
            record["problems"].append("child wrote no result")
        if not record["problems"]:
            shutil.rmtree(out_dir, ignore_errors=True)
        return record


def _wait(proc, timeout):
    """Reap the child with its own rusage; kill it after `timeout` seconds.

    The child is also killed and reaped when this process is interrupted or
    terminated while waiting, so no op outlives the benchmark.
    """
    limit = time.monotonic() + max(timeout, 1.0)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > limit:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _tree_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def high_percentile(values):
    """(p, value) for the highest percentile with >= 10 samples beyond it."""
    best = None
    ordered = sorted(values)
    for p in (50, 90, 99, 99.9):
        if len(ordered) * (100.0 - p) >= 1000.0 - 1e-9:
            rank = min(len(ordered) - 1, int(len(ordered) * p / 100.0))
            best = (p, ordered[rank])
    return best


def run(workload, seed, seconds, trace, root):
    out_root = os.path.join(root, ".bench_out",
                            f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    started = time.monotonic()
    kill_at = started + KILL_AT_S
    runner = Runner(root, workload, seed, out_root)
    records = [runner.op("warmup", False, kill_at)]

    measured = []
    t0 = time.monotonic()
    while time.monotonic() < started + RUN_BUDGET_S:
        traced = bool(trace) and len(measured) % 2 == 1
        measured.append(runner.op("measured", traced, kill_at))
        elapsed = time.monotonic() - t0
        typical = statistics.median(
            r.get("wall_s", 0.0) + r.get("setup_s", 0.0) for r in measured)
        enough = len(measured) >= (2 if trace else MIN_MEASURED)
        if enough and elapsed + typical > seconds:
            break
    records += measured

    failed = sum(1 for r in records if r["problems"])
    env = environment(root, seed)
    untraced = [r for r in measured if not r["traced"] and "wall_s" in r]
    traced_ops = [r for r in measured if r.get("layers")]
    if trace:
        names = PER_LAYER
        samples = {name: [r["layers"][name] for r in traced_ops]
                   for name, _ in PER_LAYER if name != "trace.overhead"}
    else:
        names = END_TO_END
        samples = {name: [r[name] for r in untraced if name in r]
                   for name, _ in END_TO_END}
    metrics = {name: {"value": _median(samples.get(name, [])), "unit": unit}
               for name, unit in names}
    if trace:
        base = _median([r["wall_s"] for r in untraced])
        with_trace = _median([r["wall_s"] for r in traced_ops])
        metrics["trace.overhead"]["value"] = \
            with_trace / base - 1.0 if base else 0.0

    with open(os.path.join(out_root, "results.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "environment": env, "metrics": metrics,
                   "ops": records}, fh, indent=1, sort_keys=True)

    _print_summary(workload, seed, trace, env, records, metrics, samples,
                   failed)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _print_summary(workload, seed, trace, env, records, metrics, samples,
                   failed):
    print(f"# nmk-sim benchmark  workload={workload}  seed={seed}  "
          f"trace={trace}  ops: 1 warm-up + {len(records) - 1} measured, "
          f"{failed} failed")
    print(f"# env  nproc={env['nproc']}  python={env['python']}  "
          f"numpy={env['numpy']}  scipy={env['scipy']}  "
          f"blas={env['blas']['name']} {env['blas']['version']}  "
          f"blas_threads=1  commit={env['git_commit']}  "
          f"src_sha256={env['source_sha256'][:12]}")
    dims = sorted({(r.get("sizes", {}).get("dim"), r.get("sizes", {}).get("nnz"))
                   for r in records})
    print(f"# fock (dim.max, nnz.max) per op: {dims}")
    print(f"# {'metric':36s} {'median':>12s} {'unit':5s} {'n':>3s} "
          f"{'q1':>12s} {'q3':>12s}  high percentile")
    for name, m in metrics.items():
        values = samples.get(name, [])
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (m["value"],) * 3
        hp = high_percentile(values)
        hp_text = f"p{hp[0]:g}={hp[1]:.6g}" if hp else "none (n < 20)"
        print(f"# {name:36s} {m['value']:12.6g} {m['unit']:5s} "
              f"{len(values):3d} {q1:12.6g} {q3:12.6g}  {hp_text}")
    print(f"# {'fail_ratio':36s} {failed / len(records):12.6g} {'1':5s} "
          f"{len(records):3d}  (failed / attempted ops, warm-up included)")
    for r in records:
        for problem in r["problems"]:
            print(f"# FAIL {r['op']}: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so the running op is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nmk_sim", "cli.py")):
        print("bench/run.py: run from the root of an nmk-sim checkout "
              "(src/nmk_sim/cli.py not found)", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run(args.workload, args.seed, args.seconds, args.trace, root)


if __name__ == "__main__":
    sys.exit(main())
