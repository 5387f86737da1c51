"""Correctness checks on one op's artifacts.

Every seed: the artifacts the subcommand must write exist and parse; on every
certify row each certified term is at least its measured gap; on
compare-oracle the largest chain-vs-star trace distance is below 5e-3
(acceptance criterion 8).  At seed 0 the artifacts are also compared with the
references under ``reference/<workload>/``, recorded with this benchmark:
``chain*.json`` and ``budget*.json`` within 1e-12 relative (ROADMAP item 2),
trajectory entries and measured gaps within 1e-8 absolute (ROADMAP item 3).
"""

from __future__ import annotations

import csv
import json
import math
import os

from workloads import WORKLOADS

ORACLE_TRACE_DISTANCE = 5e-3
REL_TOL = 1e-12
ABS_TOL = 1e-8
TEXT_COLUMNS = ("kind", "point")
_AXES = WORKLOADS["sweep-certify"]["doc"]["sweep"]
SWEEP_POINTS = len(_AXES["modes"]) * len(_AXES["particle_cap"])

REFERENCE_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference")


def required_artifacts(command: str):
    if command == "simulate":
        return ["chain.json", "trajectory.csv"]
    if command == "compare-oracle":
        return ["chain.json", "oracle-trajectory.csv", "report.csv",
                "trajectory.csv"]
    if command == "sweep":
        names = ["sweep.csv"]
        for idx in range(SWEEP_POINTS):
            names += [f"{kind}-pt{idx:04d}.{ext}" for kind, ext in
                      (("budget", "json"), ("chain", "json"),
                       ("report", "csv"), ("trajectory", "csv"))]
        return sorted(names)
    raise ValueError(f"no artifact list for {command!r}")


def read_csv(path):
    """(header, rows) with every cell a float except the text columns."""
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    header, rows = table[0], table[1:]
    if not rows:
        raise ValueError("no data rows")
    out = []
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row has {len(row)} cells, header {len(header)}")
        out.append([cell if col in TEXT_COLUMNS else float(cell)
                    for col, cell in zip(header, row)])
    return header, out


def read_artifact(path):
    if path.endswith(".json"):
        with open(path) as fh:
            return json.load(fh)
    return read_csv(path)


def _close_rel(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare_json(got, ref, where=""):
    """Problems where `got` differs from `ref` beyond REL_TOL.

    Number arrays are compared normwise (max difference over max reference
    magnitude), so entries at rounding level next to O(1) ones do not fail.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(ref):
            return [f"{where}: keys differ"]
        out = []
        for key in ref:
            out += compare_json(got[key], ref[key], f"{where}/{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length differs"]
        if ref and all(isinstance(x, (int, float)) for x in ref + got):
            scale = max(abs(x) for x in ref)
            worst = max(abs(a - b) for a, b in zip(got, ref))
            return [] if worst <= REL_TOL * scale else \
                [f"{where}: differs by {worst:.3e} (scale {scale:.3e})"]
        out = []
        for i, (a, b) in enumerate(zip(got, ref)):
            out += compare_json(a, b, f"{where}[{i}]")
        return out
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        return [] if _close_rel(got, ref) else \
            [f"{where}: {got!r} != {ref!r}"]
    return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]


def compare_csv(got, ref, where=""):
    """Certified columns within REL_TOL relative, all others ABS_TOL absolute."""
    (gh, grows), (rh, rrows) = got, ref
    if gh != rh or len(grows) != len(rrows):
        return [f"{where}: header or row count differs"]
    out = []
    for r, (grow, rrow) in enumerate(zip(grows, rrows)):
        for col, a, b in zip(rh, grow, rrow):
            if isinstance(b, str):
                ok = a == b
            elif col.startswith("cert"):
                ok = _close_rel(a, b)
            else:
                ok = abs(a - b) <= ABS_TOL
            if not ok:
                out.append(f"{where} row {r} {col}: {a!r} vs {b!r}")
    return out


def _certify_problems(name, header, rows):
    """Certified terms below their measured gaps, in report or sweep tables."""
    out = []
    if header == ["kind", "certified", "measured"]:
        for kind, cert, meas in rows:
            if not cert >= meas:
                out.append(f"{name} {kind}: certified {cert!r} < measured {meas!r}")
    elif name == "sweep.csv":
        for row in rows:
            cells = dict(zip(header, row))
            for term in ("truncation", "cutoff", "chain"):
                if not cells[f"cert_{term}"] >= cells[f"meas_{term}"]:
                    out.append(f"sweep.csv {cells['point']} {term}: certified "
                               f"below measured")
    return out


def check_op(workload: str, command: str, out_dir: str, seed: int):
    """(problems, certified_error) for one op's artifact directory.

    certified_error is the largest budget total over the op's certify points,
    or None when the op certifies nothing.
    """
    problems = []
    parsed = {}
    for name in required_artifacts(command):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name}: missing")
            continue
        try:
            parsed[name] = read_artifact(path)
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"{name}: does not parse ({exc})")

    certified = None
    for name, doc in parsed.items():
        if name.endswith(".csv"):
            problems += _certify_problems(name, *doc)
        if name.startswith("budget"):
            total = doc.get("total")
            if not isinstance(total, (int, float)) or not math.isfinite(total):
                problems.append(f"{name}: no finite total")
            else:
                certified = total if certified is None else max(certified, total)

    if command == "compare-oracle" and "report.csv" in parsed:
        header, rows = parsed["report.csv"]
        worst = max(row[header.index("trace_distance")] for row in rows)
        if not worst < ORACLE_TRACE_DISTANCE:
            problems.append(f"report.csv: chain-vs-star trace distance "
                            f"{worst:.3e} >= {ORACLE_TRACE_DISTANCE:.0e}")

    if seed == 0:
        problems += compare_reference(workload, parsed)
    return problems, certified


def compare_reference(workload: str, parsed, root=REFERENCE_ROOT):
    ref_dir = os.path.join(root, workload)
    if not os.path.isdir(ref_dir):
        return [f"no reference artifacts for {workload}"]
    problems = []
    for name in sorted(os.listdir(ref_dir)):
        if name not in parsed:
            problems.append(f"{name}: reference artifact not produced")
            continue
        ref = read_artifact(os.path.join(ref_dir, name))
        if name.endswith(".json"):
            problems += compare_json(parsed[name], ref, name)
        else:
            problems += compare_csv(parsed[name], ref, name)
    return problems
