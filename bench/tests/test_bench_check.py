import json
import os
import shutil

import pytest

import check

WORKLOADS = {"sweep-certify": "sweep", "oracle-star": "compare-oracle",
             "driven-cf4": "simulate", "fock-krylov": "simulate"}


def _copy_reference(tmp_path, workload):
    out = tmp_path / "out"
    shutil.copytree(os.path.join(check.REFERENCE_ROOT, workload), out)
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_passes_its_own_check(tmp_path, workload):
    out = _copy_reference(tmp_path, workload)
    problems, cert = check.check_op(workload, WORKLOADS[workload], str(out), 0)
    assert problems == []
    assert (cert is not None) == (workload == "sweep-certify")


def test_perturbed_chain_is_rejected(tmp_path):
    out = _copy_reference(tmp_path, "driven-cf4")
    path = out / "chain.json"
    doc = json.loads(path.read_text())
    doc[0]["hopping"][1] *= 1.0 + 1e-9
    path.write_text(json.dumps(doc))
    problems, _ = check.check_op("driven-cf4", "simulate", str(out), 0)
    assert any("chain.json" in p for p in problems)
    # other seeds are not compared with the seed-0 reference
    assert check.check_op("driven-cf4", "simulate", str(out), 1)[0] == []


def _edit_csv(path, row, col, fn):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_trajectory_tolerance_is_absolute_1e_8(tmp_path):
    out = _copy_reference(tmp_path, "fock-krylov")
    _edit_csv(out / "trajectory.csv", 5, 1, lambda x: x + 1e-10)
    assert check.check_op("fock-krylov", "simulate", str(out), 0)[0] == []
    _edit_csv(out / "trajectory.csv", 5, 1, lambda x: x + 1e-7)
    problems, _ = check.check_op("fock-krylov", "simulate", str(out), 0)
    assert any("trajectory.csv" in p for p in problems)


def test_budget_below_measured_gap_is_rejected(tmp_path):
    out = _copy_reference(tmp_path, "sweep-certify")
    # row 4 is the truncation term: certified, measured
    _edit_csv(out / "report-pt0001.csv", 4, 2, lambda x: 10.0)
    problems, _ = check.check_op("sweep-certify", "sweep", str(out), 3)
    assert any("certified" in p and "measured" in p for p in problems)


def test_oracle_distance_bound(tmp_path):
    out = _copy_reference(tmp_path, "oracle-star")
    _edit_csv(out / "report.csv", 3, 1, lambda x: 6e-3)
    problems, _ = check.check_op("oracle-star", "compare-oracle", str(out), 2)
    assert any("trace distance" in p for p in problems)


def test_missing_or_unparsable_artifact_is_rejected(tmp_path):
    out = _copy_reference(tmp_path, "oracle-star")
    (out / "report.csv").unlink()
    (out / "chain.json").write_text("{not json")
    problems, _ = check.check_op("oracle-star", "compare-oracle", str(out), 1)
    assert any("report.csv: missing" in p for p in problems)
    assert any("chain.json: does not parse" in p for p in problems)
