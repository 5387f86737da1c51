import json
import os

import pytest

import run
from nmk_sim.cli import ExperimentConfig
from workloads import WORKLOADS, make_config

BENCHMARK_JSON = os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")


def _sizes(cfg):
    return (cfg.mode, cfg.model.n, cfg.model.d, cfg.modes, cfg.particle_cap,
            cfg.t_final, cfg.out_step, cfg.star_modes, cfg.cutoff_omega,
            cfg.mollifier, cfg.sweep_axes)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_smoke_seed_0_and_1(workload):
    cmd0, doc0 = make_config(workload, 0)
    cmd1, doc1 = make_config(workload, 1)
    assert cmd0 == cmd1 == WORKLOADS[workload]["command"]
    assert doc0 == dict(WORKLOADS[workload]["doc"], seed=0)
    assert doc1 != doc0 and make_config(workload, 1) == (cmd1, doc1)
    cfg0 = ExperimentConfig.from_document(doc0)
    cfg1 = ExperimentConfig.from_document(doc1)
    assert _sizes(cfg0) == _sizes(cfg1)


def test_benchmark_json_matches_the_code():
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == run.PER_LAYER


def test_high_percentile_needs_ten_samples_beyond():
    assert run.high_percentile(list(range(19))) is None
    assert run.high_percentile(list(range(20)))[0] == 50
    assert run.high_percentile(list(range(100)))[0] == 90
