"""The benchmark under perfbench/ against the package's public API.

Builds each workload's set-up (write_config, load_config and
validate_assumptions for every model the benchmark runs) and installs
and removes its tracer, so that a renamed or deleted public name fails
here before it fails the benchmark.
"""

import os

import pytest

import gfdlab

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans
    import workloads
    return workloads, spans


def test_workload_setup(perfbench, tmp_path):
    workloads, _ = perfbench
    assert sorted(workloads.WORKLOADS) == ["logramp-sweep", "mc-paths",
                                           "solver-ladder"]
    for name, workload in workloads.WORKLOADS.items():
        work_dir = tmp_path / name
        work_dir.mkdir()
        assert workload(gfdlab, str(work_dir), 0).setup_failures == []


def test_tracer_installs_and_restores(perfbench):
    _, spans = perfbench
    before = (gfdlab.load_config, gfdlab.cli.principal_eigenpair,
              gfdlab.JumpSampler.event)
    tracer = spans.Tracer()
    tracer.install(gfdlab)
    assert gfdlab.load_config is not before[0]
    tracer.uninstall()
    assert (gfdlab.load_config, gfdlab.cli.principal_eigenpair,
            gfdlab.JumpSampler.event) == before
