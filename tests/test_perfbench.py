"""The benchmark's output check, run as a test: one group of each
workload of ``perfbench/workloads.py`` for variant 0, checked against the
reference summaries recorded in ``perfbench/references.json`` (rtol 1e-7,
1e-2 for the oracle discrepancy), so a change that moves a summary fails
here and not only in a benchmark run.  The traced pass's targets in
``perfbench/spans.py`` all name what exists, so a deleted or renamed
function fails here and not only in a ``--trace 1`` run."""

import importlib
import importlib.util
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")


@pytest.mark.parametrize("target", spans.TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
def test_trace_target_resolves(target):
    """What ``spans.install`` wraps: a module attribute, or a method in
    its class's own ``__dict__``."""
    owner, attr = importlib.import_module(target[0]), target[1]
    if "." in attr:
        cls, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls)), attr
    else:
        assert hasattr(owner, attr), attr


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_group_matches_the_references(name, tmp_path):
    reference = workloads.load_references()[name]["0"]
    workload = workloads.make(name, 0, str(tmp_path))
    summaries = workload.check(workload.run_group(), reference)
    assert len(summaries) == len(reference) >= 1
