"""The benchmark's output check, run as a test: one group of each
workload of ``perfbench/workloads.py`` for variant 0, checked against the
reference summaries recorded in ``perfbench/references.json`` (rtol 1e-7,
1e-2 for the oracle discrepancy), so a change that moves a summary fails
here and not only in a benchmark run."""

import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PATH)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_group_matches_the_references(name, tmp_path):
    reference = workloads.load_references()[name]["0"]
    workload = workloads.make(name, 0, str(tmp_path))
    summaries = workload.check(workload.run_group(), reference)
    assert len(summaries) == len(reference) >= 1
