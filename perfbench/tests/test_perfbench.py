"""Self-check of the benchmark at tiny n: every metric BENCHMARK.json names
is emitted with its unit, and the output check rejects perturbed results.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {name: replace(w, n=8, steps=min(w.steps, 2),
                      samples=min(w.samples, 4), probe_steps=1)
        for name, w in bench.WORKLOADS.items()}


@pytest.fixture
def out_dir(monkeypatch, tmp_path):
    # run.main pins these; monkeypatch restores them afterwards
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setenv("PLATETX_OUT", str(tmp_path))
    monkeypatch.setattr(sys, "path", list(sys.path))
    return tmp_path


@pytest.fixture
def tiny(monkeypatch, out_dir):
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    monkeypatch.setattr(bench, "REFERENCE_PATH",
                        str(out_dir / "reference.json"))
    assert run.main(["--write-reference"]) == 0


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_metric_emitted_with_its_unit(tiny, capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: m["unit"] for k, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _perturbed(w, values):
    values = dict(values)
    if w.kind == "simulate":
        values["residual_max_rel"] = 2.0 * values["residual_bound_rel"]
    elif w.kind == "difference":
        values["balance_cum_rel"] = 10.0 * bench.BALANCE_BOUND
    else:
        values["rows"] = values["rows"].copy()
        values["rows"][1, 3] = np.nan
    return values


@pytest.mark.parametrize("name", list(TINY))
def test_output_check_rejects_perturbed_result(out_dir, name):
    w = TINY[name]
    ctx, _ = bench.setup(w)
    outcome = bench.run_unit(w, ctx, bench.REFERENCE_SEED)
    assert outcome.failed == 0 and not outcome.problems
    assert bench.check(w, _perturbed(w, outcome.values))

    reference = {name: bench.make_reference(w, ctx, rtol=1e-9)}
    assert not bench.compare_reference(w, outcome.values, reference)
    values = reference[name]["values"]
    key = next(iter(values))
    values[key] = (np.asarray(values[key]) * (1.0 + 1e-6)).tolist()
    assert bench.compare_reference(w, outcome.values, reference)
