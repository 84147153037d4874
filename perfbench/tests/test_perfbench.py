"""Tests of the benchmark itself: seeded inputs, span arithmetic, the gate."""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from diracbeams import cli  # noqa: E402

from perfbench import gate, tracing  # noqa: E402
from perfbench.run import run_request  # noqa: E402
from perfbench.workloads import WORKLOADS, rounds  # noqa: E402


def _argvs(workload, seed, n_rounds=8):
    return list(itertools.islice(rounds(workload, seed), n_rounds))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_the_argv_lists(workload):
    assert _argvs(workload, 7) == _argvs(workload, 7)
    assert _argvs(workload, 7) != _argvs(workload, 8)


def test_rounds_keep_the_mix_of_request_kinds():
    for rnd in _argvs("expect", 3, 20):
        assert [argv[0] for argv in rnd] == ["expect"] * 3 + ["sweep"]
    for rnd in _argvs("validate", 3, 20):
        assert sorted(map(tuple, rnd)) == (
            [("validate",)] + [("validate", "--quick")] * 3)


def test_self_time_on_a_synthetic_span_tree():
    # 0 [0, 10] -> 1 [1, 4] -> 2 [2, 3]; 0 -> 3 [5, 9]; 4 [11, 12] alone.
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    parent = np.array([-1, 0, 1, 0, -1])
    np.testing.assert_allclose(tracing.self_times(start, end, parent),
                               [3.0, 2.0, 1.0, 4.0, 1.0])


def test_traced_request_records_nested_layers_and_restores_functions():
    argv = ["profile", "--ell", "2", "--points", "50", "--format", "json"]
    original = cli.density_profile
    recorder = tracing.SpanRecorder()
    patches = tracing.install(recorder)
    try:
        rc, _, _ = run_request(cli, argv)
    finally:
        tracing.uninstall(patches)
    assert rc == 0 and cli.density_profile is original
    totals = tracing.layer_totals(recorder)
    assert totals["cli"]["spans"] == 1
    assert totals["beams"]["work"] == 50
    assert totals["bessel"]["entries"] == 1
    assert totals["bessel"]["work"] == 2 * 50
    assert totals["foldy"]["kernel_calls"] == 0
    cols = recorder.arrays()
    names = [recorder.names[k] for k in cols["name_id"]]
    assert names[0] == "cli.main" and cols["parent"][0] == -1
    assert all(cols["parent"][1:] >= 0)


def _first_request(workload, command):
    for rnd in rounds(workload, 11):
        for argv in rnd:
            if argv[0] == command:
                return argv
    raise AssertionError(command)


def _bump(out, *path):
    """Shift one number of an output by 1e-9: for CSV the second column of
    the last row, for JSON the item at ``path`` under "results"."""
    if not path:
        lines = out.rstrip("\n").split("\n")
        row = lines[-1].split(",")
        row[1] = repr(float(row[1]) + 1e-9)
        return "\n".join(lines[:-1] + [",".join(row)]) + "\n"
    doc = json.loads(out)
    holder = doc["results"]
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] += 1e-9
    return json.dumps(doc)


@pytest.mark.parametrize("workload, command, fmt, path", [
    ("profile", "profile", "csv", ()),
    ("profile", "profile", "json", ("rho", 7)),
    ("expect", "expect", "json", ("L_z_numeric",)),
    ("expect", "sweep", "csv", ()),
    ("expect", "sweep", "json", ("rows", -1, 5)),
])
def test_gate_fails_one_perturbed_value(workload, command, fmt, path):
    argv = [a for a in _first_request(workload, command) if a != "--pair"]
    argv[argv.index("--format") + 1] = fmt
    rc, _, out = run_request(cli, argv)
    assert gate.check(argv, rc, out) is None
    assert gate.check(argv, rc, _bump(out, *path)) is not None


def test_gate_fails_a_validate_run_with_an_injected_fault():
    argv = ["validate", "--quick", "--inject-fault", "1.5"]
    rc, _, out = run_request(cli, argv)
    assert rc == 2
    assert gate.check(argv, rc, out) is not None
    assert gate.check(argv, 0, out) is not None


def test_gate_reports_unparsable_output():
    argv = _first_request("expect", "expect")
    assert gate.check(argv, 0, "not json").startswith("unparsable")
