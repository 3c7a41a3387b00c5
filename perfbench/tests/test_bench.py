"""Tests of the benchmark itself: names, hygiene, failure accounting, checks.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
(The repository's own suite collects only ``tests/``, so these stay out of
it.)  The module runs the benchmark in subprocesses for about a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from check import (  # noqa: E402
    PROBE_VALUES,
    REFERENCE,
    check_probes,
    compare_file,
)
from run import Op, child_env, end_to_end, run_op, tally  # noqa: E402
from workloads import (  # noqa: E402
    GATE_FAILURE_SEED,
    GENERAL_SWEEP,
    HELD_OUT_SEED,
    PROGRAM_SEEDS,
    WORKLOADS,
    Workload,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# ROADMAP item 5: a sparse network with one realization leaves the core
# window empty, and `simulate` exits 1 with a traceback.  A fixture, never
# a workload.
EMPTY_CORE = Workload(
    name="empty-core-fixture",
    why="confirmed crash: no measurement links in the core window",
    command="simulate",
    config="[params]\nlambda_bs = 0.01 /km2\n[sim]\nn_realizations = 1\n",
    outputs=("simulate.csv",),
)


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results() -> dict:
    """Last output line of a one-second run per workload and trace mode."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
    return out


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}


def test_names_are_well_formed():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(results, trace, section):
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in WORKLOADS:
        result = results[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {n: m["unit"] for n, m in result["metrics"].items()}
        assert printed == declared, workload


def test_end_to_end_metrics_are_never_zero(results):
    for workload in WORKLOADS:
        assert all(m["value"] > 0
                   for m in results[workload, 0]["metrics"].values())


def test_traced_layers_follow_the_workloads(results):
    ref, mc = ({n: m["value"] for n, m in results[w, 1]["metrics"].items()}
               for w in ("sweep-ref", "validate-mc"))
    assert ref["montecarlo.run_campaign.calls"] == 0
    assert ref["montecarlo.sample_realization.calls"] == 0
    assert (ref["sweep.grid_points"], ref["sweep.crossings"]) == (101, 2)
    assert ref["sweep.offgrid_evals"] == 71
    assert ref["specfun.hyp2f1_special.calls"] == 0
    assert mc["specfun.hyp2f1_special.calls"] == 0
    assert mc["sweep.sweep_alpha.calls"] == mc["sweep.offgrid_evals"] == 0
    assert mc["montecarlo.sample_realization.calls"] == 300
    assert mc["wnv_ul"] > 0 and mc["wnv_dl"] > 0
    for layers in (ref, mc):
        assert layers["trace.overhead_s"] != 0
        # validate --seed 2 ran in both traced runs, whatever the workload
        assert layers["montecarlo.gate_seed2_gap_dl"] > 0


def test_general_sweep_fixture(tmp_path):
    op = run_op(ROOT, tmp_path, GENERAL_SWEEP, None, trace=True)
    assert not op.failed, op.problems
    layers = op.record["layers"]
    assert (layers["sweep.grid_points"], layers["sweep.crossings"]) == (11, 4)
    assert layers["sweep.offgrid_evals"] == 80
    assert layers["specfun.hyp2f1_special.args"] > 0
    assert layers["montecarlo.run_campaign.calls"] == 0


def test_spans_rebind_imports_and_report_deleted_names():
    code = (
        "import alphaduplex.cli\n"
        "from alphaduplex import analytic, sweep\n"
        "del analytic.ber_uplink_eta4\n"
        "from spans import Tracer\n"
        "t = Tracer()\n"
        "t.install()\n"
        "fn = sweep.ber_downlink_eta4\n"
        "print(fn is analytic.ber_downlink_eta4, hasattr(fn, '__wrapped__'),\n"
        "      t.absent, t.metrics()['analytic.ber_uplink_eta4.calls'])\n")
    env = child_env(ROOT)
    env["PYTHONPATH"] += os.pathsep + str(BENCH)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["True", "True",
                                   "['analytic.ber_uplink_eta4']", "0"], \
        proc.stderr


def test_child_env_unsets_workers_and_pins_threads(monkeypatch):
    monkeypatch.setenv("ALPHADUPLEX_WORKERS", "4")
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    env = child_env(ROOT)
    assert "ALPHADUPLEX_WORKERS" not in env
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert env[key] == "1"
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_child_sees_the_pinned_env(monkeypatch, tmp_path):
    monkeypatch.setenv("ALPHADUPLEX_WORKERS", "4")
    factors = Workload(name="factors-fixture", why="", command="factors",
                       config="", args=("--alpha-grid", "0:1:0.5"))
    op = run_op(ROOT, tmp_path, factors, None, trace=False)
    assert op.rc == 0 and not op.failed
    env = op.record["env"]
    assert env["ALPHADUPLEX_WORKERS"] is None
    assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] == "1"


def test_crash_is_counted_as_failed_operation(tmp_path):
    op = run_op(ROOT, tmp_path, EMPTY_CORE, None, trace=False)
    assert op.rc == 1 and op.record is None and op.failed
    assert any("no measurement links" in p for p in op.problems)
    assert tally([op]) == (1, 1)


def test_run_reports_a_workload_that_always_crashes(monkeypatch, capsys):
    monkeypatch.setattr(run, "WORKLOADS", {EMPTY_CORE.name: EMPTY_CORE})
    rc = run.main(["--workload", EMPTY_CORE.name, "--seed", "1",
                   "--seconds", "0.1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False and result["metrics"] == {}
    assert result["failed"] == result["attempted"] >= 1


def test_validate_gate_failure_is_counted(tmp_path):
    # why seed 2 is not among the benchmark's program seeds
    assert GATE_FAILURE_SEED not in PROGRAM_SEEDS
    op = run_op(ROOT, tmp_path, WORKLOADS["validate-mc"], GATE_FAILURE_SEED,
                trace=False)
    assert op.rc == 3 and op.failed
    assert tally([op]) == (1, 1)


@pytest.mark.parametrize("seed,trace", [(PROGRAM_SEEDS[0], False),
                                        (HELD_OUT_SEED, True)])
def test_default_and_held_out_seeds_pass(tmp_path, seed, trace):
    op = run_op(ROOT, tmp_path, WORKLOADS["validate-mc"], seed, trace=trace)
    assert not op.failed, op.problems
    assert tally([op]) == (1, 0)
    assert end_to_end([op])["run_s"] > 0


def test_wrong_output_operations_still_count():
    record = {"t_spawn": 0.0, "t_import": 0.1, "t_imported": 0.5,
              "t_main": 0.5, "t_done": 1.5, "maxrss_kb": 1024}
    wrong = Op(rc=0, wall_s=1.6, record=record,
               problems=["sweep.csv: ber_ul@3 = 0.2, reference 0.1"])
    assert wrong.failed
    assert tally([wrong]) == (1, 1)
    # when nothing passed, the timings of completed operations still show
    assert end_to_end([wrong])["run_s"] == 1.0


def _perturb(src: Path, dest: Path, old: str, new: str) -> Path:
    text = src.read_text()
    assert old in text
    dest.write_text(text.replace(old, new, 1))
    return dest


def test_references_match_themselves():
    for ref in REFERENCE.rglob("*"):
        if ref.suffix in (".csv", ".txt"):
            assert compare_file(ref, ref) == [], ref


def test_perturbed_outputs_fail_the_check(tmp_path):
    ref = REFERENCE / "sweep-general" / "sweep.csv"
    row = ref.read_text().splitlines()[3].split(",")
    ber = float(row[4])
    out = tmp_path / "sweep.csv"
    _perturb(ref, out, row[4], f"{ber * (1 + 1e-6):.12g}")
    assert compare_file(out, ref)
    _perturb(ref, out, row[4], f"{ber * (1 + 1e-10):.12g}")
    assert compare_file(out, ref) == []

    summary = REFERENCE / "sweep-general" / "summary.txt"
    out = tmp_path / "summary.txt"
    lines = summary.read_text().splitlines()
    out.write_text("\n".join(lines[:-1]) + "\n")  # one crossing fewer
    assert compare_file(out, summary)

    validate = REFERENCE / "validate-mc" / "seed-1" / "validate.txt"
    out = tmp_path / "validate.txt"
    assert compare_file(_perturb(validate, out, "status=pass", "status=fail"),
                        validate)

    mc = REFERENCE / "validate-mc" / "seed-1" / "validate.csv"
    value = mc.read_text().splitlines()[1].split(",")[3]
    out = tmp_path / "validate.csv"
    _perturb(mc, out, value, f"{float(value) * (1 + 1e-8):.12g}")
    assert compare_file(out, mc)


def test_wrong_probe_values_fail_the_check():
    values = json.loads(PROBE_VALUES.read_text())
    assert check_probes(values) == []
    assert check_probes({}) == []  # probes of deleted layers are not checked
    ber = values["probe.ber_downlink.s"]
    name = "probe.ber_downlink.s"
    assert check_probes({name: [ber[0] * (1 + 1e-6), ber[1]]})
    assert check_probes({name: [ber[0] * (1 + 1e-10), ber[1]]}) == []
    name = "probe.run_campaign_100x11.s"
    links = values[name]
    assert check_probes({name: links[:-1] + [links[-1] + 1]})
    assert check_probes({"probe.hyp2f1_special_1e5.s": [1.0]})


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("sweep-ref", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tier1_does_not_collect_the_benchmark():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert config["tool"]["pytest"]["ini_options"]["testpaths"] == ["tests"]
