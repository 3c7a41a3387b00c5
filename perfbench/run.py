"""alphaduplex benchmark: CLI workloads end to end, and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation runs one ``alphaduplex`` CLI command (see workloads.py) in a
fresh child interpreter with PYTHONPATH=src, ALPHADUPLEX_WORKERS unset and
thread pools pinned to one thread.  Operations repeat, one after another
and taking turns on the available CPUs, until S seconds have passed (a
short import-only child warms up first).  Every operation's outputs are
compared with frozen reference outputs (check.py); an operation that exits
non-zero or whose outputs differ counts as failed and is left out of the
timings.

--trace 0 prints the end-to-end metrics, medians over the operations:

    wall_s       child process from spawn to exit, imports included
    setup_s      spawn until ``import alphaduplex.cli`` has returned
    run_s        time inside ``cli.main``
    peak_rss_mb  peak resident set of the child

--trace 1 alternates untraced and traced operations and prints the
per-layer metrics: self time and calls of spans around the package's public
functions (spans.py), work counters, the work-normalised variance of the
Monte Carlo estimate, the tracing overhead, and the layer probes
(probes.py).  A span the program does not reach reads 0.  A traced run also
makes, once, three operations that do not depend on the workload:

* the general-exponent sweep (workloads.GENERAL_SWEEP), checked against
  its reference outputs and counted like any operation;
* the layer probes, whose return values are checked against reference
  values and which count as one operation;
* ``validate --seed 2``, whose gate fails at the reference commit.  It is
  not counted; ``montecarlo.gate_seed2_gap_dl`` and
  ``montecarlo.gate_seed2_pass`` report its downlink gap and gate status,
  so the downlink bias stays in view.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  When no operation
runs to the end, that object has ``correct`` false, no metrics, and the
benchmark exits 1.  Without the program's sources (src/alphaduplex) the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from check import check_links, check_outputs, check_probes
from probes import PROBES
from workloads import (GATE_FAILURE_SEED, GENERAL_SWEEP, WORKLOADS, Workload,
                       program_seed)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR_NAME = ".perfbench_work"
CHILD_TIMEOUT_S = 150.0
THREAD_POOL_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = ("wall_s", "setup_s", "run_s", "peak_rss_mb")


def child_env(root: Path) -> dict[str, str]:
    """Environment of every child: one thread, sources from the checkout."""
    env = dict(os.environ)
    env.pop("ALPHADUPLEX_WORKERS", None)
    env.update(dict.fromkeys(THREAD_POOL_ENV, "1"))
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class Op:
    """One CLI operation and what the benchmark observed of it."""

    rc: int | None
    wall_s: float
    record: dict | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.rc != 0 or self.record is None or bool(self.problems)

    @property
    def setup_s(self) -> float:
        return self.record["t_imported"] - self.record["t_spawn"]

    @property
    def run_s(self) -> float:
        return self.record["t_done"] - self.record["t_main"]

    @property
    def peak_rss_mb(self) -> float:
        return self.record["maxrss_kb"] / 1024.0


def run_op(root: Path, work: Path, workload: Workload, seed: int | None,
           trace: bool, cpu: int | None = None) -> Op:
    """Run the workload once in a child process and check its outputs.

    With ``cpu`` the child is pinned to that CPU from its start.
    """
    op_dir = Path(tempfile.mkdtemp(dir=work))
    try:
        config = op_dir / "config.ini"
        config.write_text(workload.config)
        out_dir = op_dir / "out"
        record_path = op_dir / "record.json"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(record_path),
               str(root / "src"), "1" if trace else "0", "--",
               *workload.argv(str(config), str(out_dir), seed)]
        t_spawn = perf_counter()
        try:
            pin = None if cpu is None else (
                lambda: os.sched_setaffinity(0, {cpu}))
            proc = subprocess.run(cmd, env=child_env(root), cwd=op_dir,
                                  preexec_fn=pin, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Op(rc=None, wall_s=perf_counter() - t_spawn,
                      problems=[f"timed out after {CHILD_TIMEOUT_S} s"])
        wall_s = perf_counter() - t_spawn
        op = Op(rc=proc.returncode, wall_s=wall_s)
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:]
            op.problems.append(f"exit code {proc.returncode}"
                               + (f": {last[0]}" if last else ""))
        if record_path.is_file():
            op.record = json.loads(record_path.read_text())
            op.record["t_spawn"] = t_spawn
            op.problems += check_outputs(out_dir, workload.name,
                                         workload.outputs, seed)
            if "layers" in op.record:
                op.problems += check_links(workload.name, seed,
                                           op.record["layers"])
                op.record["max_std_err"] = _max_std_err(out_dir)
            summary = out_dir / "validate.txt"
            if summary.is_file():
                op.record["validate"] = dict(
                    line.split("=", 1)
                    for line in summary.read_text().splitlines())
        else:
            op.problems.append("no record written")
        return op
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)


def _max_std_err(out_dir: Path) -> dict[str, float]:
    """Largest Monte Carlo standard error per direction in validate.csv."""
    path = out_dir / "validate.csv"
    out = {"uplink": 0.0, "downlink": 0.0}
    if path.is_file():
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                out[row["direction"]] = max(out[row["direction"]],
                                            float(row["std_err"]))
    return out


def tally(ops: list[Op]) -> tuple[int, int]:
    """(attempted, failed): every operation counts, none is dropped."""
    return len(ops), sum(op.failed for op in ops)


def _timed(ops: list[Op]) -> list[Op]:
    """Operations whose timings count: the passing ones, or, when none
    passed, those that at least ran to the end (their failure still counts)."""
    passed = [op for op in ops if not op.failed]
    return passed or [op for op in ops if op.record is not None]


def end_to_end(ops: list[Op]) -> dict[str, float]:
    timed = _timed(ops)
    return {name: statistics.median(getattr(op, name) for op in timed)
            for name in END_TO_END}


def per_layer(untraced: list[Op], traced: list[Op]) -> dict[str, float]:
    plain, layered = _timed(untraced), _timed(traced)
    names = layered[0].record["layers"].keys()
    out = {name: statistics.median(op.record["layers"][name] for op in layered)
           for name in names}
    out["cli.import_s"] = statistics.median(
        op.record["t_imported"] - op.record["t_import"] for op in layered)
    run_s = statistics.median(op.run_s for op in plain)
    for direction, key in (("uplink", "wnv_ul"), ("downlink", "wnv_dl")):
        std_err = max(op.record["max_std_err"][direction] for op in layered)
        out[key] = std_err ** 2 * run_s
    out["trace.overhead_s"] = (statistics.median(op.wall_s for op in layered)
                               - statistics.median(op.wall_s for op in plain))
    return out


def gate_metrics(op: Op) -> dict[str, float]:
    """Downlink gap and gate status of a validate operation; 0 and 0 when
    it wrote no validate.txt."""
    summary = (op.record or {}).get("validate", {})
    return {"montecarlo.gate_seed2_gap_dl":
                float(summary.get("max_abs_gap_dl", 0.0)),
            "montecarlo.gate_seed2_pass":
                float(summary.get("status") == "pass")}


def run_probes(root: Path) -> tuple[dict | None, list[str]]:
    """Layer probes in a fresh child, and the problems found in them."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probes.py")],
            env=child_env(root), cwd=root, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"probes timed out after {CHILD_TIMEOUT_S} s"]
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:]
        return None, [f"probes exit code {proc.returncode}"
                      + (f": {last[0]}" if last else "")]
    probes = json.loads(proc.stdout.strip().splitlines()[-1])
    return probes, check_probes(probes["values"])


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_gap_dl"):
        return "ratio"
    if name.endswith((".s", "_s")) or name.startswith("wnv_"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "alphaduplex" / "cli.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = program_seed(workload, args.seed)

    work_root = ROOT / WORK_DIR_NAME
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        # warm-up: byte-compile the package and fill the file cache
        subprocess.run([sys.executable, "-c", "import alphaduplex.cli"],
                       env=child_env(ROOT), cwd=work, check=False,
                       timeout=CHILD_TIMEOUT_S)
        # Operations take turns on the CPUs: each CPU's speed drifts on its
        # own (other tenants of the host), and a run's median should average
        # over all of them rather than follow whichever one it landed on.
        # Traced operations take the other turn, so both kinds see every CPU.
        cpus = sorted(os.sched_getaffinity(0))
        untraced: list[Op] = []
        traced: list[Op] = []
        deadline = perf_counter() + args.seconds
        while not untraced or (args.trace and not traced) \
                or perf_counter() < deadline:
            turn = len(untraced)
            untraced.append(run_op(ROOT, work, workload, seed, trace=False,
                                   cpu=cpus[turn % len(cpus)]))
            if args.trace:
                traced.append(run_op(ROOT, work, workload, seed, trace=True,
                                     cpu=cpus[(turn + 1) % len(cpus)]))
        ops = untraced + traced
        completed = bool(_timed(untraced)) and (not args.trace
                                                or bool(_timed(traced)))
        if args.trace and completed:
            ops.append(run_op(ROOT, work, GENERAL_SWEEP, None, trace=False))
            gate = run_op(ROOT, work, WORKLOADS["validate-mc"],
                          GATE_FAILURE_SEED, trace=False)
            probes, probe_problems = run_probes(ROOT)
        attempted, failed = tally(ops)
        for op in ops:
            for problem in op.problems:
                print(f"perfbench: failed operation: {problem}", file=sys.stderr)
        if not completed:
            print("perfbench: no operation ran to completion", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": attempted,
                              "failed": failed, "metrics": {}}))
            return 1
        if args.trace:
            for problem in probe_problems:
                print(f"perfbench: failed probe: {problem}", file=sys.stderr)
            attempted += 1
            failed += bool(probe_problems)
            probes = probes or {"metrics": dict.fromkeys(PROBES, 0.0),
                                "absent": [], "machine": {}}
            values = per_layer(untraced, traced)
            values.update(probes["metrics"])
            values.update(gate_metrics(gate))
            absent = sorted({n for op in traced for n in op.record["absent"]})
            print(json.dumps({"machine": probes["machine"],
                              "absent": absent + probes["absent"],
                              "traced_ops": len(traced),
                              "untraced_ops": len(untraced),
                              "gate_seed2":
                                  (gate.record or {}).get("validate")}))
        else:
            values = end_to_end(untraced)
            print(json.dumps({"workload": workload.name, "program_seed": seed,
                              "ops": len(untraced),
                              "wall_s": [round(op.wall_s, 4) for op in untraced]}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = {n: {"value": v, "unit": unit(n)} for n, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
