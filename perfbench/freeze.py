"""Write the reference outputs that check.py compares against.

Usage, from the root of a checkout of the commit whose outputs become the
reference (the references in this directory come from 457c70a):

    python3 perfbench/freeze.py

Runs every workload once, traced so that the Monte Carlo link counts are
recorded, for each program seed of the seeded workload, and copies the
outputs into reference/.  Runs the layer probes once and writes the
digests of their return values to reference/probes.json.  Re-freezing from
a changed program would make the correctness check compare the program
with itself: do it only to add a workload, a seed or a probe, and only from
the reference commit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from check import PROBE_VALUES, REFERENCE, reference_dir
from run import BENCH_DIR, ROOT, WORK_DIR_NAME, child_env
from workloads import GENERAL_SWEEP, HELD_OUT_SEED, PROGRAM_SEEDS, WORKLOADS


def freeze(workload, seed) -> None:
    work = ROOT / WORK_DIR_NAME
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)
        (tmp / "config.ini").write_text(workload.config)
        record = tmp / "record.json"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(record),
               str(ROOT / "src"), "1", "--",
               *workload.argv(str(tmp / "config.ini"), str(tmp / "out"), seed)]
        subprocess.run(cmd, env=child_env(ROOT), check=True,
                       stdout=subprocess.DEVNULL)
        dest = reference_dir(workload.name, seed)
        dest.mkdir(parents=True, exist_ok=True)
        for name in workload.outputs:
            shutil.copyfile(tmp / "out" / name, dest / name)
        if workload.seeded:
            layers = json.loads(record.read_text())["layers"]
            links = {k: layers[k] for k in ("montecarlo.links_ul",
                                            "montecarlo.links_dl")}
            (dest / "n_links.json").write_text(json.dumps(links) + "\n")
        print(f"froze {dest.relative_to(REFERENCE.parent)}")


def freeze_probes() -> None:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "probes.py")],
                          env=child_env(ROOT), cwd=ROOT, check=True,
                          capture_output=True, text=True)
    values = json.loads(proc.stdout.splitlines()[-1])["values"]
    PROBE_VALUES.write_text(json.dumps(values, indent=1) + "\n")
    print(f"froze {PROBE_VALUES.relative_to(REFERENCE.parent)}")


def main() -> int:
    for workload in (*WORKLOADS.values(), GENERAL_SWEEP):
        seeds = (*PROGRAM_SEEDS, HELD_OUT_SEED) if workload.seeded else (None,)
        for seed in seeds:
            freeze(workload, seed)
    freeze_probes()
    return 0


if __name__ == "__main__":
    sys.exit(main())
