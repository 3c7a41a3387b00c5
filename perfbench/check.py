"""Numeric comparison of CLI outputs against frozen reference outputs.

References were produced by the seed commit (457c70a) and live under
``reference/<workload>/`` (``seed-<n>/`` for the seeded workload).  The
comparison is numeric, not byte for byte, so an ulp-level change from
reordered arithmetic still passes:

* analytic BER, throughput and derived figures: relative 1e-8;
* crossings: same count, each alpha within 1e-8;
* Monte Carlo columns (empirical BER, standard error, tolerance):
  relative 1e-9; link counts (traced runs only) exactly;
* text fields (direction, status) exactly, and ``status=pass``;
* layer probes (probes.py): the digest of each probe's return value,
  relative 1e-8, or 1e-9 for the Monte Carlo probes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

# (relative, absolute) tolerance per field; None means the text must match.
# A value v passes against reference r when |v - r| <= rel * |r| + abs.
ANALYTIC = (1e-8, 0.0)
MONTE_CARLO = (1e-9, 0.0)
ALPHA = (0.0, 1e-8)
FIELDS = {
    "sweep.csv": {"alpha": (0.0, 1e-12), "t_ul": ANALYTIC, "t_dl": ANALYTIC,
                  "ber_ul": ANALYTIC, "ber_dl": ANALYTIC},
    "validate.csv": {"direction": None, "alpha": (0.0, 1e-12),
                     "analytic_ber": ANALYTIC, "empirical_ber": MONTE_CARLO,
                     "std_err": MONTE_CARLO, "abs_gap": (0.0, 1e-8),
                     "tolerance": MONTE_CARLO, "status": None},
    "summary.txt": {"balanced_alpha": ALPHA, "unbalanced_alpha": ALPHA,
                    "crossing_*": ALPHA, "*_bps": ANALYTIC,
                    # percentages of a difference: 1e-8 of 100 %, absolute
                    "*_pct": (0.0, 1e-6), "no_crossing": None},
    "validate.txt": {"max_abs_gap_ul": (0.0, 1e-8),
                     "max_abs_gap_dl": (0.0, 1e-8),
                     "base_tolerance": (0.0, 0.0), "status": None},
}
PROBE_VALUES = REFERENCE / "probes.json"
MONTE_CARLO_PROBES = ("probe.sample_realization.s",
                      "probe.run_campaign_100x11.s")


def reference_dir(workload: str, program_seed: int | None) -> Path:
    base = REFERENCE / workload
    return base if program_seed is None else base / f"seed-{program_seed}"


def _rule(fields: dict, key: str):
    if key in fields:
        return fields[key]
    if key == "header" or key.startswith("row "):
        return None  # CSV header, or a row of the wrong width
    for pattern, rule in fields.items():
        if pattern.endswith("*") and key.startswith(pattern[:-1]):
            return rule
        if pattern.startswith("*") and key.endswith(pattern[1:]):
            return rule
    raise KeyError(key)


def _same(value: str | float, ref: str | float, rule) -> bool:
    if rule is None:
        return value == ref
    try:
        v, r = float(value), float(ref)
    except ValueError:
        return False
    rel, abs_ = rule
    return math.isfinite(v) and abs(v - r) <= rel * abs(r) + abs_


def _records(path: Path) -> list[tuple[str, str]]:
    """(field, value) pairs in file order, keyed by row for CSV files."""
    text = path.read_text()
    if path.suffix == ".csv":
        rows = list(csv.reader(text.splitlines()))
        header, body = rows[0], rows[1:]
        pairs = [("header", ",".join(header))]
        for i, row in enumerate(body):
            if len(row) != len(header):
                pairs.append((f"row {i}", ",".join(row)))
                continue
            pairs.extend((f"{name}@{i}", v) for name, v in zip(header, row))
        return pairs
    return [tuple(line.split("=", 1)) if "=" in line else (line, "")
            for line in text.splitlines()]


def compare_file(out: Path, ref: Path) -> list[str]:
    """Mismatch messages for one output file; empty when it matches."""
    if not ref.is_file():
        return [f"{out.name}: no reference output {ref}"]
    if not out.is_file():
        return [f"{out.name}: missing"]
    fields = FIELDS[ref.name]
    got, want = _records(out), _records(ref)
    if [k for k, _ in got] != [k for k, _ in want]:
        return [f"{out.name}: fields differ: {[k for k, _ in got]} != "
                f"{[k for k, _ in want]}"]
    problems = []
    for (key, value), (_, expected) in zip(got, want):
        rule = _rule(fields, key.split("@")[0])
        if not _same(value, expected, rule):
            problems.append(f"{out.name}: {key} = {value}, reference {expected}")
    if ref.name == "validate.txt" and dict(got).get("status") != "pass":
        problems.append("validate.txt: status is not pass")
    return problems


def check_outputs(out_dir: Path, workload: str, files,
                  program_seed: int | None) -> list[str]:
    ref_dir = reference_dir(workload, program_seed)
    problems = []
    for name in files:
        problems.extend(compare_file(out_dir / name, ref_dir / name))
    return problems


def check_links(workload: str, program_seed: int | None,
                layers: dict) -> list[str]:
    """Pooled link counts of a traced Monte Carlo run against the reference."""
    path = reference_dir(workload, program_seed) / "n_links.json"
    if not path.is_file():
        return []
    want = json.loads(path.read_text())
    return [f"{key}: {layers.get(key)} links, reference {n}"
            for key, n in want.items() if layers.get(key) != n]


def check_probes(values: dict[str, list[float]]) -> list[str]:
    """Probe return values against the reference.  A probe the package no
    longer defines has no values and is not checked."""
    want = json.loads(PROBE_VALUES.read_text())
    problems = []
    for name, got in values.items():
        ref = want[name]
        rule = MONTE_CARLO if name in MONTE_CARLO_PROBES else ANALYTIC
        if len(got) != len(ref):
            problems.append(f"{name}: {len(got)} values, reference {len(ref)}")
            continue
        problems += [f"{name}: value {i} = {v!r}, reference {r!r}"
                     for i, (v, r) in enumerate(zip(got, ref))
                     if not _same(v, r, rule)]
    return problems
