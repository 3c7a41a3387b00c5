"""The benchmark's workloads: which CLI command each runs, and why.

Every workload is one ``alphaduplex`` CLI invocation in a fresh child
process, single-threaded and sequential (``ALPHADUPLEX_WORKERS`` unset,
BLAS/OpenMP pools pinned to one thread).  The benchmark seed reaches the
program only as ``--seed`` on the Monte Carlo workload; both sweeps are
deterministic.

Layer -> metric predictions, written down before any optimisation lands:

* ``cli.import_s``, ``cli.main.s``: ``setup_s`` and ``wall_s`` on both, the
  larger share on ``sweep-ref``.
* ``sweep.sweep_alpha.s``, ``sweep.grid_points``: ``run_s`` on ``sweep-ref``.
* ``sweep.find_operating_points.s``, ``sweep.offgrid_evals``,
  ``sweep.crossings``: about 40 % of ``run_s`` on ``sweep-ref``; none on
  ``validate-mc``.
* ``analytic.ber_*_eta4``: ``run_s`` on ``sweep-ref``, a little on
  ``validate-mc``.  ``analytic.ber_uplink``/``ber_downlink``: no calls on
  either (only the probes and the general-exponent fixture reach them).
* ``pulse.interference_factors``: ``run_s`` on ``sweep-ref`` (101 + 71
  calls); small on ``validate-mc``.
* ``specfun.hyp2f1_special``: zero calls on both workloads.  The
  Gauss-Kronrod engines: ``run_s`` on ``sweep-ref``.
* ``model.uplink_power_moment.calls``: ``run_s`` on ``sweep-ref``.
* ``montecarlo.*``, ``wnv_ul``, ``wnv_dl``: ``run_s`` on ``validate-mc``;
  absent on ``sweep-ref``.
* ``trace.overhead_s``: none; traced minus untraced ``wall_s``.

Why two workloads and not three: on the 2-core machine the benchmark was
built on, CPU speed drifts by up to 1.7x over tens of seconds (other
tenants), so a run needs about a minute to give a steady median, and the
run budget fits two workloads at that length.  The general-exponent sweep
(eta = 3.5, every Laplace transform through ``hyp2f1_special``, four
crossings hidden between grid points) is kept as ``GENERAL_SWEEP``: its
outputs are frozen and the benchmark's tests check them and its spans, but
it is not timed.
"""

from __future__ import annotations

from dataclasses import dataclass

# Program seeds with frozen reference outputs.  The benchmark seed picks one
# of them, so any benchmark seed gives checkable inputs; HELD_OUT_SEED is
# frozen too but only the benchmark's own tests use it.  Seed 2 is left out:
# at the reference commit its downlink gap (0.0242) exceeds the validate
# gate (0.02), so `validate --seed 2` exits 3.  Seeds 1 and 3-14 pass.  The
# analytic downlink sits about 0.01 from the simulation at every seed, and
# seed 2 is where that bias crosses the gate.  So that it stays in view,
# every traced run also runs seed 2, outside `failed`, and reports its gap
# and gate status (montecarlo.gate_seed2_*); the benchmark's tests keep it
# as a fixture of a counted failure.  A change to the Monte Carlo or to the
# analytic downlink should re-check seed 2 and every excluded seed.
PROGRAM_SEEDS = (1, 3, 4, 5, 6, 7, 8, 9)
HELD_OUT_SEED = 11
GATE_FAILURE_SEED = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    config: str
    args: tuple[str, ...] = ()
    seeded: bool = False
    outputs: tuple[str, ...] = ()

    def argv(self, config_path: str, out_dir: str,
             program_seed: int | None) -> list[str]:
        """CLI arguments for one run of this workload."""
        argv = [self.command, "--config", config_path, "--out", out_dir,
                *self.args]
        if self.seeded:
            argv += ["--seed", str(program_seed)]
        return argv


WORKLOADS = {w.name: w for w in (
    # Dense eta=4 grid: 101 factor integrals and 202 arctan-form BERs, then a
    # bracketed search with 71 off-grid evaluations.  No 2F1, no Monte Carlo.
    # Batching over alpha and lazy imports show here, and folding eta=4 into
    # the general kernel must not cost anything here.
    Workload(
        name="sweep-ref",
        why="dense eta=4 grid plus bracketed search: batching over alpha and "
            "lazy imports show here, and folding eta=4 into the kernel must "
            "not cost anything",
        command="sweep",
        config="",
        args=("--alpha-grid", "0:1:0.01"),
        outputs=("sweep.csv", "summary.txt"),
    ),
    # run_campaign dominates: about 1,200 BSs per realization and 12 core
    # links each, assembled in per-link Python loops; the analytic side is
    # only 22 eta=4 BER points.  Monte Carlo changes show here, specfun and
    # sweep changes should not.  The validation gate must stay at pass.
    Workload(
        name="validate-mc",
        why="300-realization Monte Carlo campaign checked against 22 eta=4 "
            "closed-form points: Monte Carlo changes show, specfun and sweep "
            "changes should not",
        command="validate",
        config="[sim]\nn_realizations = 300\n",
        seeded=True,
        outputs=("validate.csv", "validate.txt"),
    ),
)}


# General exponent: every Laplace transform goes through hyp2f1_special.  No
# grid neighbours change sign, so all four crossings (about 0.01007, 0.04035,
# 0.31153, 0.32713) are found by densification, 80 off-grid evaluations: the
# hardest correctness case of the crossing search.
GENERAL_SWEEP = Workload(
    name="sweep-general",
    why="eta=3.5 sweep through hyp2f1_special with four crossings hidden "
        "between grid points: stresses specfun and the crossing search",
    command="sweep",
    config="[params]\neta = 3.5\nb_u = 1.2 MHz\n",
    outputs=("sweep.csv", "summary.txt"),
)


def program_seed(workload: Workload, bench_seed: int) -> int | None:
    """The ``--seed`` the program gets for a benchmark seed, if any."""
    if not workload.seeded:
        return None
    return PROGRAM_SEEDS[bench_seed % len(PROGRAM_SEEDS)]
