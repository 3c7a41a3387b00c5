"""Batch front door: config parsing, subcommands, CSV emission.

Configuration is a flat INI document with sections [params], [sim],
[pulses], and [sweep]; every key is optional and falls back to the
reference parameter set.  Physical quantities accept explicit unit
suffixes (dBm, mW, W, dB, kHz, MHz, GHz, /km2, km) so the mixed-unit
parameter table can be transcribed verbatim.  All outputs are CSV or
key=value text with %.12g formatting, so identical configs and seeds
reproduce byte-identical files.

Each command computes all of its outputs before ``main`` opens a file,
so a command that fails with a JSON error line writes no file.  When the
files are written (exit 0, or 3 for a failed validation), stdout holds one
``wrote <path>`` line per file, in the order ``_COMMANDS`` lists them,
then the lines of each .txt file.

Only ``simulate`` and ``validate`` import the simulator, when they run:
``factors``, ``analytic`` and ``sweep`` never load ``montecarlo``.

Exit codes: 0 success, 2 configuration error, 3 validation failure,
4 UE placement starvation, 5 quadrature failure, 6 crossing refinement
stalled.  Failures print one machine-readable JSON line to stderr.

Under glibc, the first ``main`` call pins the heap's mmap threshold at
32 MB and its trim threshold at 64 MB (the values glibc's heuristic grows
to) for the whole process, so numpy temporaries such as the sweep's 115 KB
quadrature blocks and the placement's 0.8 MB slot rows reuse one heap
instead of being unmapped or trimmed and faulted in again.  Importing the
package leaves the allocator alone, and no output depends on it.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import ctypes
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

from .model import (Direction, SimConfig, StarvationError, SystemParams,
                    check_closed_form_domain, db_to_linear, dbm_to_watts)
from .pulse import PulseKind, PulsePair, interference_factor_grid
from .specfun import QuadratureError
from .sweep import (
    NoCrossingError,
    RefinementStallError,
    _grid_points,
    _validated_grid,
    find_operating_points,
    sweep_alpha,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_STARVATION = 4
EXIT_QUADRATURE = 5
EXIT_REFINEMENT = 6

BER_TOLERANCE = 0.02   # cross-validation gate, absolute BER units

_DEFAULT_GRID = "0:1:0.1"
_MAX_GRID_POINTS = 100_001
_MAX_EXPECTED_BS = 1e6   # lambda_bs * region_side^2; the reference has 1200


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved inputs for one batch command."""

    params: SystemParams
    sim: SimConfig
    pulses: PulsePair
    alpha_grid: tuple[float, ...]


def _unit_parser(quantity: str, units: dict, hint: str):
    """Parser of '<number> [unit]' for one physical quantity.

    units maps each suffix, in match order and case-insensitively, to its
    conversion: a function of the number or a multiplicative scale.  A
    bare number passes through.
    """
    def parse(raw: str, key: str) -> float:
        text = raw.strip()
        try:
            for suffix, convert in units.items():
                if text.lower().endswith(suffix):
                    value = float(text[: -len(suffix)].strip())
                    return (convert(value) if callable(convert)
                            else value * convert)
            return float(text)
        except (ValueError, OverflowError):   # 10 ** x beyond a double
            raise ConfigError(f"{key}: cannot parse {quantity} value {raw!r} "
                              f"({hint})") from None
    return parse


def _number_parser(convert, kind: str):
    def parse(raw: str, key: str):
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(f"{key}: cannot parse {kind} {raw!r}") from None
    return parse


_parse_power = _unit_parser("power", {"dbm": dbm_to_watts, "mw": 1e-3,
                                      "w": 1.0}, "use W, mW, or dBm")
_parse_ratio = _unit_parser("ratio", {"db": db_to_linear},
                            "use a linear value or dB")
_parse_frequency = _unit_parser("frequency", {"ghz": 1e9, "mhz": 1e6,
                                              "khz": 1e3, "hz": 1.0},
                                "use Hz, kHz, MHz, or GHz")
_parse_density = _unit_parser("density", {"/km2": 1.0}, "per km2")
_parse_length_km = _unit_parser("length", {"km": 1.0}, "km")
_parse_float = _number_parser(float, "number")
_parse_int = _number_parser(int, "integer")


def _parse_pulse(raw: str, key: str) -> PulseKind:
    name = raw.strip().upper()
    try:
        return PulseKind[name]
    except KeyError:
        valid = ", ".join(k.name.lower() for k in PulseKind)
        raise ConfigError(f"{key}: unknown pulse kind {raw!r} "
                          f"(expected one of: {valid})") from None


def parse_alpha_grid(spec: str) -> tuple[float, ...]:
    """Expand 'start:stop:step' into an inclusive, strictly increasing grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"alpha_grid: expected start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"alpha_grid: non-numeric field in {spec!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"alpha_grid: non-finite field in {spec!r}")
    if step <= 0.0:
        raise ConfigError("alpha_grid: step must be positive")
    if stop < start:
        raise ConfigError("alpha_grid: stop must be >= start")

    def snap(v):   # endpoint rounding residue back onto the unit interval
        return 0.0 if abs(v) < 1e-12 else 1.0 if abs(v - 1.0) < 1e-12 else v

    if not (0.0 <= snap(start) and snap(stop) <= 1.0):
        raise ConfigError("alpha_grid: values must lie in [0, 1]")
    steps = (stop - start) / step + 1e-9   # overflows to inf, never nan
    if steps >= _MAX_GRID_POINTS:
        raise ConfigError(f"alpha_grid: {spec!r} gives more than "
                          f"{_MAX_GRID_POINTS} points")
    n = int(math.floor(steps)) + 1
    try:   # a step below the rounding residue repeats a snapped value
        return _validated_grid([snap(start + i * step) for i in range(n)])
    except ValueError as exc:
        raise ConfigError(f"alpha_grid: {exc}") from None


_PARAM_PARSERS = {
    "lambda_bs": _parse_density,
    "eta": _parse_float,
    "rho": _parse_power,
    "p_b": _parse_power,
    "p_u_max": _parse_power,
    "beta": _parse_ratio,
    "n0": _parse_power,
    "b_u": _parse_frequency,
    "b_d": _parse_frequency,
    "omega1_u": _parse_float,
    "omega2_u": _parse_float,
    "omega1_d": _parse_float,
    "omega2_d": _parse_float,
    "m_symbols": _parse_int,
}

_SIM_PARSERS = {
    "n_realizations": _parse_int,
    "seed": _parse_int,
    "region_side": _parse_length_km,
    "core_side": _parse_length_km,
}

_KNOWN_SECTIONS = ("params", "sim", "pulses", "sweep")


def parse_config(text: str) -> RunConfig:
    """Resolve a configuration document against the reference defaults."""
    ini = configparser.ConfigParser(interpolation=None)
    try:
        ini.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from None

    for section in ini.sections():
        if section not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown section [{section}] "
                              f"(expected {', '.join(_KNOWN_SECTIONS)})")

    def section_items(name: str, parsers: dict) -> dict:
        if not ini.has_section(name):
            return {}
        out = {}
        for key, raw in ini.items(name):
            if key not in parsers:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
            out[key] = parsers[key](raw, key)
        return out

    try:
        params = SystemParams(**section_items("params", _PARAM_PARSERS))
        sim = SimConfig(**section_items("sim", _SIM_PARSERS))
        pulses = PulsePair(**section_items(
            "pulses", {"uplink": _parse_pulse, "downlink": _parse_pulse}))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    sweep_opts = section_items("sweep", {"alpha_grid": lambda raw, key: raw})
    alpha_grid = parse_alpha_grid(sweep_opts.get("alpha_grid", _DEFAULT_GRID))
    return RunConfig(params=params, sim=sim, pulses=pulses, alpha_grid=alpha_grid)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write(path: str, content) -> None:
    # content is (header, rows) for a .csv, lines for a .txt
    try:   # newline="": "\n" endings on every platform
        fh = open(path, "w", newline="")
    except OSError as exc:   # the path changed after _out_paths checked it
        raise ConfigError(f"cannot write output file {path!r}: {exc}") from None
    with fh:
        if path.endswith(".csv"):
            header, rows = content
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_fmt(v) for v in row] for row in rows)
        else:
            fh.writelines(line + "\n" for line in content)


def _check_expected_bs(cfg: RunConfig) -> None:
    # the networks that a simulating command places must fit in memory;
    # float ** raises OverflowError where * gives inf
    n_bs = cfg.params.lambda_bs * cfg.sim.region_side * cfg.sim.region_side
    if not n_bs <= _MAX_EXPECTED_BS:
        raise ConfigError(f"expected BSs per realization, lambda_bs * "
                          f"region_side^2 = {n_bs:g}, must be at most "
                          f"{_MAX_EXPECTED_BS:g}")


def _check_closed_forms(cfg: RunConfig) -> None:
    try:
        check_closed_form_domain(cfg.params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _out_paths(out_dir: str, names) -> list:
    # checked before the command does any work: a bad name leaves no outputs
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:   # a file in the way, or no permission
        raise ConfigError(f"cannot create output directory "
                          f"{out_dir!r}: {exc}") from None
    paths = [os.path.join(out_dir, name) for name in names]
    for path in paths:
        if os.path.isdir(path) or not os.access(
                path if os.path.exists(path) else out_dir, os.W_OK):
            raise ConfigError(f"cannot write output file {path!r}: "
                              "it is a directory or read-only")
    return paths


def cmd_factors(cfg: RunConfig) -> tuple[int, list]:
    factors = interference_factor_grid(cfg.params.b_u, cfg.params.b_d,
                                       cfg.pulses, cfg.alpha_grid)
    rows = [(alpha, fac.i_du_sq, fac.i_ud_sq)
            for alpha, fac in zip(cfg.alpha_grid, factors)]
    return EXIT_OK, [(("alpha", "i_du_sq", "i_ud_sq"), rows)]


def cmd_analytic(cfg: RunConfig) -> tuple[int, list]:
    sr = sweep_alpha(cfg.params, cfg.pulses, cfg.alpha_grid)
    rows = [(m.direction.value, alpha, m.ber, m.bandwidth, m.throughput)
            for alpha, ul, dl in sr.rows for m in (ul, dl)]
    return EXIT_OK, [(("direction", "alpha", "ber", "bandwidth_hz",
                       "throughput_bps"), rows)]


def cmd_simulate(cfg: RunConfig) -> tuple[int, list]:
    from .montecarlo import run_campaign
    metrics = run_campaign(cfg.params, cfg.sim, list(cfg.alpha_grid),
                           cfg.pulses)
    rows = [(m.direction.value, m.alpha, m.mean_ber, m.std_err, m.n_links,
             m.bandwidth, m.throughput) for m in metrics]
    return EXIT_OK, [(("direction", "alpha", "mean_ber", "std_err", "n_links",
                       "bandwidth_hz", "throughput_bps"), rows)]


def cmd_sweep(cfg: RunConfig) -> tuple[int, list]:
    sr = sweep_alpha(cfg.params, cfg.pulses, cfg.alpha_grid)
    try:
        lines = find_operating_points(sr).lines()
    except NoCrossingError:
        lines = ("no_crossing=true",)
    return EXIT_OK, [(("alpha", "t_ul", "t_dl", "ber_ul", "ber_dl"),
                      sr.table()), lines]


def cmd_validate(cfg: RunConfig) -> tuple[int, list]:
    from .montecarlo import run_campaign
    alphas = list(cfg.alpha_grid)
    metrics = run_campaign(cfg.params, cfg.sim, alphas, cfg.pulses)
    # rows come as (uplink, downlink) per alpha, as do the closed forms'
    analytic = [point for row in _grid_points(cfg.params, cfg.pulses, alphas)
                for point in row[1:]]
    rows = []
    max_gap = {Direction.UPLINK: 0.0, Direction.DOWNLINK: 0.0}
    failed = False
    for m, point in zip(metrics, analytic):
        analytic_ber = point.ber
        gap = abs(analytic_ber - m.mean_ber)
        tol = max(BER_TOLERANCE, 4.0 * m.std_err)
        ok = gap <= tol
        failed = failed or not ok
        max_gap[m.direction] = max(max_gap[m.direction], gap)
        rows.append((m.direction.value, m.alpha, analytic_ber, m.mean_ber,
                     m.std_err, gap, tol, "pass" if ok else "fail"))
    lines = [
        f"max_abs_gap_ul={max_gap[Direction.UPLINK]:.12g}",
        f"max_abs_gap_dl={max_gap[Direction.DOWNLINK]:.12g}",
        f"base_tolerance={BER_TOLERANCE:.12g}",
        f"status={'fail' if failed else 'pass'}",
    ]
    return (EXIT_VALIDATION if failed else EXIT_OK,
            [(("direction", "alpha", "analytic_ber", "empirical_ber",
               "std_err", "abs_gap", "tolerance", "status"), rows), lines])


# name: (function, the files it writes, the config checks that run before
# it, help); the function returns its exit code and one content per file
_COMMANDS = {
    "factors": (cmd_factors, ("factors.csv",), (),
                "effective interference factors vs overlap"),
    "analytic": (cmd_analytic, ("analytic.csv",), (_check_closed_forms,),
                 "closed-form BER/throughput vs overlap"),
    "simulate": (cmd_simulate, ("simulate.csv",), (_check_expected_bs,),
                 "Monte Carlo BER/throughput vs overlap"),
    "sweep": (cmd_sweep, ("sweep.csv", "summary.txt"), (_check_closed_forms,),
              "analytic sweep plus operating points"),
    "validate": (cmd_validate, ("validate.csv", "validate.txt"),
                 (_check_expected_bs, _check_closed_forms),
                 "cross-check simulation against the closed forms"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphaduplex",
        description="Partial-overlap duplexing: BER/throughput analysis, "
                    "simulation, and operating-point search.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="configuration file (INI; omit for defaults)")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current directory)")
    common.add_argument("--seed", metavar="N", type=int,
                        help="override the simulation seed")
    common.add_argument("--alpha-grid", metavar="START:STOP:STEP",
                        help="override the overlap-fraction grid")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (*_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    text = ""
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
    cfg = parse_config(text)
    if args.seed is not None:
        try:
            sim = dataclasses.replace(cfg.sim, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        cfg = dataclasses.replace(cfg, sim=sim)
    if args.alpha_grid is not None:
        cfg = dataclasses.replace(
            cfg, alpha_grid=parse_alpha_grid(args.alpha_grid))
    return cfg


def _fail(kind: str, exc: Exception, code: int) -> int:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
    return code


def _keep_free_heap() -> None:
    # process-wide; a C library without mallopt keeps its own policy
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int,) * 2, ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD: blocks below 32 MB from the heap
    mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD: keep up to 64 MB of free top


def main(argv=None) -> int:
    _keep_free_heap()
    args = _build_parser().parse_args(argv)
    command, names, checks, _ = _COMMANDS[args.command]
    try:
        cfg = _load_run_config(args)
        for check in checks:
            check(cfg)
        paths = _out_paths(args.out, names)
        code, contents = command(cfg)
        lines = [f"wrote {path}" for path in paths]
        for path, content in zip(paths, contents):
            _write(path, content)
            if path.endswith(".txt"):
                lines.extend(content)
    except ConfigError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except StarvationError as exc:
        return _fail("starvation", exc, EXIT_STARVATION)
    except QuadratureError as exc:
        return _fail("quadrature", exc, EXIT_QUADRATURE)
    except RefinementStallError as exc:
        return _fail("refinement", exc, EXIT_REFINEMENT)
    print(*lines, sep="\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
