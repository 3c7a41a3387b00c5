"""The model's scaling group as relations between runs.

Scale every length by s and every received power by c:

    lengths x s,  lambda_bs / s^2,  rho x c,  n0 x c,
    p_b x c s^eta,  p_u_max x c s^eta,  beta x s^-eta

Every SINR of both paths is then unchanged, and so is every BER: the
inversion radius scales by s, the UE powers rho r^eta by c s^eta and
beta p_b by c.  Separately, scaling both bands by k multiplies every
throughput by k and moves no BER and no alpha.

A hypothesis test draws random group elements and checks the closed
forms in-process; the others compare runs of the CLI.

The relations catch what breaks dimensional homogeneity, such as a term
with a wrong exponent or a hard-coded length or power.  A constant-factor
unit slip (a length in km where the power law wants m) scales along with
the group and passes them; the frozen values catch those.
"""

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaduplex import cli
from alphaduplex.model import SimConfig, SystemParams
from alphaduplex.pulse import PulsePair
from alphaduplex.sweep import sweep_alpha


def group_params(s, c, eta):
    """The reference parameters moved by (s, c) at eta, by keyword."""
    p = SystemParams(eta=eta)
    power = c * s ** eta
    return {"eta": eta, "lambda_bs": p.lambda_bs / s ** 2,
            "rho": p.rho * c, "n0": p.n0 * c, "p_b": p.p_b * power,
            "p_u_max": p.p_u_max * power, "beta": p.beta * s ** -eta}


def group_config(s, c, eta=4.0, n_realizations=20):
    """The INI text of the reference config moved by (s, c) at eta."""
    params, sim = group_params(s, c, eta), SimConfig()
    sim_keys = {"n_realizations": n_realizations,
                "region_side": sim.region_side * s,
                "core_side": sim.core_side * s}
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v!r}\n" for k, v in keys.items())
        for name, keys in (("params", params), ("sim", sim_keys)))


def run(tmp_path, name, command, text, grid="0:1:0.25"):
    ini = tmp_path / f"{name}.ini"
    ini.write_text(text)
    out = tmp_path / name
    assert cli.main([command, "--config", str(ini), "--out", str(out),
                     "--alpha-grid", grid]) == cli.EXIT_OK
    return out


def rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("command", ["analytic", "simulate"])
def test_lengths_doubled_write_the_same_file(tmp_path, command):
    # powers of two scale every input without rounding
    base = run(tmp_path, "base", command, group_config(1, 1))
    moved = run(tmp_path, "moved", command, group_config(2, 1))
    name = f"{command}.csv"
    assert (moved / name).read_bytes() == (base / name).read_bytes()


@pytest.mark.parametrize("eta", [4.0, 3.0])
@pytest.mark.parametrize("command, ber", [("analytic", "ber"),
                                          ("simulate", "mean_ber")])
def test_lengths_and_powers_scaled_keep_every_ber(tmp_path, command, ber,
                                                  eta):
    # at eta = 3 the realizations ask the k-d tree
    base = rows(run(tmp_path, "base", command, group_config(
        1, 1, eta, n_realizations=2)) / f"{command}.csv")
    moved = rows(run(tmp_path, "moved", command, group_config(
        3, 10, eta, n_realizations=2)) / f"{command}.csv")
    assert [(r["direction"], r["alpha"], r.get("n_links")) for r in moved] == [
        (r["direction"], r["alpha"], r.get("n_links")) for r in base]
    for got, want in zip(moved, base):
        assert float(got[ber]) == pytest.approx(float(want[ber]), abs=1e-12)


def test_bands_scaled_scale_every_throughput(tmp_path):
    k = 3.7
    base = run(tmp_path, "base", "sweep", "", grid="0:1:0.1")
    moved = run(tmp_path, "moved", "sweep",
                f"[params]\nb_u = {1e6 * k!r}\nb_d = {1e6 * k!r}\n",
                grid="0:1:0.1")
    got, want = rows(moved / "sweep.csv"), rows(base / "sweep.csv")
    assert [r["alpha"] for r in got] == [r["alpha"] for r in want]
    for g, w in zip(got, want):
        for key in ("t_ul", "t_dl"):
            assert float(g[key]) == pytest.approx(k * float(w[key]),
                                                  rel=1e-11)

    def summary(out):
        return dict(line.split("=") for line in
                    (out / "summary.txt").read_text().splitlines())

    got, want = summary(moved), summary(base)
    assert got.keys() == want.keys() and "balanced_alpha" in want
    for key in want:
        if key.endswith("_alpha"):
            assert got[key] == want[key]
        elif key.endswith("_bps"):
            assert float(got[key]) == pytest.approx(k * float(want[key]),
                                                    rel=1e-11)


def closed_forms(p):
    """Rows of (alpha, t_ul, t_dl, ber_ul, ber_dl) at 0, 0.28 and 1."""
    return sweep_alpha(p, PulsePair(), [0.0, 0.28, 1.0]).table()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(log_s=st.floats(-1.0, 1.0), log_c=st.floats(-2.0, 2.0),
       log_k=st.floats(-0.5, 0.7), eta=st.sampled_from([3.0, 3.5, 4.0]))
def test_random_group_elements_keep_the_closed_forms(log_s, log_c, log_k,
                                                     eta):
    s, c, k = 10.0 ** log_s, 10.0 ** log_c, 10.0 ** log_k
    base = closed_forms(SystemParams(eta=eta))
    moved = closed_forms(SystemParams(**group_params(s, c, eta)))
    banded = closed_forms(SystemParams(eta=eta, b_u=1e6 * k, b_d=1e6 * k))
    for b, m, w in zip(base, moved, banded):
        assert m[0] == w[0] == b[0]
        for ber in (3, 4):
            assert m[ber] == pytest.approx(b[ber], abs=1e-12)
            assert w[ber] == pytest.approx(b[ber], abs=1e-12)
        for t in (1, 2):
            assert w[t] == pytest.approx(k * b[t], rel=1e-11)
