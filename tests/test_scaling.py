"""The model's scaling group as relations between runs of the CLI.

Scale every length by s and every received power by c:

    lengths x s,  lambda_bs / s^2,  rho x c,  n0 x c,
    p_b x c s^eta,  p_u_max x c s^eta,  beta x s^-eta

Every SINR of both paths is then unchanged, and so is every BER: the
inversion radius scales by s, the UE powers rho r^eta by c s^eta and
beta p_b by c.  Separately, scaling both bands by k multiplies every
throughput by k and moves no BER and no alpha.

The relations catch what breaks dimensional homogeneity, such as a term
with a wrong exponent or a hard-coded length or power.  A constant-factor
unit slip (a length in km where the power law wants m) scales along with
the group and passes them; the frozen values catch those.
"""

import csv

import pytest

from alphaduplex import cli
from alphaduplex.model import SimConfig, SystemParams


def group_config(s, c, eta=4.0, n_realizations=20):
    """The INI text of the reference config moved by (s, c) at eta."""
    p, sim = SystemParams(eta=eta), SimConfig()
    power = c * s ** eta
    params = {"eta": eta, "lambda_bs": p.lambda_bs / s ** 2,
              "rho": p.rho * c, "n0": p.n0 * c, "p_b": p.p_b * power,
              "p_u_max": p.p_u_max * power, "beta": p.beta * s ** -eta}
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
