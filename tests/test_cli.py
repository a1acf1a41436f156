"""CLI behavior: determinism, exit codes, config handling."""

import argparse
import re
from pathlib import Path

import mpmath as mp
import pytest

from ispflow.cli import DEFAULTS, main, make_parser

# the whole settable surface: the options of the root parser and of each
# subcommand (after the ones every parser shares), the --config keys and
# the --orders keys
SHARED = ["-h", "--help", "--config", "--precision", "--orders", "--out",
          "--format", "--kval"]
OWN_OPTIONS = {
    "coeffs": ["--sector", "--pmax", "--lmax", "--check"],
    "groundstate": ["--branch"],
    "beta": ["--sector", "--gmax", "--points", "--tolerance"],
    "contour": ["--ratio-min", "--ratio-max", "--points", "--branches"],
    "phase": ["--g", "--pmin", "--pmax", "--points"],
    "divergence": ["--d", "--check"],
    "crosscheck": ["--points"],
}
CONFIG_KEYS = ["precision", "format", "out", "k_value", "orders"]
ORDER_KEYS = ["g", "sector"]


def read(path):
    return path.read_bytes()


def test_fnum_prints_the_digits_its_value_carries():
    """A 60-digit value prints its own 30 digits under a 15-digit global
    precision, and a float prints its exact binary value as before."""
    from ispflow.emit import fnum
    with mp.workdps(60):
        third = mp.mpf(1) / 3
    with mp.workdps(15):
        assert fnum(third) == "0." + "3" * 30
        assert fnum(0.1) == "0.100000000000000005551115123126"


def test_coeffs_check_passes(tmp_path):
    code = main(["coeffs", "--sector", "bound", "--pmax", "2",
                 "--lmax", "5", "--out", str(tmp_path), "--check"])
    assert code == 0
    assert (tmp_path / "coeffs_bound.csv").exists()


def test_scattering_coeffs_check_passes(tmp_path):
    code = main(["--kval", "0.3", "coeffs", "--sector", "scattering",
                 "--pmax", "4", "--lmax", "7", "--out", str(tmp_path),
                 "--check"])
    assert code == 0
    assert (tmp_path / "coeffs_scattering.csv").exists()


def test_coeffs_json_mirrors_csv(tmp_path):
    main(["coeffs", "--sector", "scattering", "--pmax", "2", "--lmax", "4",
          "--out", str(tmp_path)])
    main(["coeffs", "--sector", "scattering", "--pmax", "2", "--lmax", "4",
          "--out", str(tmp_path), "--format", "json"])
    csv = (tmp_path / "coeffs_scattering.csv").read_text().splitlines()
    import json
    rows = json.loads((tmp_path / "coeffs_scattering.json").read_text())
    assert len(csv) - 1 == len(rows)
    assert csv[1].split(",")[0] == rows[0]["sector"] == "scattering"


def test_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code = main(["contour", "--ratio-min", "10", "--ratio-max", "1e4",
                     "--points", "3", "--branches", "0..1",
                     "--out", str(out)])
        assert code == 0
    assert read(a / "contour.csv") == read(b / "contour.csv")


def test_divergence_check_honest_mismatch(tmp_path):
    # d=2 matches the published table; d=1 differs on the ck' entry whose
    # orderings cancel in the ultraviolet, so --check reports code 2
    assert main(["divergence", "--d", "2", "--out", str(tmp_path),
                 "--check"]) == 0
    assert main(["divergence", "--d", "1", "--out", str(tmp_path),
                 "--check"]) == 2


def test_input_error_codes(tmp_path):
    assert main(["coeffs", "--precision", "10", "--out", str(tmp_path)]) == 4
    assert main(["coeffs", "--orders", "bogus=3", "--out", str(tmp_path)]) == 4


@pytest.mark.parametrize("argv", [
    ["phase", "--pmin", "0"],
    ["beta", "--gmax", "0"],
    ["beta", "--points", "0"],
    ["phase", "--points", "0"],
    ["contour", "--points", "0"],
    ["crosscheck", "--points", "0"],
    ["beta", "--orders", "g=30", "--points", "1"],
    ["groundstate", "--orders", "g=20"],
    ["groundstate", "--branch", "-1"],
    ["contour", "--branches", "3..1"],
    ["contour", "--branches", "0,0"],
    ["beta", "--tolerance", "-1"],
    ["beta", "--tolerance", "nan"],
    ["groundstate", "--orders", "sector=7"],
    ["beta", "--sector", "scattering", "--orders", "sector=7"],
    ["coeffs", "--orders", "rho=5"],
    ["groundstate", "--max-sector", "3"],
    ["coeffs", "--config", str(Path(__file__).resolve().parent
                               / "no-such.conf")],
    ["coeffs", "--config", str(Path(__file__).resolve().parent)],
], ids=["phase-pmin0", "beta-gmax0", "beta-points0", "phase-points0",
        "contour-points0", "crosscheck-points0", "beta-g30",
        "groundstate-g20", "groundstate-branch-1", "contour-branches3..1",
        "contour-branches0,0",
        "beta-tolerance-1",
        "beta-tolerance-nan", "groundstate-sector7", "beta-scattering-sector7",
        "coeffs-rho5", "groundstate-max-sector3", "coeffs-config-missing",
        "coeffs-config-directory"])
def test_refused_requests_exit_4(tmp_path, argv):
    """Empty or non-positive sweeps, negative branches, odd top sectors,
    removed knobs, orders past the zeta ladder and a config path that
    names no readable file are input errors, not a traceback, an empty
    file, a rewritten order or a shorter series."""
    assert main(argv + ["--out", str(tmp_path)]) == 4
    assert not any(tmp_path.iterdir())


def test_command_line_surface():
    """Every option, config key and order key is in one table and in the
    README's "Command line" section, so a new knob fails here until both
    say what it does."""
    def options(parser):
        return [o for action in parser._actions for o in action.option_strings]
    parser = make_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    assert options(parser) == SHARED
    assert {name: options(sub) for name, sub in subs.items()} == {
        name: SHARED + own for name, own in OWN_OPTIONS.items()}
    assert list(DEFAULTS) == CONFIG_KEYS
    assert list(DEFAULTS["orders"]) == ORDER_KEYS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line")[1].split("\n## ")[0]
    for name, own in OWN_OPTIONS.items():
        # the README bullet "* `name`: ..." lists the subcommand's options
        bullet = re.search(rf"^\* `{name}`:(.*?)(?=^\*|^$)", section,
                           re.M | re.S)
        assert bullet, name
        for option in own:
            assert re.search(rf"`{option}\b", bullet.group(1)), (name, option)
    for option in SHARED[2:]:
        assert re.search(rf"`{option}\b", section), option
    for key in CONFIG_KEYS + ORDER_KEYS:
        assert f"`{key}`" in section, key


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("precision=42\nformat=json\nout=" + str(tmp_path / "x")
                   + "\n")
    code = main(["--config", str(cfg), "coeffs", "--sector", "bound",
                 "--pmax", "0", "--lmax", "3"])
    assert code == 0
    assert (tmp_path / "x" / "coeffs_bound.json").exists()
    # flags win over the file
    code = main(["--config", str(cfg), "coeffs", "--sector", "bound",
                 "--pmax", "0", "--lmax", "3", "--format", "csv",
                 "--out", str(tmp_path / "y")])
    assert code == 0
    assert (tmp_path / "y" / "coeffs_bound.csv").exists()
    # a misspelt key is refused, not ignored
    cfg.write_text("precison=80\nformat=json\n")
    assert main(["--config", str(cfg), "coeffs", "--pmax", "0", "--lmax",
                 "3", "--out", str(tmp_path / "z")]) == 4
    assert not (tmp_path / "z").exists()


def test_phase_and_groundstate_smoke(tmp_path):
    assert main(["phase", "--g", "0.8", "--points", "3",
                 "--out", str(tmp_path)]) == 0
    body = (tmp_path / "phase.csv").read_text()
    assert body.startswith("g,p_over_lambda,delta")
    assert main(["groundstate", "--orders", "g=8,sector=2",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "groundstate.csv").exists()


def test_groundstate_writes_beta_off_branch_zero(tmp_path):
    """groundstate --branch 1 writes beta sectors 0, 2 and 4, led by
    -g^2/(3 pi), in CSV and JSON alike."""
    import json
    for fmt in ("csv", "json"):
        assert main(["groundstate", "--branch", "1", "--orders", "sector=4",
                     "--format", fmt, "--out", str(tmp_path)]) == 0
    rows = [line.split(",", 2) for line in
            (tmp_path / "groundstate.csv").read_text().splitlines()[1:]]
    beta = {int(l): series for obj, l, series in rows if obj == "beta"}
    assert sorted(beta) == [0, 2, 4]
    assert beta[0].startswith("\"-1/3*pi^-1*g^2 ")
    body = json.loads((tmp_path / "groundstate.json").read_text())["beta"]
    assert body["branch"] == 1 and sorted(body["sectors"]) == ["0", "2", "4"]


def test_single_contour_point_matches_solver(tmp_path):
    assert main(["contour", "--ratio-min", "100", "--ratio-max", "100",
                 "--points", "1", "--branches", "0",
                 "--out", str(tmp_path)]) == 0
    line = (tmp_path / "contour.csv").read_text().splitlines()[1]
    import mpmath as mp
    from ispflow.rgnumeric import solve_running_coupling
    # main leaves the global precision as it found it: parse the 60-digit
    # CSV value at the precision it was written with
    with mp.workdps(60):
        g_csv = mp.mpf(line.split(",")[2])
        sol = solve_running_coupling(100, 0)
        assert abs(g_csv - sol.g) < mp.mpf(10) ** -25
    # the residual is rounding noise: its size, to 3 significant digits
    residual = line.split(",")[3]
    mantissa = residual.split("e")[0].replace(".", "").strip("0")
    assert residual == mp.nstr(sol.residual, 3)
    assert 1 <= len(mantissa) <= 3, residual


def test_main_leaves_global_precision_unchanged(tmp_path):
    import mpmath as mp
    with mp.workdps(20):
        assert main(["coeffs", "--sector", "bound", "--pmax", "0",
                     "--lmax", "3", "--precision", "42",
                     "--out", str(tmp_path)]) == 0
        assert mp.mp.dps == 20
        assert main(["phase", "--g", "0.8", "--points", "2",
                     "--out", str(tmp_path)]) == 0
        assert mp.mp.dps == 20
        assert main(["coeffs", "--precision", "10",
                     "--out", str(tmp_path)]) == 4
        assert mp.mp.dps == 20


def test_crosscheck_battery():
    assert main(["crosscheck", "--points", "3"]) == 0


def test_beta_sweep_smoke(tmp_path):
    code = main(["beta", "--sector", "bound", "--gmax", "0.35",
                 "--points", "2", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "beta_bound.csv").read_text().splitlines()
    assert lines[0] == "g,beta_numeric,beta_series,abs_err,rel_err"
    import mpmath as mp
    for line in lines[1:]:
        assert mp.mpf(line.split(",")[4]) <= 1e-5


@pytest.mark.parametrize("kval", ["0.3", "1.0"])
def test_beta_default_scattering_sweep_passes(tmp_path, kval):
    """``beta --sector scattering --kval K --points 4`` passes with the
    default --gmax 1/(2 + 6|K|) (with the former fixed default 0.5, K = 0.3
    misses by 1.2e-3 relative at g = 0.48; with 0.3, K = 1.0 misses at all
    four points).  Sector order 2 keeps it cheap; the dropped sectors carry
    at least u^4, u = exp(-pi/g - gamma - K pi) < 1e-5."""
    assert main(["beta", "--sector", "scattering", "--kval", kval,
                 "--points", "4", "--orders", "sector=2",
                 "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "beta_scattering.csv").read_text().splitlines()[1:]
    top = max(float(r.split(",")[0]) for r in rows)
    assert abs(top - 1 / (2 + 6 * float(kval))) < 0.01


def test_beta_sweep_solves_each_point_once(tmp_path, monkeypatch):
    from ispflow import rgnumeric
    solves = {}
    for name in ("solve_running_coupling", "solve_scattering_coupling"):
        def counted(*args, _solve=getattr(rgnumeric, name), _name=name,
                    **kwargs):
            solves[_name] = solves.get(_name, 0) + 1
            return _solve(*args, **kwargs)
        monkeypatch.setattr(rgnumeric, name, counted)
    for sector in ("bound", "scattering"):
        # lowest sector order: the series side does not matter here
        assert main(["beta", "--sector", sector, "--points", "3",
                     "--orders", "sector=2", "--out", str(tmp_path)]) == 0
    assert solves == {"solve_running_coupling": 3,
                      "solve_scattering_coupling": 3}
