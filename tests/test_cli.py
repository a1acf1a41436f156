"""CLI behavior: determinism, exit codes, config handling."""

import mpmath as mp
import pytest

from ispflow.cli import main


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


def test_phase_and_groundstate_smoke(tmp_path):
    assert main(["phase", "--g", "0.8", "--points", "3",
                 "--out", str(tmp_path)]) == 0
    body = (tmp_path / "phase.csv").read_text()
    assert body.startswith("g,p_over_lambda,delta")
    assert main(["groundstate", "--max-sector", "3", "--orders",
                 "g=8,xi=4,rho=6,sector=4", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "groundstate.csv").exists()


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
