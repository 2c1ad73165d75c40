import json

import numpy as np
import pytest

from geoprofile.cli import main
from geoprofile.profiles import write_profile_csv, read_profile_csv
from geoprofile.surfaces import spherical_profile
from geoprofile.geodesy import load_metric_json


@pytest.fixture(scope="module")
def sphere_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sphere.csv"
    p = spherical_profile(0.5, 0.0125, (-0.0387, 0.0387), n=3001)
    write_profile_csv(p, path)
    return str(path)


def test_demo_flat_offset_passes(capsys):
    code = main(["demo", "euclid-offset", "--c", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "kappa(0) = 0" in out
    assert "verdict: PASS" in out


def test_demo_offset_fails_on_kappa(capsys):
    code = main(["demo", "euclid-offset", "--c", "0.99"])
    out = capsys.readouterr().out
    assert code == 1
    assert "curvature_bound" in out
    # kappa(0) around 2.4e4 per the closed form
    line = [ln for ln in out.splitlines() if ln.startswith("curvature proxy")][0]
    assert abs(float(line.split("=")[1]) - 24473.6) < 10.0


def test_demo_eps_bump_fails(capsys):
    code = main(["demo", "eps-bump", "--eps", "1e-2", "--beta", "0.25"])
    assert code == 1
    assert "verdict: FAIL" in capsys.readouterr().out


def test_check_generated_profile(sphere_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check", "--input", sphere_csv, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] is True
    assert any(rec["name"] == "curvature_bound" for rec in payload["records"])


def test_check_deterministic_bytes(sphere_csv, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["check", "--input", sphere_csv, "--out", str(out1),
                 "--seed", "0"]) == 0
    assert main(["check", "--input", sphere_csv, "--out", str(out2),
                 "--seed", "0"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_outputs(sphere_csv, tmp_path):
    out = tmp_path / "summary.json"
    plot = tmp_path / "plot.csv"
    code = main(["analyze", "--input", sphere_csv, "--out", str(out),
                 "--plot-csv", str(plot)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["K0"] - 0.5) < 1e-3
    header = plot.read_text().splitlines()[0]
    assert header == "t,rho,kappa,phi0,f0"


def test_synthesize_and_verify(sphere_csv, tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    rep_path = tmp_path / "rep.json"
    code = main(["synthesize", "--input", sphere_csv,
                 "--grid-out", str(grid_path), "--out", str(rep_path)])
    assert code == 0
    grid = load_metric_json(grid_path)
    assert grid.G.shape[0] == len(grid.theta_nodes)
    code = main(["verify", "--input", sphere_csv, "--grid", str(grid_path),
                 "--out", str(tmp_path / "rep2.json")])
    assert code == 0


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense\n1,2\n")
    with pytest.raises(SystemExit) as exc:
        main(["check", "--input", str(bad)])
    assert exc.value.code == 2


def test_profile_csv_roundtrip(sphere_csv, tmp_path):
    p = read_profile_csv(sphere_csv)
    out = tmp_path / "again.csv"
    write_profile_csv(p, out)
    q = read_profile_csv(out)
    assert np.array_equal(p.rho, q.rho)
    assert np.array_equal(p.t_nodes, q.t_nodes)


def write_csv(path, t, rho):
    path.write_text("t,rho\n" + "".join(f"{a:.17g},{b:.17g}\n"
                                         for a, b in zip(t, rho)))
    return str(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_sample_exit_code(tmp_path, bad):
    t = np.linspace(-0.04, 0.04, 101)
    rho = np.sqrt(0.01 ** 2 + t ** 2)
    rho[50] = bad
    path = write_csv(tmp_path / "bad.csv", t, rho)
    with pytest.raises(SystemExit) as exc:
        main(["check", "--input", path])
    assert exc.value.code == 2


def test_budget_below_one_exit_code(sphere_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--input", sphere_csv, "--budget", "0"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


@pytest.fixture
def steep_csv(tmp_path):
    t = np.linspace(-0.04, 0.04, 801)
    return write_csv(tmp_path / "steep.csv", t, 0.01 + 1.5 * np.abs(t))


def test_check_not_lipschitz_fails(steep_csv, tmp_path):
    out = tmp_path / "report.json"
    assert main(["check", "--input", steep_csv, "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["verdict"] is False
    assert [rec["name"] for rec in payload["records"]] == [
        "lipschitz_triangle"]


def test_domain_error_exit_code(steep_csv, capsys):
    """analyze has no checker in front: kappa's domain error is reported
    in one line."""
    assert main(["analyze", "--input", steep_csv]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "rho'" in err
