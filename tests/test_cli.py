import base64
import hashlib
import json
from importlib import resources

import numpy as np
import pytest

from geoprofile.calibration import CheckerConstants, DEFAULT_RESOURCE
from geoprofile.cli import main
from geoprofile.report import dumps_deterministic
from geoprofile.profiles import write_profile_csv, read_profile_csv
from geoprofile.surfaces import (spherical_profile, constant_curvature_grid,
                                 perturbed_cone_profile, roundtrip_suite)
from geoprofile.geodesy import MetricGrid, load_metric_json, save_metric_json


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


# sha256 of the analyze outputs on sphere_csv
ANALYZE_DIGESTS = {
    "summary.json":
        "32e542d2f08a81f3796209f113de6210a1b4aea45ff5b34a3adc6ee747a1bc79",
    "plot.csv":
        "9d3be75a59bf35e9f4a0b4b6af97298f2437b37dc724698adc6d39ba0a3831aa",
}


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
    for name, digest in ANALYZE_DIGESTS.items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_synthesize_and_verify(sphere_csv, tmp_path, capsys):
    """The verify file of the saved grid is the synthesize file without
    its f_holder_budget record."""
    grid_path = tmp_path / "grid.json"
    rep_path = tmp_path / "rep.json"
    code = main(["synthesize", "--input", sphere_csv,
                 "--grid-out", str(grid_path), "--out", str(rep_path)])
    assert code == 0
    grid = load_metric_json(grid_path)
    assert grid.G.shape[0] == len(grid.theta_nodes)
    assert list(json.loads(grid_path.read_text())) \
        == ["r_nodes", "theta_nodes", "G"]
    code = main(["verify", "--input", sphere_csv, "--grid", str(grid_path),
                 "--out", str(tmp_path / "rep2.json")])
    assert code == 0
    synthesized = json.loads(rep_path.read_text())
    assert synthesized["records"].pop()["name"] == "f_holder_budget"
    assert dumps_deterministic(synthesized) \
        == (tmp_path / "rep2.json").read_text()


# sha256 of the grid file synthesize writes for roundtrip_suite(1,
# seed=1)[0] read from its CSV, the round trip the CI step runs
ROUNDTRIP_GRID_DIGEST = \
    "be573389695612ca4d3c804367cf9c74ab124937d03255c9391d46d4022499ba"


def test_roundtrip_grid_file_digest(tmp_path):
    csv, grid = tmp_path / "rt.csv", tmp_path / "grid.json"
    write_profile_csv(roundtrip_suite(1, seed=1)[0]["profile"], csv)
    assert main(["synthesize", "--input", str(csv), "--grid-out", str(grid),
                 "--out", str(tmp_path / "synthesize.json")]) == 0
    assert hashlib.sha256(grid.read_bytes()).hexdigest() \
        == ROUNDTRIP_GRID_DIGEST


# sha256 of the --plot-csv file synthesize writes for the same round trip
ROUNDTRIP_PLOT_DIGEST = \
    "4532ff9aca98a6c5a76e9b098907698503b365b6a4a7cbd9d04be3fa90d3fd65"


def test_roundtrip_plot_csv_digest(tmp_path):
    """The plotted curvature K0 - (f^2 + 2 f cot_k + df/dr), formed at the
    plotted nodes only, bit for bit."""
    csv, plot = tmp_path / "rt.csv", tmp_path / "plot.csv"
    write_profile_csv(roundtrip_suite(1, seed=1)[0]["profile"], csv)
    assert main(["synthesize", "--input", str(csv),
                 "--grid-out", str(tmp_path / "grid.json"),
                 "--out", str(tmp_path / "synthesize.json"),
                 "--plot-csv", str(plot)]) == 0
    assert plot.read_text().startswith("r,theta,K\n")
    assert hashlib.sha256(plot.read_bytes()).hexdigest() \
        == ROUNDTRIP_PLOT_DIGEST


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


@pytest.mark.parametrize("command,option,value", [
    ("synthesize", "--tol-geo", "-1"), ("synthesize", "--tol-geo", "nan"),
    ("check", "--alpha", "0"), ("check", "--alpha", "-0.5"),
    ("check", "--alpha", "1.5"), ("check", "--alpha", "nan"),
    ("check", "--h-bound", "0"), ("check", "--h-bound", "-1"),
    ("check", "--h-bound", "inf"), ("calibrate", "--alpha", "0"),
    ("calibrate", "--h-bound", "-1"),
    ("check", "--seed", "-1"), ("synthesize", "--seed", "-1"),
    ("verify", "--seed", "-1"), ("demo eps-bump", "--seed", "-1"),
    ("calibrate", "--seed", "-1"), ("demo eps-bump", "--eps", "-1"),
    ("demo eps-bump", "--beta", "2"), ("demo euclid-offset", "--c", "1.5"),
    ("analyze", "--seed", "1"), ("analyze", "--budget", "1"),
    ("analyze", "--tol-geo", "1"), ("analyze", "--tol-dist", "1"),
    ("check", "--tol-geo", "1e-5"), ("check", "--tol-dist", "1"),
    ("demo eps-bump", "--tol-geo", "1"), ("demo eps-bump", "--tol-dist", "1"),
    ("synthesize", "--tol-dist", "-1"), ("synthesize", "--tol-dist", "0"),
    ("verify", "--tol-dist", "1"), ("verify", "--tol-geo", "1e-5")])
def test_out_of_range_option_exit_code(sphere_csv, tmp_path, capsys, command,
                                       option, value):
    """A curvature bound must be finite and above 0, alpha in
    (0, 1], a seed at least 0, the demos' eps above 0, beta in (0, 1] and
    c in [0, 1); anything else is malformed input, refused before any
    work.  A subcommand offers only the options it reads: analyze has no
    checker sampling, and none takes a geodesic or a distance tolerance,
    since verification's geodesic tolerance is a constant."""
    argv = command.split() + [option, value]
    if command in ("analyze", "check", "synthesize", "verify"):
        argv += ["--input", sphere_csv]
    if command == "synthesize":
        argv += ["--grid-out", str(tmp_path / "grid.json")]
    if command == "verify":
        argv += ["--grid", str(tmp_path / "grid.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"c_kappa": -1}', "[1, 2]",
                                  "t,rho\n0,1\n", '{"c_kappa": "abc"}',
                                  '{"alpha": 1.5}', '{"H": Infinity}',
                                  '{"c_whitney": true}', None],
                         ids=["negative", "list", "csv", "string", "alpha",
                              "infinite", "bool", "directory"])
def test_malformed_constants_exit_code(sphere_csv, tmp_path, capsys, text):
    """A constants file that is not a JSON object of positive finite
    constants is malformed input: a negative c_kappa would otherwise
    silence the curvature record."""
    path = tmp_path / "constants.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["check", "--input", sphere_csv, "--constants", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("malformed input: ")


@pytest.mark.parametrize("edit,keys", [
    (lambda d: d.pop("c_k_sup"), ["c_k_sup"]),
    (lambda d: d.update(c_kapa_alpha=d.pop("c_kappa_alpha")),
     ["c_kapa_alpha", "c_kappa_alpha"]),
    (lambda d: d.update(c_rhoest1_lo=1.05), ["c_rhoest1_lo"]),
    (dict.clear, ["alpha", "c_k_sup", "extras"]),
    (lambda d: d.update(version=3), ["version"]),
    (lambda d: d.update(extras=5), ["extras"])],
    ids=["missing", "misspelled", "retired", "empty", "version", "extras"])
def test_constants_file_needs_exactly_its_keys(sphere_csv, tmp_path, capsys,
                                               edit, keys):
    """No default fills a constant the file lacks, and a key no record
    reads is not set aside: the shipped file less one constant, with one
    misspelled or with one that is no longer calibrated is malformed
    input, as is an empty object, a version that is not a string and
    extras that are not an object, and the message names the keys."""
    d = json.loads(resources.files("geoprofile").joinpath(
        "data", DEFAULT_RESOURCE).read_text())
    edit(d)
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(d))
    with pytest.raises(SystemExit) as exc:
        main(["check", "--input", sphere_csv, "--constants", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("malformed input: ")
    assert all(key in err for key in keys), err


def test_shipped_constants_keep_their_bytes():
    """Loading the shipped constants converts no value: they write back
    the same bytes."""
    path = resources.files("geoprofile").joinpath("data", DEFAULT_RESOURCE)
    text = path.read_text()
    consts = CheckerConstants.from_dict(json.loads(text))
    assert dumps_deterministic(consts.to_dict()) == text


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


def test_check_step_csv_fails_at_any_budget(tmp_path, capsys):
    """sqrt(0.01^2 + t^2) on 3001 nodes with one step of slope 1.5
    between nodes 1500 and 1501: every node pair is read, so check fails
    it on lipschitz_triangle alone at any budget, as a verdict."""
    t = np.linspace(-0.1, 0.1, 3001)
    rho = np.sqrt(0.01 ** 2 + t ** 2)
    rho[1501:] += 1.5 * (t[1501] - t[1500]) - (rho[1501] - rho[1500])
    csv = write_csv(tmp_path / "step.csv", t, rho)
    out = tmp_path / "report.json"
    for budget in ("1", "24", "240"):
        assert main(["check", "--input", csv, "--budget", budget,
                     "--out", str(out)]) == 1, budget
        records = json.loads(out.read_text())["records"]
        assert [rec["name"] for rec in records] == ["lipschitz_triangle"]
    assert capsys.readouterr().err == ""


def test_synthesize_past_the_premise_fails(tmp_path, capsys):
    """The sphere profile at m = 0.3 on [-1.5, 1.5] passes check, but its
    disc has c_k_sup H R^2 > pi^2/4: synthesize exits 1 on curvature_sup,
    whose detail states the premise."""
    csv = tmp_path / "sphere.csv"
    write_profile_csv(spherical_profile(1.0, 0.3, (-1.5, 1.5)), csv)
    out = tmp_path / "synth.json"
    assert main(["synthesize", "--input", str(csv), "--out", str(out),
                 "--grid-out", str(tmp_path / "grid.json")]) == 1
    rec = {r["name"]: r for r in json.loads(out.read_text())["records"]}
    assert not rec["curvature_sup"]["pass"]
    assert rec["curvature_sup"]["detail"].startswith("premise")


def test_domain_error_exit_code(steep_csv, capsys):
    """analyze has no checker in front: kappa's domain error is reported
    in one line."""
    assert main(["analyze", "--input", steep_csv]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "rho'" in err


@pytest.fixture
def sharp_minimum_csv(tmp_path):
    """1-Lipschitz, but rho rho''/(1 - rho'^2) = 2000 at the minimum lies
    above the range of phi_inverse: kappa there is below -1e6 / m^2."""
    t = np.linspace(-4e-6, 4e-6, 2001)
    return write_csv(tmp_path / "sharp.csv", t, 0.01 + 1e5 * t ** 2)


def test_sharp_minimum_is_unrealizable(sharp_minimum_csv, tmp_path, capsys):
    """A curvature too negative to resolve is a failed check, not
    malformed input; forced synthesis refuses it without a traceback."""
    out = tmp_path / "report.json"
    assert main(["check", "--input", sharp_minimum_csv,
                 "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["meta"]["K0_clamped"] is True
    failed = {rec["name"] for rec in payload["records"] if not rec["pass"]}
    assert "curvature_bound" in failed
    assert main(["synthesize", "--force", "--input", sharp_minimum_csv,
                 "--grid-out", str(tmp_path / "grid.json")]) == 1
    assert "synthesis failed" in capsys.readouterr().out


def test_analyze_sharp_minimum_has_infinite_kappa(sharp_minimum_csv,
                                                  tmp_path):
    """kappa beyond the range phi_inverse resolves is infinite, not
    malformed input."""
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--input", sharp_minimum_csv,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["max_abs_kappa"] == "inf"


@pytest.mark.parametrize("m", [0.05, 0.2])
def test_endpoint_minimum_near_pole_is_a_failed_check(tmp_path, capsys, m):
    """The minimum sits at the left end, where rho' is within 1e-10 of 1
    and v = rho rho''/(1 - rho'^2) is about -5e4 (m = 0.05) or -1.9e5
    (m = 0.2): inside the range of phi_inverse, but beyond the reach of
    its residual tolerance.  K0 is finite and clamped, check fails,
    analyze succeeds, and neither writes to stderr."""
    t = np.linspace(0.0, 0.1, 2001)
    csv = write_csv(tmp_path / "endpoint.csv", t,
                    m + (np.sin(10 * (t + 1e-6)) - np.sin(1e-5)) / 10)
    out = tmp_path / "report.json"
    assert main(["check", "--input", csv, "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["meta"]["K0_clamped"] is True
    failed = {rec["name"] for rec in payload["records"] if not rec["pass"]}
    assert "curvature_bound" in failed
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--input", csv, "--out", str(out)]) == 0
    assert np.isfinite(json.loads(out.read_text())["max_abs_kappa"])
    assert capsys.readouterr().err == ""


def _grid_G(d):
    """The G array of a parsed grid file."""
    return np.frombuffer(base64.b64decode(d["G"]), dtype="<f8").reshape(
        len(d["theta_nodes"]), len(d["r_nodes"]))


def _encode_G(G):
    return base64.b64encode(
        np.ascontiguousarray(G, dtype="<f8").tobytes()).decode("ascii")


def _corrupt_grid(text):
    """Eight kinds of damage to a grid file: cut short, a key gone,
    theta_nodes one short of the rows of G, one theta node, no r nodes,
    and a G that is the old nested list, one node short, or not base64.
    one_theta and no_r cut G's array and encode it again, so that
    MetricGrid is what refuses them."""
    d = json.loads(text)
    G = _grid_G(d)
    return {
        "truncated": text[:len(text) // 2],
        "missing_key": json.dumps({k: v for k, v in d.items() if k != "G"}),
        "inconsistent": json.dumps(
            {**d, "theta_nodes": d["theta_nodes"][:-1]}),
        "one_theta": json.dumps({**d, "theta_nodes": d["theta_nodes"][:1],
                                 "G": _encode_G(G[:1])}),
        "no_r": json.dumps({**d, "r_nodes": [], "G": _encode_G(G[:, :0])}),
        "nested_G": json.dumps({**d, "G": G.tolist()}),
        "short_G": json.dumps({**d, "G": _encode_G(G.ravel()[:-1])}),
        "not_base64": json.dumps({**d, "G": "*" + d["G"][1:]}),
    }


@pytest.mark.parametrize("damage", ["truncated", "missing_key",
                                    "inconsistent", "one_theta", "no_r",
                                    "nested_G", "short_G", "not_base64",
                                    "directory"])
def test_verify_malformed_grid_exit_code(sphere_csv, tmp_path, capsys,
                                         damage):
    bad = tmp_path / "bad.json"
    if damage == "directory":
        bad.mkdir()
    else:
        good = tmp_path / "good.json"
        save_metric_json(
            constant_curvature_grid(0.5, 0.05, n_r=40, n_theta=8), good)
        bad.write_text(_corrupt_grid(good.read_text())[damage])
    # a damaged file is refused while it is read, a directory by main
    try:
        code = main(["verify", "--input", sphere_csv, "--grid", str(bad)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("malformed input: ")
    if damage == "nested_G":
        assert err.endswith(
            "ValueError: G is not a base64 string: grid files with a "
            "nested-list G predate the base64 format; synthesize rewrites "
            "them\n")


def test_verify_grid_past_psi_domain_exit_code(sphere_csv, tmp_path,
                                               capsys, consts):
    """At --h-bound 1e4 the disc's c_k_sup H R^2 is at least pi^2: verify
    fails it, not as malformed input, with exit 1 and a report whose
    envelope record names c_k_sup H R^2."""
    grid = constant_curvature_grid(0.5, 0.05, n_r=40, n_theta=8)
    path, out = tmp_path / "grid.json", tmp_path / "verify.json"
    save_metric_json(grid, path)
    assert main(["verify", "--input", sphere_csv, "--grid", str(path),
                 "--h-bound", "1e4", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    rec = {r["name"]: r for r in json.loads(out.read_text())["records"]}[
        "radius_ratio_envelope"]
    h_r2 = consts.c_k_sup * 1e4 * grid.R ** 2
    assert rec["margin"] == "inf" and not rec["pass"]
    assert rec["detail"] \
        == f"c_k_sup*H*R^2 = {h_r2:.6g} >= pi^2, outside psi's domain"


def test_verify_ignores_a_grid_files_H(sphere_csv, tmp_path):
    """A grid file that still carries the H key of the older format loads,
    and verify writes the same report bytes with H absent, 1e4 or NaN:
    the envelope reads c_k_sup H of the checker constants."""
    path = tmp_path / "grid.json"
    save_metric_json(
        constant_curvature_grid(0.5, 0.05, n_r=400, n_theta=64), path)
    d = json.loads(path.read_text())
    reports = set()
    for name, H in (("absent", None), ("big", 1e4), ("nan", float("nan"))):
        grid_path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out"
        grid_path.write_text(json.dumps(d if H is None else {"H": H, **d}))
        main(["verify", "--input", sphere_csv, "--grid", str(grid_path),
              "--out", str(out)])
        reports.add(out.read_bytes())
    assert len(reports) == 1


@pytest.mark.parametrize("command,option", [
    ("check", "--out"), ("analyze", "--out"), ("analyze", "--plot-csv")])
def test_directory_output_path_exit_code(sphere_csv, tmp_path, capsys,
                                         command, option):
    """An output path that names a directory cannot be written: exit 2
    with a one-line message, not a traceback."""
    target = tmp_path / "taken"
    target.mkdir()
    assert main([command, "--input", sphere_csv, option, str(target)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("malformed input: ")


def test_fewer_than_six_samples_exit_code(tmp_path, capsys):
    """A quintic spline needs 6 samples: 5 are malformed input."""
    t = np.linspace(-0.04, 0.04, 5)
    path = write_csv(tmp_path / "five.csv", t, np.sqrt(0.01 ** 2 + t ** 2))
    with pytest.raises(SystemExit) as exc:
        main(["check", "--input", path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert ">= 6 samples" in err


def test_variable_curvature_csv_roundtrip(variable_curvature_profile,
                                          tmp_path, capsys):
    """From samples alone, the quintic spline's derivatives carry the
    profile through synthesis and verification."""
    csv = tmp_path / "vc.csv"
    write_profile_csv(variable_curvature_profile, csv)
    grid = tmp_path / "grid.json"
    assert main(["synthesize", "--input", str(csv), "--grid-out", str(grid),
                 "--out", str(tmp_path / "synth.json")]) == 0
    assert main(["verify", "--input", str(csv), "--grid", str(grid),
                 "--out", str(tmp_path / "verify.json")]) == 0


def test_verify_generating_disc(variable_curvature_disc, tmp_path, capsys):
    """The disc the variable-curvature profile was integrated on, read
    back from its grid file, realizes the profile's CSV samples."""
    grid, profile = variable_curvature_disc
    csv, grid_path = tmp_path / "vc.csv", tmp_path / "disc.json"
    write_profile_csv(profile, csv)
    save_metric_json(grid, grid_path)
    assert main(["verify", "--input", str(csv), "--grid", str(grid_path),
                 "--out", str(tmp_path / "verify.json")]) == 0


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_bump_csv_check_fails(eps, tmp_path, capsys):
    csv = tmp_path / "bump.csv"
    write_profile_csv(perturbed_cone_profile(eps, 0.25), csv)
    out = tmp_path / "report.json"
    assert main(["check", "--input", str(csv), "--out", str(out)]) == 1
    failed = {rec["name"] for rec in json.loads(out.read_text())["records"]
              if not rec["pass"]}
    assert "f0_size" in failed
