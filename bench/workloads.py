"""Workloads of the benchmark: their inputs, operations and oracle.

Every input is generated from the benchmark's ``--seed``; the package
only ever sees the generated profiles, seeds and files.  A workload's
``setup`` builds the inputs and returns one pass: a list of operations.  An
operation takes one profile through every stage of the workload (one
``calibrate_constants`` call in ``calibrate``), times each stage call,
checks each outcome against the expected one and hashes every report,
grid and constants file it produced.

Outcome accounting:

- ``failed``: a stage call that raised, or whose verdict or exit code
  differs from the expected one (a realizable profile that is refused
  counts here).
- ``wrong``: output that is wrong rather than refused, which makes the
  run's ``correct`` false: a defect profile accepted, a written report
  whose verdict disagrees with the exit code, constants that do not
  load back or sit below their floors.
"""

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from geoprofile import calibration, cli, profile_analysis, surfaces, synthesis
from geoprofile.profiles import write_profile_csv

BUDGET = 240
N_ROUNDTRIP = 6          # roundtrip_suite profiles per pass
N_CHECKER = 12           # checker_suite profiles per pass (plus 3 defects)
N_CLI_ROUNDTRIP = 1      # round-trip profile among the CLI files
N_CALIBRATE = 5          # calibrate_constants calls per pass
# calibrate_constants sizing: the Riccati-stability and Whitney suites
# carry most of the time, the checker suite (budget 24) the rest
CALIBRATE_SIZES = dict(n_grid=1, n_closed=3, n_riccati=8, n_whitney=12,
                       n_roundtrip=0, budget=24)


def sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def file_sha256(path):
    with open(path, "rb") as fh:
        return sha256(fh.read())


@dataclass
class OpResult:
    key: str
    stages: dict = field(default_factory=dict)    # stage -> seconds
    status: dict = field(default_factory=dict)    # stage -> StageStatus
    digests: dict = field(default_factory=dict)   # artifact -> sha256

    @property
    def seconds(self):
        return sum(self.stages.values())

    def _note(self, stage, failed, wrong, note):
        st = self.status.setdefault(stage, StageStatus())
        st.failed |= failed
        st.wrong |= wrong
        if failed:
            st.notes.append(note)

    def ok(self, stage):
        self._note(stage, False, False, "")

    def expect(self, stage, got, want, wrong_if_unexpected=False, note=""):
        failed = got != want
        self._note(stage, failed, failed and wrong_if_unexpected,
                   note or f"got {got!r}, expected {want!r}")

    def error(self, stage, exc):
        self._note(stage, True, False, f"{type(exc).__name__}: {exc}")

    def wrong(self, stage, note):
        self._note(stage, True, True, note)


@dataclass
class StageStatus:
    """Outcome of one stage call: one attempted operation."""
    failed: bool = False
    wrong: bool = False
    notes: list = field(default_factory=list)


def _grid_digest(grid):
    h = hashlib.sha256()
    for arr in (grid.r_nodes, grid.theta_nodes, grid.G):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


# -- roundtrip: check, synthesize, verify in process ---------------------------


def _roundtrip_op(key, p, configs, consts, seed):
    out = OpResult(key)
    try:
        t0 = perf_counter()
        rep = profile_analysis.finiteness_check(p, consts, configs)
        out.stages["check"] = perf_counter() - t0
        out.expect("check", rep.verdict, True)
        out.digests["check_report"] = sha256(rep.to_json())
    except Exception as exc:  # record, keep the loop running
        out.error("check", exc)
        return out
    try:
        t0 = perf_counter()
        res = synthesis.synthesize(p, consts)
        out.stages["synthesize"] = perf_counter() - t0
        out.ok("synthesize")
        out.digests["grid"] = _grid_digest(res.metric)
    except Exception as exc:
        out.error("synthesize", exc)
        return out
    try:
        t0 = perf_counter()
        vrep = synthesis.verify_synthesis(res, p, consts, seed=seed)
        out.stages["verify"] = perf_counter() - t0
        out.expect("verify", vrep.verdict, True)
        out.digests["verify_report"] = sha256(vrep.to_json())
    except Exception as exc:
        out.error("verify", exc)
    return out


def setup_roundtrip(seed, workdir):
    consts = calibration.default_constants()
    ops = []
    for i, entry in enumerate(surfaces.roundtrip_suite(N_ROUNDTRIP,
                                                       seed=seed)):
        p = entry["profile"]
        configs = profile_analysis.twelve_point_configurations(
            p.interval, BUDGET, seed=seed)
        key = f"rt[{i}] {entry['label']}"
        ops.append(lambda k=key, p=p, c=configs:
                   _roundtrip_op(k, p, c, consts, seed))
    return ops


# -- checker: finiteness_check only ---------------------------------------------


def _checker_op(key, p, configs, consts, expect_pass, must_fail):
    out = OpResult(key)
    try:
        t0 = perf_counter()
        rep = profile_analysis.finiteness_check(p, consts, configs)
        out.stages["check"] = perf_counter() - t0
    except Exception as exc:
        out.error("check", exc)
        return out
    out.expect("check", rep.verdict, expect_pass,
               wrong_if_unexpected=not expect_pass)
    for name in must_fail:
        if rep.record(name).passed:
            out.wrong("check", f"record {name} passed on a defect profile")
    out.digests["check_report"] = sha256(rep.to_json())
    return out


def setup_checker(seed, workdir):
    consts = calibration.default_constants()
    inputs = [(f"ck[{i}] {e['label']}", e["profile"], True, ())
              for i, e in enumerate(surfaces.checker_suite(N_CHECKER,
                                                           seed=seed))]
    inputs += [
        ("bump(eps=1e-2)", surfaces.perturbed_cone_profile(1e-2, 0.25),
         False, ()),
        ("bump(eps=1e-3)", surfaces.perturbed_cone_profile(1e-3, 0.25),
         False, ()),
        ("offset(c=0.99)", surfaces.offset_hyperbola_profile(0.99),
         False, ("curvature_bound",)),
    ]
    ops = []
    for key, p, expect_pass, must_fail in inputs:
        configs = profile_analysis.twelve_point_configurations(
            p.interval, BUDGET, seed=seed)
        ops.append(lambda k=key, p=p, c=configs, e=expect_pass, m=must_fail:
                   _checker_op(k, p, c, consts, e, m))
    return ops


# -- cli_files: the command line on profile CSV files -----------------------------


def variable_curvature_profile():
    """The profile of the variable-curvature round-trip test: curvature
    0.2 + 0.25 sin(6 r + 1) on a disc of radius 0.065, geodesic at
    minimal distance 0.008, half length 0.038 (761 nodes)."""
    def K_fn(r, theta):
        return (0.2 + 0.25 * np.sin(6.0 * r + 1.0)) * np.ones_like(theta)
    grid = surfaces.variable_curvature_grid(K_fn, 0.065, H=1.0)
    p, _ = surfaces.grid_profile(grid, 0.008, 0.038)
    return p


def _cli(argv):
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, perf_counter() - t0


def _report_verdict(path):
    with open(path) as fh:
        return json.load(fh)["verdict"]


def _cli_op(key, csv, stem, realizable, seed):
    out = OpResult(key)
    common = ["--input", csv, "--budget", str(BUDGET), "--seed", str(seed)]
    check_json, synth_json = stem + ".check.json", stem + ".synth.json"
    grid_json, verify_json = stem + ".grid.json", stem + ".verify.json"
    for path in (check_json, synth_json, grid_json, verify_json):
        if os.path.exists(path):
            os.remove(path)
    want = 0 if realizable else 1

    def run(stage, argv, report):
        try:
            code, seconds = _cli(argv)
        except Exception as exc:
            out.error(stage, exc)
            return None
        out.stages[stage] = seconds
        out.expect(stage, code, want, wrong_if_unexpected=not realizable,
                   note=f"exit code {code}, expected {want}")
        if os.path.exists(report):
            out.digests[stage + "_report"] = file_sha256(report)
            try:
                agrees = _report_verdict(report) == (code == 0)
            except (ValueError, KeyError) as exc:
                out.wrong(stage, f"unreadable report: {exc}")
            else:
                if not agrees:
                    out.wrong(stage, f"report verdict disagrees with exit "
                                     f"{code}")
        return code

    run("check", ["check", "--out", check_json] + common, check_json)
    code = run("synthesize", ["synthesize", "--grid-out", grid_json,
                              "--out", synth_json] + common, synth_json)
    if code is not None and os.path.exists(grid_json):
        out.digests["grid"] = file_sha256(grid_json)
        run("verify", ["verify", "--grid", grid_json,
                       "--out", verify_json] + common, verify_json)
    return out


def setup_cli_files(seed, workdir):
    profiles = [("vc", "variable-curvature", variable_curvature_profile(),
                 True)]
    for i, e in enumerate(surfaces.roundtrip_suite(N_CLI_ROUNDTRIP,
                                                   seed=seed)):
        profiles.append((f"rt{i}", f"rt[{i}] {e['label']}", e["profile"],
                         True))
    profiles.append(("bump", "bump(eps=1e-3)",
                     surfaces.perturbed_cone_profile(1e-3, 0.25), False))
    ops = []
    for stem, key, p, realizable in profiles:
        csv = os.path.join(workdir, stem + ".csv")
        write_profile_csv(p, csv)
        ops.append(lambda k=key, c=csv, s=os.path.join(workdir, stem),
                   r=realizable: _cli_op(k, c, s, r, seed))
    return ops


# -- calibrate: calibrate_constants -----------------------------------------------


def _floors():
    floors = {name: 1.0 for name in (
        "c_kappa_alpha", "c_f0est1", "c_f0est2", "c_f0est3", "c_f0est4",
        "c_phi0vary_C", "c_k_holder", "c_f_holder_budget", "c_phi_ratio")}
    floors.update({name: 0.5 for name in (
        "c_riccati_a", "c_riccati_b", "c_riccati_c", "c_riccati_d")})
    floors.update(c_k_sup=1.1, c_rhoddot=1.5)
    return floors


def _calibrate_op(key, cal_seed, path):
    out = OpResult(key)
    try:
        t0 = perf_counter()
        consts = calibration.calibrate_constants(seed=cal_seed,
                                                 **CALIBRATE_SIZES)
        out.stages["calibrate"] = perf_counter() - t0
    except Exception as exc:
        out.error("calibrate", exc)
        return out
    calibration.save_constants(consts, path)
    out.digests["constants"] = file_sha256(path)
    loaded = calibration.load_constants(path).to_dict()
    problems = []
    if loaded != consts.to_dict():
        problems.append("constants file does not load back equal")
    for name, floor in _floors().items():
        value = getattr(consts, name)
        if not (math.isfinite(value) and value >= floor):
            problems.append(f"{name} = {value!r} below floor {floor}")
    if not math.isfinite(consts.c_whitney) or consts.c_whitney <= 0:
        problems.append(f"c_whitney = {consts.c_whitney!r}")
    prov = consts.extras.get("provenance", {})
    if (prov.get("n_riccati_pairs"), prov.get("n_whitney")) != (
            CALIBRATE_SIZES["n_riccati"], CALIBRATE_SIZES["n_whitney"]):
        problems.append("provenance sizes differ from the request")
    if problems:
        out.wrong("calibrate", "; ".join(problems))
    else:
        out.ok("calibrate")
    return out


def setup_calibrate(seed, workdir):
    ops = []
    for i in range(N_CALIBRATE):
        cal_seed = seed * 1000 + i
        path = os.path.join(workdir, f"constants-{i}.json")
        ops.append(lambda k=f"cal[{i}] seed={cal_seed}", s=cal_seed, p=path:
                   _calibrate_op(k, s, p))
    return ops


WORKLOADS = {
    "roundtrip": setup_roundtrip,
    "checker": setup_checker,
    "cli_files": setup_cli_files,
    "calibrate": setup_calibrate,
}
# Duration of one pass on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4).  A
# run makes round(--seconds / PASS_SECONDS) passes, at least one, so the
# work in a run does not change with the speed of the machine.
PASS_SECONDS = {"roundtrip": 11.0, "checker": 5.5, "cli_files": 7.0,
                "calibrate": 13.0}
# stage of each workload's ops, in order
STAGES = {
    "roundtrip": ("check", "synthesize", "verify"),
    "checker": ("check",),
    "cli_files": ("check", "synthesize", "verify"),
    "calibrate": ("calibrate",),
}
