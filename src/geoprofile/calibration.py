"""The calibrated factors of the inequalities the checkers evaluate.

The comparison lemmas bound quantities only up to unspecified positive
factors; to make them operational each factor is calibrated: the
generator suite of known-good surfaces is run, the worst observed ratio
per inequality is recorded, and the stored constant is twice that.  The
packaged file ``data/default_calibration.json`` carries the provenance.
Constants the theory fixes (|kappa| <= H, |phi0| <= 3pi/4, 1-Lipschitz)
carry a fixed slack beside the records that read them, in
`profile_analysis` and `profiles`, and are not in the file.
"""

import json
import math
from dataclasses import dataclass, asdict
from importlib import resources

from .report import dumps_deterministic

DEFAULT_RESOURCE = "default_calibration.json"


@dataclass
class CheckerConstants:
    """Calibrated multipliers, keyed by the inequality they scale: every
    field is what `calibrate_constants` writes, and none has a default."""

    alpha: float
    H: float
    version: str
    # distance-profile finiteness checker
    c_kappa_alpha: float
    c_phi0vary_C: float
    c_f0est1: float
    c_f0est2: float
    c_f0est3: float
    c_f0est4: float
    # Riccati stability conclusions (a)-(d)
    c_riccati_a: float
    c_riccati_b: float
    c_riccati_c: float
    c_riccati_d: float
    # curve-to-angle comparison surrogates
    c_phi_ratio: float
    c_rhoddot: float
    # synthesis verification thresholds
    c_k_sup: float
    c_k_holder: float
    c_f_holder_budget: float
    # measured Whitney implementation constant
    c_whitney: float
    extras: dict

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Constants from a decoded JSON object; ValueError unless its
        ``c_*`` and ``H`` are finite numbers > 0, ``alpha`` is in (0, 1],
        ``version`` is a string, ``extras`` an object, and its keys are
        exactly the fields, each named in the message.  Values are kept
        as given, so they write back the same bytes."""
        if not isinstance(d, dict):
            raise ValueError(f"not a JSON object: {type(d).__name__}")
        for key, value in d.items():
            if key == "version" and not isinstance(value, str):
                raise ValueError(f"version must be a string, got {value!r}")
            if key == "extras" and not isinstance(value, dict):
                raise ValueError(f"extras must be an object, got {value!r}")
            top = 1 if key == "alpha" else math.inf
            if ((key in ("H", "alpha") or key.startswith("c_")) and not (
                    type(value) in (int, float) and 0 < value <= top
                    and math.isfinite(value))):
                raise ValueError(f"{key} must be a finite number in "
                                 f"(0, {top}], got {value!r}")
        fields = cls.__dataclass_fields__
        unknown = [k for k in d if k not in fields]
        missing = [k for k in fields if k not in d]
        if unknown or missing:
            raise ValueError(f"unknown keys {unknown}, missing keys {missing}")
        return cls(**d)


def save_constants(consts, path):
    with open(path, "w") as fh:
        fh.write(dumps_deterministic(consts.to_dict()))


def load_constants(path):
    with open(path) as fh:
        return CheckerConstants.from_dict(json.load(fh))


def default_constants():
    """Constants shipped with the package (calibrated, versioned)."""
    ref = resources.files("geoprofile").joinpath("data", DEFAULT_RESOURCE)
    with ref.open() as fh:
        return CheckerConstants.from_dict(json.load(fh))


# -- calibration ---------------------------------------------------------------

# record -> (constant, floor): the record is measured with its constant
# at 1, and the constant is set to max(2 * worst margin, floor)
_CALIBRATED = {
    # finiteness checker
    "kappa_holder": ("c_kappa_alpha", 1.0),
    "f0_size": ("c_f0est1", 1.0),
    "f0_slope": ("c_f0est2", 1.0),
    "f0_slope_pair": ("c_f0est3", 1.0),
    "f0_cross_scale": ("c_f0est4", 1.0),
    "angle_ratio": ("c_phi0vary_C", 1.0),
    # Riccati stability conclusions (a)-(d)
    "riccati_a_sup_f": ("c_riccati_a", 0.5),
    "riccati_b_sup_fprime": ("c_riccati_b", 0.5),
    "riccati_c_holder_f": ("c_riccati_c", 0.5),
    "riccati_d_holder_fprime": ("c_riccati_d", 0.5),
    # synthesis: three verify_synthesis records and two surrogates
    "curvature_sup": ("c_k_sup", 1.1),
    "curvature_holder": ("c_k_holder", 1.0),
    "f_holder_budget": ("c_f_holder_budget", 1.0),
    "phi_ratio": ("c_phi_ratio", 1.0),
    "rhoddot": ("c_rhoddot", 1.5),
}
_SYNTHESIS_RECORDS = ("curvature_sup", "curvature_holder", "f_holder_budget",
                      "phi_ratio", "rhoddot")


def random_riccati_pair(rng, alpha=0.5):
    """Two admissible curvature fields with H*R^2 <= pi^2/4 and a known
    sup-difference, for calibrating and testing the stability bounds."""
    from .ode_core import RadialCurvature
    import numpy as np

    R = float(rng.uniform(0.6, 1.4))
    H = float(rng.uniform(0.3, 0.9)) * (np.pi ** 2 / 4) / R ** 2
    amp = 0.9 * H
    w1, w2 = rng.uniform(1.0, 6.0, size=2)
    p1, p2 = rng.uniform(0, 2 * np.pi, size=2)
    a2 = float(rng.uniform(0.2, 1.0))

    def K1(r, amp=amp, w1=w1, p1=p1):
        return amp * np.sin(w1 * np.asarray(r, dtype=float) + p1)

    def K2(r, amp=amp, w1=w1, p1=p1, a2=a2, w2=w2, p2=p2):
        r = np.asarray(r, dtype=float)
        base = amp * np.sin(w1 * r + p1)
        pert = amp * 0.5 * a2 * np.sin(w2 * r + p2)
        return np.clip(base + pert, -0.98 * H, 0.98 * H)

    k1 = RadialCurvature(K=K1, R=R, H=H, alpha=alpha)
    k2 = RadialCurvature(K=K2, R=R, H=H, alpha=alpha)
    r_min = float(rng.uniform(0.02, 0.15)) * R
    return k1, k2, r_min


def random_whitney_dataset(rng, alpha=0.5):
    """Admissible sampled data with measured T1, T2 for extension tests."""
    import numpy as np
    from .whitney import SampledFunction, extension_bounds

    n = int(rng.integers(5, 26))
    x = np.sort(rng.uniform(0.0, 1.0, size=n))
    while np.min(np.diff(x)) < 1e-3:
        x = np.sort(rng.uniform(0.0, 1.0, size=n))
    a, b, c = rng.uniform(-1, 1, size=3)
    w = rng.uniform(1.0, 4.0)
    y = a * x + 0.3 * b * np.sin(w * x) + 0.2 * c * x * x
    s = SampledFunction(x, y)
    interval = (0.0, 1.0)
    return s, *extension_bounds(s, alpha, interval), interval


def calibrate_constants(alpha=0.5, H=1.0, seed=1729, n_grid=16,
                        n_closed=18, n_riccati=40, n_whitney=100,
                        n_roundtrip=6, budget=240, version=None,
                        verbose=False):
    """Measure worst inequality ratios on known-good inputs and freeze
    the calibrated constants (worst * 2, floored as ``_CALIBRATED`` says)."""
    import numpy as np
    from . import surfaces
    from .profile_analysis import twelve_point_configurations, finiteness_check
    from .ode_core import riccati_stability_check
    from .whitney import whitney_extend
    from .synthesis import synthesize, verify_synthesis

    rng = np.random.default_rng(seed)
    unit = CheckerConstants(
        alpha=alpha, H=H, version="unit", c_whitney=1.0, extras={},
        **{const: 1.0 for const, _ in _CALIBRATED.values()})

    # synthesis records go to their own provenance entry, 0 until measured
    worst, synth_worst = {}, dict.fromkeys(_SYNTHESIS_RECORDS, 0.0)

    def note(into, name, margin):
        if name in _CALIBRATED:
            into[name] = max(into.get(name, 0.0), float(margin))

    profiles = []
    for entry in surfaces.checker_suite(n_grid, seed=seed + 1):
        profiles.append((entry["label"], entry["profile"]))
    ks = np.linspace(-1.0, 1.0, max(3, n_closed // 3))
    ms = (1.5e-3, 4e-3, 1.2e-2)
    for K in ks:
        for m in ms:
            half = np.sqrt(0.045 ** 2 - m * m)
            prof = surfaces.constant_curvature_profile(
                float(K), m, (-half, half), n=3001)
            profiles.append((f"const(K={K:.2f},m={m})", prof))
    for label, prof in profiles:
        cfgs = twelve_point_configurations(prof.interval, budget, seed=seed)
        rep = finiteness_check(prof, unit, cfgs)
        for rec in rep.records:
            note(worst, rec.name, rec.margin)
        if verbose:
            w = max(rep.records, key=lambda r: r.margin)
            print(f"  {label}: worst {w.name}={w.margin:.3g}")

    for _ in range(n_riccati):
        k1, k2, r_min = random_riccati_pair(rng, alpha=alpha)
        rep = riccati_stability_check(k1, k2, r_min, unit, step=k1.R / 1500)
        for rec in rep.records:
            note(worst, rec.name, rec.margin)

    cw = []
    wrng = np.random.default_rng(seed + 7)
    for _ in range(n_whitney):
        s, T1, T2, interval = random_whitney_dataset(wrng, alpha=alpha)
        ext = whitney_extend(s, alpha, T1, T2, interval)
        cw.append(ext.c_w)
    c_whitney = float(np.max(cw)) * 1.05

    entries = surfaces.roundtrip_suite(n_roundtrip, seed=seed + 3)
    for entry in entries:
        prof = entry["profile"]
        res = synthesize(prof, unit)
        for rec in verify_synthesis(res, prof, unit).records:
            note(synth_worst, rec.name, rec.margin)
        m = res.summary.m
        rdd = np.max(np.abs(prof.second_deriv(prof.t_nodes)))
        note(synth_worst, "rhoddot", rdd * m / H)
        lam = max(res.theta_map.lipschitz_constants())
        hr2 = H * float(np.max(prof.rho)) ** 2
        log_ratio = abs(np.log(lam))
        note(synth_worst, "phi_ratio",
             log_ratio / hr2 ** (1 + alpha / 2) if hr2 > 0 else 0.0)

    measured = {**worst, **synth_worst}
    provenance = {
        "seed": seed, "n_grid_profiles": n_grid,
        "n_closed_form": len(profiles) - n_grid,
        "n_riccati_pairs": n_riccati, "n_whitney": n_whitney,
        "n_roundtrips": n_roundtrip, "budget": budget,
        "raw_worst": {k: float(v) for k, v in sorted(worst.items())},
        "synthesis_worst": {k: float(v) for k, v in sorted(synth_worst.items())},
    }
    return CheckerConstants(
        alpha=alpha, H=H, version=version or f"cal-{seed}",
        c_whitney=c_whitney, extras={"provenance": provenance},
        **{const: max(2.0 * measured.get(name, 0.0), floor)
           for name, (const, floor) in _CALIBRATED.items()})
