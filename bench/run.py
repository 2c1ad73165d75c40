"""Benchmark of geoprofile's check, synthesize, verify and calibrate paths.

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 15 --trace 0

One invocation runs one workload in this single process as a closed loop
with one client: one operation at a time, the next only after the
previous returned.  BLAS threads are pinned to 1 before numpy loads, and
the package is imported from the ``src/`` directory beside ``bench/``.

``--trace 0``: set the inputs up ``SETUP_REPEATS`` times (each set-up
ends with one warm-up operation, which calls every stage once), then run
whole passes over the inputs, as many as take ``--seconds`` on the
reference machine (``workloads.PASS_SECONDS``), and report the
end-to-end metrics.

``--trace 1``: the same untraced measurement, then the tracer wraps the
package's public functions, the inputs are set up once more and one full
pass runs traced.  The per-module metrics come from that traced phase,
so their counts repeat exactly for a given seed; the tracing overhead is
each end-to-end metric of the traced pass minus the same metric of the
first untraced pass.  A
last pass with only tracemalloc around ``finiteness_check`` gives the
checker's peak traced memory.

Standard output is a table of every metric with its unit and sample
count, the sha256 digest of every report, grid and constants file, and
as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` and ``failed``
count the stage calls of every measured pass (see ``workloads``);
``correct`` is false when an output was wrong or an input's report,
grid or constants digest changed between two visits in the run.  A full record (environment,
per-operation times and outcomes, digests, spans) is written to
``bench/results/<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BLAS_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
SETUP_REPEATS = 3
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# reported in the result line with --trace 0
END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
# reported in the result line with --trace 1
TIMED_WITH_CALLS = (
    "special_functions.phi_inverse", "ode_core.riccati_stability_check",
    "ode_core.solve_riccati", "geodesy.distance",
    "geodesy.geodesic_integrate", "profiles.value", "whitney.whitney_extend",
    "whitney.holder_seminorm_pairs", "profile_analysis.analyze",
    "synthesis.extend_fk")
TIMED = (
    "geodesy.save_metric_json", "geodesy.load_metric_json", "profiles.deriv",
    "profiles.second_deriv", "profiles.read_profile_csv",
    "profile_analysis.twelve_point_configurations",
    "profile_analysis.finiteness_check", "synthesis.decompose_annuli",
    "synthesis.glue_f", "synthesis.assemble_metric",
    "synthesis.verify_synthesis", "surfaces.roundtrip_suite",
    "surfaces.checker_suite", "surfaces.variable_curvature_grid",
    "calibration.calibrate_constants", "report.to_json", "cli.cmd_check",
    "cli.cmd_synthesize", "cli.cmd_verify")
COUNTED = (("geodesy.value_and_h.calls", "count"),
           ("geodesy.rhs_per_distance", "count"),
           ("geodesy.grid_json_bytes", "bytes"),
           ("profile_analysis.configurations", "count"),
           ("profile_analysis.finiteness_check.peak_mb", "MB"),
           ("synthesis.pieces", "count"),
           ("synthesis.grid_nodes", "count"))


def per_layer_units():
    units = {}
    for name in TIMED_WITH_CALLS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name in TIMED:
        units[name + ".self_s"] = "s"
    units.update(COUNTED)
    for name, unit in END_TO_END:
        units["trace_overhead." + name] = unit
    return units


# -- measurement ------------------------------------------------------------------


@dataclass
class Phase:
    setup_times: list
    results: list        # OpResult per operation, in order
    peak_rss_mb: float


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(setup, seed, workdir, repeats):
    """Build the inputs ``repeats`` times.  Each set-up ends with a
    warm-up: the pass's first operation, which calls every stage once.
    Returns the last pass, the set-up times and the warm-up results,
    which only enter the digest comparison."""
    times, warm = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        ops = setup(seed, workdir)
        warm.append(ops[0]())
        times.append(perf_counter() - t0)
    return ops, times, warm


def run_ops(ops, setup_times, passes=1):
    """Run whole passes, so that every run holds each input equally
    often."""
    results = [op() for _ in range(passes) for op in ops]
    return Phase(setup_times, results, peak_rss_mb())


def summarize(values):
    """Median and sample count, plus the highest of p99/p95/p90/p75 that
    has at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            out[f"p{q}"] = cuts[q - 1]
            break
    return out


def phase_metrics(phase, stages):
    timed = [r for r in phase.results if r.stages]
    status = [st for r in phase.results for st in r.status.values()]
    stats = {
        "setup_s": summarize(phase.setup_times),
        "op_s": summarize([r.seconds for r in timed]),
    }
    for stage in stages:
        vals = [r.stages[stage] for r in phase.results if stage in r.stages]
        if vals:
            stats[stage + "_s"] = summarize(vals)
    values = {name: s["median"] for name, s in stats.items()}
    values["ops_per_s"] = len(timed) / sum(r.seconds for r in timed)
    values["peak_rss_mb"] = phase.peak_rss_mb
    attempted = len(status)
    failed = sum(st.failed for st in status)
    values["failed_ratio"] = failed / attempted if attempted else 0.0
    return {"values": values, "stats": stats, "attempted": attempted,
            "failed": failed, "wrong": sum(st.wrong for st in status)}


def check_digests(results):
    """Each (operation, artifact) must hash the same on every visit."""
    seen, mismatches = {}, []
    for r in results:
        for artifact, digest in r.digests.items():
            first = seen.setdefault((r.key, artifact), digest)
            if first != digest:
                mismatches.append(f"{r.key} {artifact}")
    return seen, sorted(set(mismatches))


def layer_metrics(tracer):
    table = tracer.table()
    values = {}
    for name in TIMED_WITH_CALLS:
        row = table.get(name)
        values[name + ".calls"] = row["calls"] if row else 0
        values[name + ".self_s"] = row["self_s"] if row else 0.0
    for name in TIMED:
        row = table.get(name)
        values[name + ".self_s"] = row["self_s"] if row else 0.0
    counts = tracer.counts
    n_dist = values["geodesy.distance.calls"]
    values["geodesy.value_and_h.calls"] = counts["geodesy.value_and_h.calls"]
    values["geodesy.rhs_per_distance"] = (
        counts["geodesy.value_and_h.in_distance"] / n_dist if n_dist else 0)
    for name in ("geodesy.grid_json_bytes", "profile_analysis.configurations",
                 "synthesis.pieces", "synthesis.grid_nodes"):
        values[name] = counts[name]
    values["profile_analysis.finiteness_check.peak_mb"] = tracer.peak_mb
    return values, table


# -- environment --------------------------------------------------------------------


def git_sha(root):
    """HEAD commit read from .git without starting git; None outside a
    git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(ROOT),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


# -- output ----------------------------------------------------------------------------


UNITS = {"setup_s": "s", "op_s": "s", "ops_per_s": "1/s", "check_s": "s",
         "synthesize_s": "s", "verify_s": "s", "calibrate_s": "s",
         "peak_rss_mb": "MB", "failed_ratio": "1"}


def print_end_to_end(title, m):
    print(f"{title}  (attempted {m['attempted']}, failed {m['failed']})")
    for name, unit in UNITS.items():
        if name not in m["values"]:
            continue
        s = m["stats"].get(name)
        extra = ""
        if s:
            extra = f"  median of n={s['n']}" + "".join(
                f", {k}={v:.6g}" for k, v in s.items() if k.startswith("p"))
        print(f"  {name:<14} {m['values'][name]:>14.6g} {unit:<4}{extra}")


def print_layers(table, values, units):
    print("per-module spans (traced phase): calls, self s, total s, parents")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        parents = ", ".join(f"{p} x{n}" for p, n in
                            row["parents"].most_common(3))
        print(f"  {name:<44} {row['calls']:>7} {row['self_s']:>10.4f} "
              f"{row['total_s']:>10.4f}  <- {parents}")
    print("per-module metrics:")
    for name, unit in units.items():
        print(f"  {name:<48} {values[name]:>14.6g} {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.update(BLAS_ENV)  # before numpy is first imported
    if not (SRC / "geoprofile" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import geoprofile
    if Path(geoprofile.__file__).resolve().parent != SRC / "geoprofile":
        print("error: geoprofile imported from outside src/", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    setup = workloads.WORKLOADS[args.workload]
    stages = workloads.STAGES[args.workload]

    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))

    tracer = None
    with tempfile.TemporaryDirectory(dir=results_dir) as workdir:
        ops, times, warm = set_up(setup, args.seed, workdir, SETUP_REPEATS)
        passes = max(1, round(args.seconds
                              / workloads.PASS_SECONDS[args.workload]))
        phases = [run_ops(ops, times, passes)]
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                ops, times, more = set_up(setup, args.seed, workdir, 1)
                phases.append(run_ops(ops, times))
            finally:
                tracer.uninstall()
            warm += more
            tracer.install_memory()
            try:
                phases.append(run_ops(ops, times))
            finally:
                tracer.uninstall()

    measured = [phase_metrics(ph, stages) for ph in phases]
    digests, mismatches = check_digests(
        warm + [r for ph in phases for r in ph.results])
    attempted = sum(m["attempted"] for m in measured)
    failed = sum(m["failed"] for m in measured)
    correct = not mismatches and not any(m["wrong"] for m in measured)

    print_end_to_end("end-to-end (untraced)", measured[0])
    record = {"args": vars(args), "environment": env,
              "end_to_end": measured[0]["values"],
              "end_to_end_stats": measured[0]["stats"]}
    if tracer is None:
        metrics = {name: {"value": measured[0]["values"][name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        print_end_to_end("end-to-end (traced pass)", measured[1])
        units = per_layer_units()
        values, table = layer_metrics(tracer)
        # like with like: the traced phase is one pass, so compare it
        # with the first pass of the untraced phase
        first = phase_metrics(Phase(phases[0].setup_times,
                                    phases[0].results[:len(ops)],
                                    phases[0].peak_rss_mb), stages)
        for name, _ in END_TO_END:
            values["trace_overhead." + name] = (
                measured[1]["values"][name] - first["values"][name])
        print_layers(table, values, units)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
        record.update(
            end_to_end_traced=measured[1]["values"],
            spans_table={k: dict(v, parents=dict(v["parents"]))
                         for k, v in table.items()},
            spans=[[n, s - tracer.spans[0][1], e - tracer.spans[0][1], p]
                   for n, s, e, p in tracer.spans])

    for (key, artifact), digest in sorted(digests.items()):
        print(f"digest {args.workload} seed={args.seed} {key} {artifact} "
              f"sha256={digest}")
    for ph in phases:
        for r in ph.results:
            for stage, st in r.status.items():
                if st.failed:
                    print(f"failed {r.key} {stage}: {'; '.join(st.notes)}")
    for item in mismatches:
        print(f"digest mismatch between visits: {item}")

    record.update(
        correct=correct, attempted=attempted, failed=failed,
        digest_mismatches=mismatches,
        digests={f"{k} {a}": d for (k, a), d in sorted(digests.items())},
        operations=[{"phase": i, "key": r.key, "stages": r.stages,
                     "failed": {s: st.notes for s, st in r.status.items()
                                if st.failed},
                     "digests": r.digests}
                    for i, ph in enumerate(phases) for r in ph.results],
        metrics=metrics)
    out_path = results_dir / (f"{args.workload}-seed{args.seed}"
                              f"-trace{args.trace}.json")
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record written to {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
