"""Time-to-verdict benchmark for the weakhopf command-line front end.

    python3 perfbench/run.py --workload groupoid-wha --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Drives ``weakhopf.cli.main`` in-process as one closed-loop client: one job
at a time, the next job only after the previous verdict, no threads, no
subprocesses.  A workload is a seeded list of spec files (see
workloads.py); a run repeats the whole list for a fixed number of passes,
about ``--seconds`` of work on the reference machine and never fewer than
two.  Every job is checked against the hand-written known-answer table
(verdicts.py): exit status, the set of FAIL identity names, and the
digest of its machine-format report, which must repeat in every pass.

--trace 0 reports the end-to-end metrics (units in brackets):
  makespan_s    [s]  median over passes of the time from the first job's
                     start to the last verdict (calibration pauses between
                     jobs excluded)
  job_p50_s     [s]  median time to verdict over all jobs of all passes
  job_tail_s    [s]  the highest percentile with at least ten samples
                     beyond it (printed with that percentile and the count)
  peak_rss_mb   [MB] peak resident set size of the process
  setup_s       [s]  import plus input generation, median of nine set-ups
failed_ratio (failed / attempted jobs) is printed and is the result's
``failed`` count; it is not a bounded metric because it is 0 when correct.

Times are reference seconds.  The shared hosts this runs on change CPU
speed by up to 30% within seconds and by about 10% between one 30 s run
and the next, which would swamp the bounds in BENCHMARK.json.  So a fixed
builtin-only kernel (calibrate) runs before the first job and after every
job; each job's wall time is scaled by CAL_REF_S over the mean kernel time
on its two sides, and each pass's makespan by CAL_REF_S over the mean
kernel time of the pass.  A change to weakhopf cannot alter the kernel, so
the scaling removes host speed, not program speed.  The wall-clock figures
are printed next to each metric and kept in the result record.

--trace 1 runs one untraced pass and then traced passes (tracing.py) and
reports per-layer self times and counts per pass, the tracing overhead
(traced / untraced makespan) and the share of the traced wall time that
the layer self times cover (at most 1, else the run is not correct).

With --workload all the workloads run one after another in one process
(peak_rss_mb is then the peak so far).  The last line of standard output
is the JSON result.  A fuller record
(backend, Python version, nproc, seed, job-list digest, per-job times) is
written to .perfbench/results/, and spans of traced runs to
.perfbench/traces/; compare.py refuses to compare records whose backend or
job-list digest differ.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from verdicts import VERDICTS  # noqa: E402

SETUP_REPS = 9
TAIL_BEYOND = 10
# calibrate() on the reference machine (2-core x86-64 host, CPython 3.11)
# when the host was quiet; it only sets the scale of reference seconds
CAL_REF_S = 0.0040

END_TO_END = [("makespan_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]

PER_LAYER = [
    ("cli.self_s", "s"), ("specfile.parse_s", "s"), ("cli.render_s", "s"),
    ("linalg.self_s", "s"), ("linalg.quotient_s", "s"),
    ("linalg.solve_s", "s"), ("linalg.kernel_s", "s"),
    ("linalg.inserts", "count"), ("linalg.prime_inserts", "count"),
    ("linalg.insert_useful_ratio", "ratio"),
    ("rowred.self_s", "s"), ("rowred.rows", "count"),
    ("algebra.self_s", "s"), ("algebra.make_algebra_s", "s"),
    ("algebra.make_cond_expectation_s", "s"),
    ("algebra.certify_markov_s", "s"), ("algebra.find_dual_bases_s", "s"),
    ("algebra.relative_tensor_square_s", "s"),
    ("algebra.centralizer_s", "s"), ("algebra.products", "count"),
    ("wha.self_s", "s"), ("wha.verify_axioms_s", "s"), ("wha.dual_s", "s"),
    ("wha.counital_s", "s"), ("wha.integrals_s", "s"),
    ("groupoid.self_s", "s"), ("groupoid.dual_s", "s"),
    ("groupoid.integrals_s", "s"),
    ("action.self_s", "s"), ("action.smash_s", "s"),
    ("action.verify_module_algebra_s", "s"),
    ("tower.self_s", "s"), ("tower.basic_construction_s", "s"),
    ("tower.depth2_check_s", "s"), ("tower.conditional_expectations_s", "s"),
    ("tower.derived_wha_s", "s"), ("tower.actions_s", "s"),
    ("tower.smash_isos_s", "s"),
    ("composite.idempotent_s", "s"),
    ("checks.identities", "count"), ("checks.failed", "count"),
    ("trace.overhead_ratio", "ratio"), ("trace.self_share", "ratio"),
]


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, unknown job)."""


# ---------------------------------------------------------------------------
# set-up

def import_weakhopf():
    """Fresh import of every weakhopf layer from this checkout's src/."""
    for name in list(sys.modules):
        if name == "weakhopf" or name.startswith("weakhopf."):
            del sys.modules[name]
    mods = {name: importlib.import_module(mod)
            for name, mod in tracing.LAYERS.items()}
    pkg = sys.modules["weakhopf"]
    if os.path.dirname(os.path.abspath(pkg.__file__)) != \
            os.path.join(SRC, "weakhopf"):
        raise BenchError("weakhopf imported from %s, not from %s"
                         % (pkg.__file__, SRC))
    return pkg, mods


def setup(workload, seed):
    """Import plus input generation, timed SETUP_REPS times."""
    if not os.path.isfile(os.path.join(SRC, "weakhopf", "__init__.py")):
        raise BenchError("no weakhopf sources under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    spec_dir = os.path.join(OUT, "specs", "%s-%d" % (workload, seed))
    shutil.rmtree(spec_dir, ignore_errors=True)
    times = []  # (reference seconds, wall seconds)
    before = calibrate()
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        pkg, mods = import_weakhopf()
        jobs = workloads.generate(workload, seed, spec_dir)
        took = perf_counter() - t0
        after = calibrate()
        times.append((took * CAL_REF_S * 2.0 / (before + after), took))
        before = after
    for job in jobs:
        if job.verdict not in VERDICTS:
            raise BenchError("job %s has no known answer (%s)"
                             % (job.id, job.verdict))
    return pkg, mods, jobs, times


# ---------------------------------------------------------------------------
# running and checking jobs

def run_job(main, job, tracer=None):
    """One job to verdict: (seconds, exit status, stdout, error or None)."""
    argv = ["--format", "machine"] + list(job.argv)
    out = io.StringIO()
    error = None
    rc = None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            if tracer is None:
                rc = main(argv)
            else:
                rc = tracer.job(job.id, main, argv)
    except Exception as exc:  # a job that raises is a failed job
        error = "%s: %s" % (type(exc).__name__, exc)
    return perf_counter() - t0, rc, out.getvalue(), error


def check(job, rc, text, error, first_digest):
    """(ok, digest, identities, failed identities, reason)."""
    digest = hashlib.sha256(("%s\n%s" % (rc, text)).encode()).hexdigest()
    if error is not None:
        return False, digest, 0, 0, error
    fails, identities = set(), 0
    try:
        for line in text.splitlines():
            rec = json.loads(line)
            if "pipeline" in rec:
                continue
            identities += 1
            if not rec["passed"]:
                fails.add(rec["name"])
    except (ValueError, KeyError) as exc:
        return False, digest, identities, len(fails), "bad report: %s" % exc
    want_rc, want_fails = VERDICTS[job.verdict]
    if rc != want_rc or fails != want_fails:
        return (False, digest, identities, len(fails),
                "exit %s FAIL %s, expected exit %s FAIL %s"
                % (rc, sorted(fails), want_rc, sorted(want_fails)))
    if first_digest is not None and digest != first_digest:
        return False, digest, identities, len(fails), "report drifted"
    return True, digest, identities, len(fails), None


def calibrate():
    """Seconds taken by a fixed piece of pure-Python work.

    Only builtins (int, tuple, dict, list), so no change to weakhopf can
    alter its speed; the host's speed at this moment can.
    """
    t0 = perf_counter()
    acc = 0
    table = {}
    for i in range(1, 10000):
        key = (i * 7919) % 257
        table[key] = table.get(key, 0) + (i * i) % 1009
        acc += len(str(acc * i // (key + 1)))
    return perf_counter() - t0


class Runner:
    """Runs passes over one job list and keeps every observation.

    The calibration kernel runs before the first job and after each job.
    A job's reference time is its wall time scaled by CAL_REF_S over the
    mean kernel time just before and just after it; a pass's reference
    makespan is its wall makespan scaled by CAL_REF_S over the mean of all
    the pass's kernel times, which follows the host's speed through long
    jobs better than the kernels at their two ends.
    """

    def __init__(self, main, jobs):
        self.main = main
        self.jobs = jobs
        self.digests = {}
        self.records = []      # per job run
        self.makespans = []    # (traced?, wall seconds, reference seconds)
        self.errors = []

    def run_pass(self, tracer=None):
        gc.collect()
        stats = {"identities": 0, "failed": 0}
        wall = 0.0
        cals = [calibrate()]
        for job in self.jobs:
            took, rc, text, error = run_job(self.main, job, tracer)
            cals.append(calibrate())
            scaled = took * CAL_REF_S * 2.0 / (cals[-2] + cals[-1])
            wall += took
            ok, digest, ids, nfail, why = check(
                job, rc, text, error, self.digests.get(job.id))
            self.digests.setdefault(job.id, digest)
            stats["identities"] += ids
            stats["failed"] += nfail
            self.records.append({"job": job.id, "seconds": took,
                                 "ref_seconds": scaled, "exit": rc,
                                 "ok": ok, "traced": tracer is not None})
            if not ok:
                self.errors.append("%s: %s" % (job.id, why))
        self.makespans.append((tracer is not None, wall,
                               wall * CAL_REF_S / statistics.mean(cals)))
        return stats

    def untraced(self, key):
        return [r[key] for r in self.records if not r["traced"]]

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for r in self.records if not r["ok"])


def tail(values):
    """(value, percentile, count): the highest percentile with at least
    TAIL_BEYOND samples beyond it, by nearest rank."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(runner, setup_times):
    """Reference-speed metrics, plus the raw wall-clock figures."""
    out, raw = {}, {}
    for key, dest in (("ref_seconds", out), ("seconds", raw)):
        times = runner.untraced(key)
        value, pct, n = tail(times)
        col = 2 if key == "ref_seconds" else 1
        dest["makespan_s"] = statistics.median(
            span[col] for span in runner.makespans if not span[0])
        dest["job_p50_s"] = statistics.median(times)
        dest["job_tail_s"] = value
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["setup_s"] = statistics.median(r for r, w in setup_times)
    raw["setup_s"] = statistics.median(w for r, w in setup_times)
    return out, {"tail_percentile": pct, "samples": n, "wall_clock": raw}


def per_layer(runner, tracer, stats, traced_passes):
    per = 1.0 / traced_passes
    layers = tracer.layer_totals()
    m = {}
    for layer in tracing.LAYERS:
        m[layer + ".self_s"] = layers.get(layer, 0.0) * per
    m["specfile.parse_s"] = m.pop("specfile.self_s")
    for metric, keys in tracing.NAMED.items():
        m[metric] = sum(tracer.self_time.get(k, 0.0) for k in keys) * per
    calls = tracer.calls
    inserts = sum(calls.get(k, 0) for k in tracing.INSERTS)
    useful = sum(tracer.useful.get(k, 0) for k in tracing.INSERTS)
    m["linalg.inserts"] = inserts * per
    m["linalg.prime_inserts"] = calls.get(tracing.PRIME_INSERTS, 0) * per
    m["linalg.insert_useful_ratio"] = useful / inserts if inserts else 0.0
    m["rowred.rows"] = sum(calls.get(k, 0) for k in tracing.ROWRED_ROWS) * per
    m["algebra.products"] = calls.get(tracing.PRODUCTS, 0) * per
    m["checks.identities"] = sum(s["identities"] for s in stats) * per
    m["checks.failed"] = sum(s["failed"] for s in stats) * per
    plain = statistics.median(w for t, w, _ in runner.makespans if not t)
    traced = [w for t, w, _ in runner.makespans if t]
    m["trace.overhead_ratio"] = statistics.median(traced) / plain
    m["trace.self_share"] = sum(layers.values()) / sum(traced)
    return {k: m[k] for k, _ in PER_LAYER}


# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace):
    pkg, mods, jobs, setup_times = setup(workload, seed)
    main = mods["cli"].main
    runner = Runner(main, jobs)
    passes = workloads.passes_for(workload, seconds)
    meta = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "passes": passes, "jobs": len(jobs),
            "backend": pkg.BACKEND, "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "job_list_digest": workloads.job_list_digest(jobs)}
    if not trace:
        for _ in range(passes):
            runner.run_pass()
        metrics, extra = end_to_end(runner, setup_times)
        meta.update(extra)
        units = dict(END_TO_END)
        self_ok = True
    else:
        runner.run_pass()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            stats = [runner.run_pass(tracer) for _ in range(passes - 1)]
        finally:
            tracer.uninstall()
        if not tracing.is_clean():
            raise BenchError("trace wrappers left installed")
        metrics = per_layer(runner, tracer, stats, passes - 1)
        units = dict(PER_LAYER)
        self_ok = metrics["trace.self_share"] <= 1.0
        if not self_ok:
            runner.errors.append("layer self times exceed the traced wall "
                                 "time")
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        tracer.write_spans(os.path.join(
            OUT, "traces", "%s-seed%d.jsonl" % (workload, seed)))
    result = {"correct": runner.failed == 0 and self_ok,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record = dict(meta, result=result, errors=runner.errors,
                  jobs_run=runner.records,
                  makespans=[{"traced": t, "seconds": w, "ref_seconds": r}
                             for t, w, r in runner.makespans])
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", "%s-seed%d-trace%d.json"
                           % (workload, seed, trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    return meta, result, runner.errors


def report(meta, result, errors):
    print("== %s (seed %d, %d passes of %d jobs, backend %s, Python %s, "
          "nproc %s, job list %s)"
          % (meta["workload"], meta["seed"], meta["passes"], meta["jobs"],
             meta["backend"], meta["python"], meta["nproc"],
             meta["job_list_digest"][:16]))
    wall = meta.get("wall_clock", {})
    for name, m in result["metrics"].items():
        extra = ""
        if name in wall:
            extra = "  (wall clock %.6f s)" % wall[name]
        if name == "job_tail_s":
            extra += "  (p%.1f of %d samples)" % (meta["tail_percentile"],
                                                  meta["samples"])
        print("  %-36s %14.6f %s%s" % (name, m["value"], m["unit"], extra))
    print("  %-36s %14.6f ratio  (%d of %d jobs)"
          % ("failed_ratio", result["failed"] / result["attempted"],
             result["failed"], result["attempted"]))
    for e in errors[:20]:
        print("  FAILED " + e)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    try:
        results = []
        for name in names:
            meta, result, errors = run_workload(name, args.seed,
                                                args.seconds, args.trace)
            report(meta, result, errors)
            results.append((name, result))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {"%s.%s" % (n, k): v for n, r in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
