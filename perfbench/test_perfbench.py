"""Tests of the benchmark itself: seeded inputs, known-answer coverage,
trace wrapper lifetime and a small end-to-end smoke run."""

import importlib
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from verdicts import VERDICTS  # noqa: E402

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

from weakhopf import algebra, cli, linalg, tower  # noqa: E402


def _inputs(jobs):
    out = []
    for job in jobs:
        with open(job.path, "rb") as fh:
            out.append((job.id, job.verdict,
                        [os.path.basename(a) for a in job.argv], fh.read()))
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_job_list(workload, tmp_path):
    a = workloads.generate(workload, 7, str(tmp_path / "a"))
    b = workloads.generate(workload, 7, str(tmp_path / "b"))
    c = workloads.generate(workload, 8, str(tmp_path / "c"))
    assert _inputs(a) == _inputs(b)
    assert workloads.job_list_digest(a) == workloads.job_list_digest(b)
    assert workloads.job_list_digest(a) != workloads.job_list_digest(c)
    # the seed never changes which inputs a pass holds
    assert sorted(j.verdict for j in a) == sorted(j.verdict for j in c)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_verdict_table_covers_every_job(workload, tmp_path):
    for seed in range(5):
        jobs = workloads.generate(workload, seed, str(tmp_path / str(seed)))
        assert jobs
        for job in jobs:
            assert job.verdict in VERDICTS, job.id


def _bindings():
    """Every function-valued binding in weakhopf modules and classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("weakhopf") or mod is None:
            continue
        for attr, val in vars(mod).items():
            out[(name, attr)] = val
            if isinstance(val, type):
                for m, f in vars(val).items():
                    out[(name, attr, m)] = f
    return out


def test_trace_wrappers_removed():
    for mod in tracing.LAYERS.values():
        importlib.import_module(mod)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # aliases bound at import time are wrapped too
        assert linalg.insert_row.perfbench_traced
        assert tower.sadd_into.perfbench_traced
        assert algebra.sadd_into.perfbench_traced
        assert algebra.Algebra.mul.perfbench_traced
        assert not tracing.is_clean()
    finally:
        tracer.uninstall()
    assert tracing.is_clean()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tail_has_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(1, 31)])
    assert (value, n) == (20.0, 30)
    assert pct == pytest.approx(100 * 20 / 30)


def _smoke_jobs(tmp_path):
    # job ids are "<index>-<command>-<input>[-p<prime>]"
    picks = {
        "groupoid-wha": ("verify-wha-z3", "groupoid-dual-integrals-pair2-p",
                         "verify-wha-mutated-antipode",
                         "verify-wha-malformed"),
        "tower-deep": ("tower-q_in_q2",),
        "depth2-derive": ("derive-trivial_m2",),
    }
    jobs = []
    for workload, keep in picks.items():
        for job in workloads.generate(workload, 3, str(tmp_path / workload)):
            rest = job.id.split("-", 1)[1]
            if any(rest == k or (k.endswith("-p") and rest.startswith(k))
                   for k in keep) and job.argv[-1] not in ("3", "4"):
                jobs.append(job)
    return jobs


def test_smoke_list_runs_green(tmp_path):
    jobs = _smoke_jobs(tmp_path)
    verdicts = {j.verdict for j in jobs}
    assert verdicts == {"verify-wha:groupoid", "groupoid-dual-integrals:groupoid",
                        "verify-wha:mutated-antipode", "verify-wha:malformed",
                        "tower:q_in_q2", "derive:trivial_m2"}
    runner = run.Runner(cli.main, jobs)
    runner.run_pass()
    assert tracing.is_clean()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        stats = [runner.run_pass(tracer)]
    finally:
        tracer.uninstall()
    assert tracing.is_clean()
    assert runner.errors == []
    assert runner.failed == 0 and runner.attempted == 2 * len(jobs)
    metrics = run.per_layer(runner, tracer, stats, 1)
    assert set(metrics) == {k for k, _ in run.PER_LAYER}
    assert 0 < metrics["trace.self_share"] <= 1.0
    assert metrics["checks.failed"] == 5  # the mutated antipode's report
    assert metrics["algebra.products"] > 0
    assert len(tracer.spans) >= len(jobs)
    assert {s[4] for s in tracer.spans} == {j.id for j in jobs}


def test_compare_refuses_other_job_lists():
    base = {"backend": "python", "job_list_digest": "a", "workload": "w",
            "trace": 0, "result": {"metrics": {
                "makespan_s": {"value": 2.0, "unit": "s"}}}}
    same = dict(base, result={"metrics": {
        "makespan_s": {"value": 1.0, "unit": "s"}}})
    assert "x0.5000" in compare.compare(base, same)[0]
    for key, other in (("job_list_digest", "b"), ("backend", "c")):
        with pytest.raises(ValueError):
            compare.compare(base, dict(same, **{key: other}))


def test_a_drifting_report_is_a_failure(tmp_path):
    job = [j for j in _smoke_jobs(tmp_path) if "trivial_m2" in j.id][0]
    took, rc, text, error = run.run_job(cli.main, job)
    ok, digest, *_ = run.check(job, rc, text, error, None)
    assert ok
    ok, _, _, _, why = run.check(job, rc, text, error, "0" * len(digest))
    assert not ok and why == "report drifted"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tower-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
