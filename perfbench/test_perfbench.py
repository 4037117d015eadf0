"""Tests of the benchmark itself: job generation, statistics, tracing and
the printed result. Runs on a tiny workload so it stays fast."""

import itertools
import json
import os

import pytest

import bench
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = bench.Workload("tiny", 15, ("--mode", "shift", "--d", "15", "--m", "3", "--levels", "6"),
                      ("--mode", "invariant"), pool=3)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_tiny(monkeypatch, capsys, trace):
    monkeypatch.setitem(bench.WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(run, "COLD_RUNS", 1)
    monkeypatch.setattr(bench, "REFERENCE_PAUSE_S", 0.0)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", TINY.name, "--seed", "3", "--seconds", "0.4",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return out[:-1], json.loads(out[-1])


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_same_seed_gives_same_argvs(name, tmp_path):
    workload = bench.WORKLOADS[name]

    def argvs(seed):
        return [job.argvs for job in itertools.islice(bench.jobs(workload, seed, str(tmp_path)), 25)]

    first = argvs(7)
    assert first == argvs(7)
    assert first != argvs(8)
    assert all("--seed" in sim for sim, _rec, _ver in first)


def test_printed_metric_names_match_benchmark_json(monkeypatch, capsys):
    spec = _spec()
    for trace, section, prefix in ((0, "end_to_end", "e2e"), (1, "per_layer", "layer")):
        lines, result = _run_tiny(monkeypatch, capsys, trace)
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        printed = {"cold_job_s": "s", "failed_frac": "ratio"} if trace == 0 else {}
        for name, unit in {**expected, **printed}.items():
            assert any(line.startswith(f"{prefix} {name} = ") and f" {unit}" in line
                       for line in lines), name
        assert result["correct"] is True
        assert result["attempted"] >= 2 and result["failed"] == 0
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS) - {TINY.name}


def test_traced_run_counts_layer_work(monkeypatch, capsys):
    lines, result = _run_tiny(monkeypatch, capsys, 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # d=15, m=3: 5 residue classes, each a degree-3 search.
    assert metrics["annihilator.scalar_annihilator.calls"] == 5
    assert metrics["annihilator.degree_sum"] == 15
    assert metrics["annihilator.solves_per_search"] == 3
    assert metrics["numerics.dft.points"] > 0 and metrics["fileio.bytes_read"] > 0
    assert metrics["prony.prony_support.calls"] == 0
    assert any("absent" in line and "prony.prony_support" in line for line in lines)


def test_failed_verify_counts_as_failed_and_leaves_solve_samples(tmp_path):
    from dynspec.cli import main as cli_main

    good_job = next(bench.jobs(TINY, 1, str(tmp_path)))
    good = bench.run_job(cli_main, good_job)
    assert good.verified

    # The bad job reruns the same simulate and recover, then verifies a
    # corrupted copy of the report.
    sim, rec, _ver = good_job.argvs
    assert cli_main(list(sim)) == 0 and cli_main(list(rec)) == 0
    with open(good_job.report) as fh:
        report = json.load(fh)
    report["recovered_spectrum"] = [[re + 0.1, im] for re, im in report["recovered_spectrum"]]
    corrupted = str(tmp_path / "corrupted.json")
    with open(corrupted, "w") as fh:
        json.dump(report, fh)
    bad_job = bench.Job(1, good_job.problem, good_job.report, (
        sim, rec, ("verify", "--in", good_job.problem, "--report", corrupted)))
    bad = bench.run_job(cli_main, bad_job)
    assert bad.codes == [0, 0, 1] and bad.failed and bad.wrong and not bad.verified

    attempted, failed, correct = bench.outcome([good, bad], [good, bad])
    assert (attempted, failed, correct) == (2, 1, False)
    cold = bench.JobRecord(0, [0.5, 1.0, 0.5], [0, 0, 0])
    metrics, _printed = bench.end_to_end([1.0], [cold], [good, bad], 50.0)
    assert metrics["setup_s"][0] == 3.0
    assert metrics["solve_p50_s"][0] == good.solve
    assert metrics["solve_tail_s"][0] == good.solve
    assert metrics["jobs_per_s"][0] == pytest.approx(1 / (good.total + bad.total))


def test_outcome_counts_each_pool_job_once(tmp_path):
    workload = bench.WORKLOADS["prony-long"]
    job_pool = bench.pool(workload, 5, str(tmp_path))
    assert [job.index for job in job_pool] == list(range(workload.pool))

    ok = [bench.JobRecord(0, [1.0, 1.0, 1.0], [0, 0, 0]) for _ in range(3)]
    snap_failure = [bench.JobRecord(1, [1.0, 1.0], [0, 3]) for _ in range(2)]
    assert bench.outcome(ok + snap_failure, ok) == (2, 1, True)
    # The same job giving other exit codes on a repeat makes the run incorrect.
    flaky = bench.JobRecord(1, [1.0, 1.0, 1.0], [0, 0, 0])
    assert bench.outcome(ok + snap_failure + [flaky], ok) == (2, 1, False)


def test_gated_times_are_scaled_to_the_reference_speed():
    assert bench.speed_scale(bench.REFERENCE_S, bench.REFERENCE_S) == 1.0
    assert bench.speed_scale(2 * bench.REFERENCE_S, 2 * bench.REFERENCE_S) == 0.5
    cold = bench.JobRecord(0, [1.0, 1.0, 1.0], [0, 0, 0], scale=0.5)
    warm = [bench.JobRecord(0, [1.0, 2.0, 1.0], [0, 0, 0], scale=0.5)]
    gated, printed = bench.end_to_end([1.0], [cold], warm, 50.0)
    assert gated["setup_s"][0] == 2.0
    assert gated["simulate_p50_s"][0] == 0.5
    assert gated["solve_p50_s"][0] == 1.5
    assert gated["jobs_per_s"][0] == 0.5
    assert printed["wall.solve_p50_s"][0] == 3.0
    assert printed["host_speed"][0] == 0.5


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert bench.tail(range(1, 101)) == (90, 90, 100)
    assert bench.tail(range(1, 26)) == (15, 60, 25)
    assert bench.tail(range(1, 21)) == (10, 50, 20)
    assert bench.tail([3.0, 1.0, 2.0]) == (2.0, 50, 3)


def test_self_time_excludes_direct_children_only():
    now = [0.0]
    tracer = bench.Tracer(clock=lambda: now[0])

    def tick(seconds):
        now[0] += seconds

    inner = tracer.wrap("m.inner", lambda: tick(2))
    middle = tracer.wrap("m.middle", lambda: (tick(1), inner()))

    def outer_body():
        tick(1)
        middle()
        tick(3)
        inner()

    tracer.wrap("m.outer", outer_body)()
    assert tracer.spans["m.inner"] == [2, 4.0, 4.0]
    assert tracer.spans["m.middle"] == [1, 3.0, 1.0]
    assert tracer.spans["m.outer"] == [1, 9.0, 4.0]


def test_missing_function_is_reported_absent():
    import dynspec.numerics

    original = dynspec.numerics.dft
    tracer = bench.Tracer()
    absent = tracer.install(layers={"numerics": ("dft", "no_such_function"),
                                    "no_such_module": ("f",)})
    try:
        assert absent == ["numerics.no_such_function", "no_such_module.f"]
        assert dynspec.numerics.dft is not original
        dynspec.numerics.dft([1.0, 2.0, 3.0])
    finally:
        tracer.uninstall()
    assert dynspec.numerics.dft is original
    metrics, never_called = tracer.per_job(1, 0.0)
    assert metrics["numerics.dft.calls"] == (1.0, "count")
    assert metrics["numerics.dft.points"] == (3.0, "count")
    assert "prony.prony_support" in never_called
    assert set(metrics) == set(bench.per_layer_names())


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "general-deep", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
