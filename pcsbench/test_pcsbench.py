"""Tests of the benchmark itself: its checks fail wrong answers, its tail
rule, its tracing bookkeeping, and BENCHMARK.json naming what run.py prints.

They use small instances of the real workloads, so they run in well under a
second; `python3 -m pytest pcsbench` runs them alone.
"""
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Tally  # noqa: E402


def test_cube_homology_wrong_expected_answer_fails(tmp_path):
    jobs = workloads.CubeHomology(tmp_path, seed=1, n=3).jobs(0)
    tally = Tally()
    for job in jobs:
        tally.attempt(job)
    assert (tally.attempted, tally.failed) == (4, 0)
    hollow_merging = jobs[3]
    assert "merging H2 = Z\n" in hollow_merging.expected
    hollow_merging.expected = hollow_merging.expected.replace("H2 = Z", "H2 = Z^2")
    tally.attempt(hollow_merging)
    assert (tally.attempted, tally.failed) == (5, 1)


def test_subdivided_shell_wrong_cell_count_fails(tmp_path):
    job = workloads.SubdividedShell(tmp_path, seed=1, n=3, p=2).jobs(0)[0]
    tally = Tally()
    tally.attempt(job)
    assert tally.failed == 0
    job.counts[0] += 1
    tally.attempt(job)
    assert tally.failed == 1


def test_paths_wrong_sup_distance_fails(tmp_path, monkeypatch):
    job = workloads.Paths(tmp_path, seed=1, pairs=1, m=4).jobs(0)[0]
    tally = Tally()
    tally.attempt(job)
    assert tally.failed == 0
    right = workloads.pair_expectations

    def off_by_a_little(a, b, u):
        want = right(a, b, u)
        want["sup_ca"] += Fraction(1, 1000)
        return want

    monkeypatch.setattr(workloads, "pair_expectations", off_by_a_little)
    tally.attempt(job)
    assert tally.failed == 1


def test_exception_counts_as_failed():
    class Broken:
        label = "broken"

        def run(self):
            raise ValueError("library bug")

        def check(self, answer):
            return None

    tally = Tally()
    tally.attempt(Broken())
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "library bug" in tally.problems[0]


def test_seed_renames_cubes_and_reorders_lines_only():
    words, faces = workloads.cube_words(3, hollow=True)
    texts = [workloads.seeded_pcs(words, faces, workloads.random.Random(s), "c") for s in (1, 2)]
    assert texts[0] != texts[1]
    assert sorted(len(line) for line in texts[0].splitlines()) == sorted(
        len(line) for line in texts[1].splitlines()
    )
    for text in texts:
        assert workloads.check_pcs_text(text, workloads.cube_counts(3, True)) is None
    # Same order of cubes by name, hence the same matrices for the library.
    dims_by_name = [
        [int(d) for _, _, d in sorted(l.split() for l in text.splitlines() if l.startswith("cube"))]
        for text in texts
    ]
    assert dims_by_name[0] == dims_by_name[1]


def test_tail_is_highest_percentile_with_ten_jobs_beyond():
    times = [float(t) for t in range(60)]
    value, pct, beyond = run.tail(times)
    assert beyond >= 10 and sum(t > value for t in times) == beyond
    next_rank = -(-(pct + 1) * len(times) // 100)
    assert len(times) - next_rank < 10


def test_tracer_self_times_and_counts(tmp_path):
    job = workloads.CubeHomology(tmp_path, seed=2, n=3).jobs(0)[1]
    cli = sys.modules["precubical.cli"]
    original = cli.run_command
    tracer = tracing.Tracer()
    with tracer.spanned:
        assert cli.run_command is not original
        assert job.check(job.run()) is None
    assert cli.run_command is original
    assert not tracer.spanned.missing and not tracer.counted.missing
    names = {span[0] for span in tracer.spans}
    assert {"command", "parse", "validate", "extremal partition", "assembly",
            "boundary matrices", "elimination", "report"} <= names
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert abs(sum(tracer.self_times().values()) - roots) < 1e-9
    with tracer.counted:
        assert job.check(job.run()) is None
    metrics = tracer.layer_metrics()
    assert metrics["homology.matrices"] > 0 and metrics["pcsfile.bytes_in"] > 0
    assert metrics["core.extremal_ratio"] > 0 and 0 < metrics["homology.nnz_ratio"] < 1


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "pcsbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
