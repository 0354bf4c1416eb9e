"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

import jobs as J
import run as R
import tracing as T

R.import_program()


@pytest.mark.parametrize("workload", J.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert J.take_rounds(workload, 7, 4) == J.take_rounds(workload, 7, 4)


def test_seed_changes_the_draw():
    assert J.take_rounds("dist", 1, 2) != J.take_rounds("dist", 2, 2)


@pytest.mark.parametrize("workload", J.WORKLOADS)
def test_every_drawable_job_has_a_reference(workload):
    refs = J.load_references()
    drawable = set(J.domain(workload))
    assert all(J.job_key(job) in refs for job in drawable)
    for rnd in J.take_rounds(workload, 3, 20):
        assert set(rnd) <= drawable


def test_tampered_histogram_is_a_failed_job(tmp_path):
    job = J._dist((2, 3), 9)
    argv = [*job, "--cache-dir", str(tmp_path)]
    _, code, cold_out = R.run_job(argv)
    ref = json.loads(cold_out)["result"]
    assert J.check(job, code, cold_out, ref) is None

    entry = tmp_path / "system_2x3_N9_upoly_std_v1.json"
    data = json.loads(entry.read_text())
    assert data["t"]["coeffs"][9] == ["22", "10", "8", "5", "2"]
    data["t"]["coeffs"][9] = ["22", "9", "9", "5", "2"]
    entry.write_text(json.dumps(data))

    _, code, hit_out = R.run_job(argv)
    assert code == 0  # the program trusts the entry; only the check catches it
    assert json.loads(hit_out)["result"]["histogram"]["1"] == 9
    assert "histogram" in J.check(job, code, hit_out, ref, expect_hits=1)

    state = R.State("dist-cached", tmp_path, cache_dir=tmp_path, cold={J.job_key(job): ref})
    records = [(job, 0.01, code, hit_out), (job, 0.01, code, hit_out)]
    assert len(R.failures(state, records, {J.job_key(job): ref})) == 2


def test_cold_job_reporting_a_hit_fails(tmp_path):
    job = J._dist((1, 2), 8)
    argv = [*job, "--cache-dir", str(tmp_path)]
    R.run_job(argv)
    _, code, out = R.run_job(argv)
    ref = json.loads(out)["result"]
    assert J.check(job, code, out, ref) == "cache hits 1, expected 0"


def _mu_output(ref, **ext):
    return json.dumps({"cache": {"hits": 0},
                       "result": {**ref, "extrapolation": {**ref["extrapolation"], **ext}}})


def test_mu_check_fails_on_a_moved_or_widened_extrapolation():
    refs = J.load_references()
    for job in J.domain("growth"):
        if job[0] != "mu":
            continue
        ref = refs[J.job_key(job)]
        ext = ref["extrapolation"]
        assert ext["error"] < J.MAX_EXT_REL_ERROR * ext["value"]
        assert J.check(job, 0, _mu_output(ref), ref) is None
        moved = _mu_output(ref, value=ext["value"] + 3 * ext["error"])
        assert "outside" in J.check(job, 0, moved, ref)
        wide = _mu_output(ref, error=J.MAX_EXT_REL_ERROR * 2 * ext["value"])
        assert "above 1%" in J.check(job, 0, wide, ref)


def test_rel_error_max_reads_both_mu_routes():
    refs = J.load_references()
    job = J._mu((2, 3), J.EXT_ORDERS[0])
    ref = refs[J.job_key(job)]
    out = _mu_output(ref, error=0.5 * ref["extrapolation"]["value"])
    assert R.rel_error_max([(job, 1.0, 0, out)]) == pytest.approx(0.5)
    assert R.rel_error_max([(job, 1.0, 0, _mu_output(ref))]) == pytest.approx(
        ref["error"] / ref["value"])


def _span(sid, start, end, parent=None, inner=0.0):
    return [sid, f"s{sid}", start, end, parent, inner]


def test_self_time_on_a_synthetic_tree():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0, inner=1.0),  # 1 s of counted calls inside
        _span(2, 3.0, 6.0, parent=0),             # overlaps span 1: covered once
        _span(3, 2.0, 3.0, parent=1),
        _span(4, 8.0, 12.0, parent=0),            # only its part inside 0 counts
    ]
    assert T.self_times(spans) == pytest.approx([3.0, 1.0, 3.0, 1.0, 4.0])


def test_inclusive_time_counts_nested_same_name_once():
    spans = [[0, "f", 0.0, 5.0, None, 0.0], [1, "f", 1.0, 2.0, 0, 0.0],
             [2, "g", 2.0, 3.0, 0, 0.0], [3, "f", 6.0, 7.0, None, 0.0]]
    assert T.inclusive_seconds(spans) == pytest.approx({"f": 6.0, "g": 1.0})
    assert T.inclusive_seconds(spans, 3) == pytest.approx({"f": 1.0})


def test_tracer_wraps_and_restores_the_program():
    import dstarlab.cli
    import dstarlab.rings

    before = dstarlab.cli.solve_pattern, dstarlab.rings.UPolyRing.mul
    tracer = T.Tracer()
    tracer.install()
    try:
        assert dstarlab.cli.solve_pattern is not before[0]
        _, code, _ = R.run_job(["dist", "--pattern", "1,2", "--n", "10"])
    finally:
        tracer.uninstall()
    assert (dstarlab.cli.solve_pattern, dstarlab.rings.UPolyRing.mul) == before
    assert code == 0
    m = tracer.metrics()
    assert m["pattern_gf.solve_pattern.calls"][0] == 1
    assert m["rings.upoly.mul.calls"][0] > 0
    # layers partition the time inside cli.main, less the tracer's bookkeeping
    (main,) = [r for r in tracer.spans if r[T.NAME] == "cli.main"]
    assert sum(tracer.layer_seconds().values()) == pytest.approx(
        main[T.END] - main[T.START], rel=0.05)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert R.tail([float(i) for i in range(40)]) == (29.0, 75.0, 10)
    assert R.tail([1.0, 2.0, 3.0]) == (3.0, 100.0, 0)


def test_benchmark_json_names_the_traced_metrics():
    spec = json.loads((R.ROOT / "BENCHMARK.json").read_text())
    units = {k: u for k, (_, u) in T.Tracer().metrics().items()}
    units.update({"trace.job_s": "s", "trace.overhead": "1"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert [w["name"] for w in spec["workloads"]] == list(J.WORKLOADS)
