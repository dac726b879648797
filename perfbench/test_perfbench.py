"""Fast self-test of the benchmark: a tiny subset of each workload, its checks,
a negative control, the tracer's coverage, and BENCHMARK.json's metric list.

Needs only the standard library and pytest; runs in a few seconds.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import inprocess
import layertrace
import workloads as wl
from run import CLI_CODE, Runner, normalised_pass_s

SMOKE = {
    "decomp-levels": [
        "gamma0 11",
        "omega g1:23",
        "level3 g:5",
        "level5or6 g1:7",
        "gamma1-31-by-7",
        "obstruction 7",
        "invariants g0:36",
        "invariants g:6",
    ],
    "hasse-sweep": ["hasse 5", "hasse 13", "hasse 17"],
    "ring-degree": ["freebasis f3-rank3", "regseq f3-c4-delta", "regseq f3-negative-control"],
}

#: Layers each workload must reach, and layers it must never call.
REACHES = {
    "decomp-levels": {"hilbert", "levels", "decomp"},
    "hasse-sweep": {"exactnum", "eisenstein"},
    "ring-degree": {"ringalg"},
}
LAYERS = {t.layer for t in layertrace.TARGETS}


def smoke_cases(workload):
    cases = {case.id: case for case in inprocess.build_cases(workload)}
    return [cases[case_id] for case_id in SMOKE[workload]]


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_cases_pass_their_checks(workload):
    cases = smoke_cases(workload)
    _, observations = wl.run_cases(cases)
    assert wl.judge_all(cases, observations, wl.load_expected(workload)) == []


def test_every_case_has_an_expectation():
    for workload in SMOKE:
        ids = [case.id for case in inprocess.build_cases(workload)]
        assert len(ids) == len(set(ids))
        assert set(ids) == set(wl.load_expected(workload)), workload
    assert {" ".join(argv) for argv in wl.PAPER_CLI} == set(wl.load_expected("paper-cli"))


def test_corrupted_expectation_counts_as_failed():
    cases = smoke_cases("decomp-levels")[:1] + smoke_cases("hasse-sweep")[:1]
    _, observations = wl.run_cases(cases)
    expected = {**wl.load_expected("decomp-levels"), **wl.load_expected("hasse-sweep")}
    corrupted = json.loads(json.dumps(expected))
    corrupted["gamma0 11"]["list"][0] += 1
    corrupted["hasse 5"]["v2_l"] = "1"
    failures = wl.judge_all(cases, observations, corrupted)
    assert [f.split(":")[0] for f in failures] == ["gamma0 11", "hasse 5"]


def test_independent_check_catches_a_recorded_wrong_value():
    case = smoke_cases("hasse-sweep")[0]
    wrong = dict(wl.load_expected("hasse-sweep")[case.id], v2_l="1/3", claim_v2_l="1/3")
    assert "v2(L)" in wl.judge(case, wrong, {case.id: wrong})
    invariants = smoke_cases("decomp-levels")[-1]
    wrong = [25, "25/24", 0, 0, 0, 0]
    assert "product formula" in wl.judge(invariants, wrong, {invariants.id: wrong})


def test_raising_case_counts_as_failed():
    def boom():
        raise ArithmeticError("broken")

    case = wl.Case("boom", boom)
    _, observations = wl.run_cases([case])
    assert wl.judge_all([case], observations, {"boom": None}) == [
        "boom: raised ArithmeticError: broken"
    ]


def test_paper_cli_command_matches_recording():
    wl.OUT.mkdir(exist_ok=True)
    runner = Runner(seconds=1)
    expected = wl.load_expected("paper-cli")
    rss_mb = []

    def run_command(argv):
        code, out, rss = runner.spawn([sys.executable, "-c", CLI_CODE, *argv])
        rss_mb.append(rss)
        return {"exit": code, "stdout": out.decode()}

    wanted = ("levels g1:23", "wproj serre 4 6 60")
    cases = [c for c in wl.paper_cli_cases(run_command) if c.id in wanted]
    _, observations = wl.run_cases(cases)
    assert wl.judge_all(cases, observations, expected) == []
    assert len(rss_mb) == 2 and min(rss_mb) > 0


def test_tracer_rebinds_every_alias_and_restores_them():
    import mfdecomp.cli
    import mfdecomp.hilbert

    from mfdecomp.exactnum import CyclotomicElement

    originals = {
        t.name: vars(sys.modules[t.module])[t.attr] for t in layertrace.TARGETS if "." not in t.attr
    }
    norm = CyclotomicElement.norm
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        modules = layertrace.our_modules()
        for original in originals.values():
            assert list(layertrace.aliases_of(original, modules)) == []
        assert mfdecomp.cli.h0_dim is mfdecomp.hilbert.h0_dim
        assert mfdecomp.cli.h0_dim is not originals["hilbert.h0_dim"]
        assert CyclotomicElement.norm is not norm
    finally:
        tracer.uninstall()
    assert mfdecomp.hilbert.h0_dim is originals["hilbert.h0_dim"]
    assert mfdecomp.cli.h0_dim is originals["hilbert.h0_dim"]
    assert CyclotomicElement.norm is norm


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_trace_reaches_mapped_layers_only(workload, tmp_path):
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        wl.run_cases(smoke_cases(workload))
    finally:
        tracer.uninstall()
    calls = {layer: 0 for layer in LAYERS}
    for target in layertrace.TARGETS:
        calls[target.layer] += tracer.totals()[target.name]["calls"]
    for layer in LAYERS:
        assert (calls[layer] > 0) == (layer in REACHES[workload]), (layer, calls)
    metrics = layertrace.layer_metrics(tracer.totals())
    for name, _ in layertrace.layer_metric_names():
        if name.endswith(".self_s"):
            assert metrics[name] >= 0
    tracer.write_spans(tmp_path / "spans.tsv")
    rows = (tmp_path / "spans.tsv").read_text().splitlines()
    assert rows[0].split("\t") == ["id", "parent", "target", "start_s", "end_s"]
    assert len(rows) > 1


def _pass_times(slowdowns: list[float], work_s: float = 0.04) -> dict:
    """A pass of equal stretches of work, each followed by a reference chunk,
    with the host slowed by the given factor during each stretch."""
    starts, lengths, clock = [], [], 0.0
    for factor in slowdowns:
        clock += work_s * factor
        starts.append(clock)
        lengths.append(wl.REFERENCE_NOMINAL_S * factor)
        clock += lengths[-1]
    return {"reference_start": starts, "reference_s": lengths}


def test_normalised_pass_s_cancels_host_speed():
    steady = normalised_pass_s(_pass_times([1, 1, 1, 1]))
    assert steady == pytest.approx(4 * 0.04)
    assert normalised_pass_s(_pass_times([1, 1, 2, 2])) == pytest.approx(steady)
    assert normalised_pass_s(_pass_times([1.5] * 4)) == pytest.approx(steady)


def test_run_cases_times_reference_chunks():
    cases = [wl.Case(str(i), lambda: time.sleep(0.03)) for i in range(4)]
    times, observations = wl.run_cases(cases, timer=True)
    assert observations == [None] * 4
    assert len(times["reference_s"]) >= 3
    assert times["reference_start"] == sorted(times["reference_start"])
    assert times["wall_s"] == pytest.approx(times["pass_s"] - sum(times["reference_s"]))
    assert normalised_pass_s(times) > 0


def test_benchmark_json_lists_every_metric():
    doc = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    names = [m["name"] for m in doc["per_layer"]]
    assert names == [n for n, _ in layertrace.layer_metric_names()] + [
        "cli.import_s",
        "interpreter.start_s",
        "trace.overhead_ratio",
    ]
    assert [m["name"] for m in doc["end_to_end"]] == ["norm_pass_s", "setup_s", "peak_rss_mb"]


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(wl.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring-degree", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench_out").exists()
