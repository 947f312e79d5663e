"""The benchmark's own tests: run with ``python -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import child
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("ldp.compute_iopt", 1.0, 4.0, 0),
        _span("lp.solve", 2.0, 3.0, 1),
        _span("simulator.regions", 5.0, 9.0, 0),
        _span("cli.main", 20.0, 21.5, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5])


def test_layer_metrics_are_per_pass():
    tracer = tracing.Tracer()
    tracer.spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("simulator.engine", 1.0, 9.0, 0),
        _span("model.sample", 2.0, 3.0, 1),
        _span("cli.main", 12.0, 22.0, -1),
        _span("simulator.engine", 13.0, 21.0, 3),
        _span("model.sample", 14.0, 16.0, 4),
    ]
    tracer.counts.update({"simulator.lockstep_slots": 2000, "simulator.rep_slots": 16000,
                          "simulator.row_sum": 16, "model.draws": 500})
    m = tracing.layer_metrics(tracer, passes=2, pass_wall_s=24.0, overhead_s=0.5)
    assert set(m) == set(tracing.LAYER_METRICS)
    assert m["simulator.engine_s"] == pytest.approx((7.0 + 6.0) / 2)
    assert m["model.sample_s"] == pytest.approx(1.5)
    assert m["cli.self_s"] == pytest.approx((2.0 + 2.0) / 2)
    assert m["simulator.us_per_lockstep_slot"] == pytest.approx(1e6 * 13.0 / 2000)
    assert m["simulator.rows"] == 8 and m["simulator.passes"] == 1
    assert m["simulator.rep_slots"] == 8000 and m["model.draws"] == 250
    assert m["trace.uncovered_s"] == pytest.approx(2.0)
    assert m["trace.overhead_s"] == 0.5


def test_wrappers_are_removed_and_pause_records_nothing():
    from schedlab import ldp

    original = ldp.w_growth
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        assert ldp.w_growth is not original
        cfg = workloads_config()
        with tracer.paused():
            ldp.w_growth(cfg.arrival_rates, cfg.state_probs, cfg)
        assert tracer.spans == []
        ldp.w_growth(cfg.arrival_rates, cfg.state_probs, cfg)
        assert [s[tracing.NAME] for s in tracer.spans] == ["ldp.w_growth", "lp.solve"]
        assert tracer.spans[1][tracing.PARENT] == 0
    finally:
        tracer.uninstall()
    assert ldp.w_growth is original


def workloads_config():
    from schedlab.model import config_from_json

    return config_from_json(ROOT / workloads.REFERENCE_CONFIG)


def test_inputs_depend_only_on_the_seed(tmp_path):
    specs = []
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
        seed = 7 if name != "c" else 8
        spec = workloads.build("analysis", seed, ROOT, tmp_path / name, workloads.TINY)
        specs.append((tmp_path / name / "five3.json").read_text())
    assert specs[0] == specs[1] != specs[2]
    lam = json.loads(specs[0])["arrival_rates"]
    assert all(0.85 <= x <= 0.95 for x in lam) and len(lam) == 5
    assert [c["label"] for c in spec["commands"]] == ["iopt_ref", "iopt_5u", "regions_q2", "regions_q10"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_every_output_check(tmp_path, name):
    spec = workloads.build(name, 3, ROOT, tmp_path, workloads.TINY)
    tracer = tracing.Tracer()
    with child.capture_replications() as captured:
        tracing.install_layers(tracer)
        try:
            passes = child.measure(spec, 0.0, captured, tracer)
        finally:
            tracer.uninstall()
    assert len(passes) == 1
    assert passes[0]["problems"] == [] and passes[0]["failed"] == 0
    m = tracing.layer_metrics(tracer, 1, passes[0]["wall"], 0.0)
    # only what holds in any correct version of the program: how the layers
    # batch or count their work is for the program to change
    assert set(m) == set(tracing.LAYER_METRICS)
    assert m["cli.self_s"] > 0 and m["cli.bytes_written"] > 0
    if name == "analysis":
        assert m["simulator.engine_s"] == 0 and m["model.draws"] == 0
        assert m["ldp.compute_iopt_s"] > 0 and m["ldp.w_growth_calls"] > 0
    else:
        sims = [c["check"] for c in spec["commands"]]
        assert m["simulator.rep_slots"] == sum(c["horizon"] * c["replications"] * c["runs"]
                                               for c in sims)
        assert m["simulator.rows"] >= 1 and m["simulator.engine_s"] > 0


def _run_once(spec, label):
    cmd = next(c for c in spec["commands"] if c["label"] == label)
    with child.capture_replications() as captured:
        *_, problems = child.run_command(cmd, captured, None)
        assert problems == []
        return cmd, list(captured)


def test_checks_catch_broken_outputs(tmp_path):
    spec = workloads.build("campaign", 1, ROOT, tmp_path, workloads.TINY)
    cmd, reps = _run_once(spec, "compare")
    out = Path(cmd["out"])
    reps[0].counters.final_queues[0] += 1.0
    assert any("balance" in p for p in checks.check_simulation(out, cmd["check"], reps))
    reps[0].counters.final_queues[0] -= 1.0
    doc = json.loads((out / "compare.json").read_text())
    doc["runs"][1]["overflow"][-1]["probability"] = 1.0
    (out / "compare.json").write_text(json.dumps(doc))
    problems = checks.check_simulation(out, cmd["check"], reps)
    assert any("increases" in p for p in problems) and any("Wilson" in p for p in problems)

    (tmp_path / "regions").mkdir()
    spec = workloads.build("analysis", 1, ROOT, tmp_path / "regions", workloads.TINY)
    cmd, _ = _run_once(spec, "regions_q2")
    out = Path(cmd["out"])
    lines = (out / "regions.csv").read_text().splitlines()
    (out / "regions.csv").write_text("\n".join(lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",??"]) + "\n")
    assert any("unknown labels" in p for p in checks.check_regions(out, cmd["check"]))

    iopt = {"label": "iopt_ref", "check": {"kind": "iopt", "config": cmd["argv"][2], "max_value": 0.2},
            "out": str(tmp_path / "iopt"), "argv": ["iopt", "--config", cmd["argv"][2], "--out", str(tmp_path / "iopt")]}
    *_, problems = child.run_command(iopt, [], None)
    assert len(problems) == 1 and "exceeds 0.2" in problems[0]
    doc = json.loads((tmp_path / "iopt" / "iopt.json").read_text())
    doc["value"] += 1e-6
    (tmp_path / "iopt" / "iopt.json").write_text(json.dumps(doc))
    assert any("not attained" in p for p in checks.check_iopt(tmp_path / "iopt", iopt["check"]))


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "campaign",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "missing" in proc.stderr


def test_benchmark_json_matches_the_metrics_reported():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == tracing.LAYER_METRICS
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "wall_s", "cmd_geomean_s", "peak_rss_mb"]


def test_reference_time_uses_the_speed_sampled_inside_the_interval():
    import speed

    sampler = speed.Sampler()
    sampler.times = [1.0, 2.0, 3.0, 4.0]
    sampler.speeds = [(0.5, 1.0), (1.0, 1.0), (0.5, 0.25), (0.25, 0.5)]
    assert sampler.speed(1.5, 3.5, 1.0, 0.0) == pytest.approx(0.75)
    assert sampler.speed(0.0, 4.0, 1.0, 0.0) == pytest.approx(0.5625)
    # each kind of speed is weighted by the CPU time of that kind
    assert sampler.speed(1.5, 3.5, 3.0, 1.0) == pytest.approx((3 * 0.75 + 0.625) / 4)
    # no CPU time used: the user-time speed
    assert sampler.speed(1.5, 3.5, 0.0, 0.0) == pytest.approx(0.75)
    # shorter than the sampling period: the last sample before the end
    assert sampler.speed(3.2, 3.4, 0.0, 1.0) == pytest.approx(0.25)
    user_s, system_s = speed.probe()
    assert user_s > 0 and system_s > 0


def test_time_on_more_than_one_cpu_is_not_rescaled():
    import speed

    sampler = speed.Sampler()
    sampler.times, sampler.speeds = [1.0, 2.0], [(0.5, 0.5), (0.5, 0.5)]
    one = speed.Usage(1.0, 0.0, 0.0, ())
    assert sampler.factor(1.0, 3.0, one._replace(user=0.0), one) == pytest.approx(0.5)
    # two threads: more CPU time than wall time
    assert sampler.factor(1.0, 3.0, one._replace(user=0.0), one._replace(user=3.0)) == 1.0
    # another process used CPU time
    assert sampler.factor(1.0, 3.0, one._replace(user=0.0), one._replace(children=0.01)) == 1.0


def test_usage_counts_live_and_reaped_descendants():
    import speed

    before = speed.usage()
    burn = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.1: pass\n"
    subprocess.run([sys.executable, "-c", burn], check=True)
    reaped = speed.usage()
    assert reaped.children - before.children >= 0.1 and not speed.on_one_cpu(10.0, before, reaped)
    proc = subprocess.Popen([sys.executable, "-c", burn + "input()"], stdin=subprocess.PIPE)
    try:
        for _ in range(100):  # until its 0.1 s of CPU time shows in /proc's ticks
            live = speed.usage()
            if live.children - reaped.children >= 0.05:
                break
            time.sleep(0.05)
        assert proc.pid in live.live and live.children - reaped.children >= 0.05
        assert speed.descendants_rss_mb(live.live) > 1.0
    finally:
        proc.communicate(b"\n")


def test_a_function_that_cannot_be_traced_is_named():
    from schedlab import ldp

    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    tracer.uninstall()
    assert tracer.missing == []
    tracer.wrap(ldp, "no_such_layer", "ldp.none")
    assert tracer.missing == ["schedlab.ldp.no_such_layer"]
