"""Unit tests for the tma_tool command-line interface."""

import json

import pytest

from repro.tools.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chaos_campaign_reports_every_model_fault_caught(capsys, tmp_path):
    report_path = tmp_path / "chaos.json"
    code, out, _ = run_cli(capsys, "chaos", "--skip-service",
                           "--workers", "1", "--report", str(report_path))
    assert code == 0
    assert "PASSED" in out
    report = json.loads(report_path.read_text())
    assert report["passed"] and report["violations"] == []
    assert report["service"] == {}
    model = report["model"]
    assert model["clean"] == {"rocket": True, "large-boom": True}
    assert model["caught"] == len(model["trials"]) == 8
    assert all(trial["caught"] for trial in model["trials"])


def test_reliability_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["reliability"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'reliability'" in capsys.readouterr().err


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_list_all(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "mergesort" in out
    assert "505.mcf_r" in out


def test_list_filtered_category(capsys):
    code, out, _ = run_cli(capsys, "list", "--category", "case-study")
    assert code == 0
    assert "brmiss" in out
    assert "505.mcf_r" not in out


def test_tma_command(capsys):
    code, out, _ = run_cli(capsys, "tma", "--workload", "vvadd",
                           "--config", "rocket", "--scale", "0.2",
                           "--top-only")
    assert code == 0
    assert "Retiring" in out
    assert "vvadd on Rocket" in out


def test_tma_level2_included_by_default(capsys):
    code, out, _ = run_cli(capsys, "tma", "--workload", "vvadd",
                           "--config", "rocket", "--scale", "0.2")
    assert code == 0
    assert "level 2" in out


def test_tma_refuses_a_scale_over_the_cap_before_running(capsys):
    from repro.reliability.request import MAX_SCALE

    code, out, err = run_cli(capsys, "tma", "--workload", "towers",
                             "--config", "rocket", "--scale", "1.8")
    assert code == 2
    assert out == ""
    assert f"scale must be in (0, {MAX_SCALE}], got 1.8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("perf", "--workload", "towers", "--scale", "1.8"),
    ("suite", "--category", "micro", "--config", "rocket", "--scale", "1.8"),
    ("sweep", "--workloads", "towers", "--grid", "rocket", "--scale", "1.8"),
], ids=lambda argv: argv[0])
def test_perf_suite_sweep_refuse_a_scale_over_the_cap(capsys, argv):
    from repro.reliability.request import MAX_SCALE

    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"scale must be in (0, {MAX_SCALE}], got 1.8" in err


def test_perf_refuses_an_unknown_event_before_running(capsys):
    code, out, err = run_cli(capsys, "perf", "--workload", "median",
                             "--config", "rocket", "--events", "bogus")
    assert code == 2
    assert out == ""
    assert "events ['bogus'] do not exist on the rocket core" in err


def test_trace_command_anchors_on_first_event(capsys):
    code, out, _ = run_cli(capsys, "trace", "--workload", "vvadd",
                           "--config", "rocket", "--scale", "0.2",
                           "--signals", "icache_miss,fetch_bubbles",
                           "--window", "40")
    assert code == 0
    assert "icache_miss" in out
    assert "|" in out


def test_trace_rejects_unknown_signal(capsys):
    code, out, err = run_cli(capsys, "trace", "--workload", "vvadd",
                             "--config", "rocket", "--scale", "0.2",
                             "--signals", "flux_capacitor")
    assert code == 1
    assert "unknown signal" in err


def test_vlsi_command(capsys):
    code, out, _ = run_cli(capsys, "vlsi")
    assert code == 0
    assert "GigaBOOMV3" in out
    assert "distributed" in out


def test_perf_command_distributed(capsys):
    code, out, _ = run_cli(capsys, "perf", "--workload", "median",
                           "--config", "large-boom", "--scale", "0.2",
                           "--events", "uops_retired,recovering",
                           "--counter-arch", "distributed")
    assert code == 0
    assert "uops_retired" in out
    assert "passes=1" in out


def test_perf_show_tma(capsys):
    code, out, _ = run_cli(capsys, "perf", "--workload", "median",
                           "--config", "rocket", "--scale", "0.2",
                           "--show-tma")
    assert code == 0
    assert "Retiring" in out


def test_suite_command(capsys):
    code, out, _ = run_cli(capsys, "suite", "--category", "case-study",
                           "--config", "rocket", "--scale", "0.2")
    assert code == 0
    assert "brmiss" in out
    assert "IPC" in out


def _stub_claims(monkeypatch, measured, holds):
    """Two claims over a stub measurement: one predicate, one pointer."""
    from repro.tools import claims

    def measure(results):
        return {"value": measured}

    monkeypatch.setattr(claims, "CLAIMS", [
        claims.Claim("fig0.demo", "Fig. 0", "demo claim", "~1", measure,
                     "value {value}", lambda v: holds),
        claims.Claim("fig0.pointer", "Fig. 0", "asserted elsewhere", "yes",
                     measure, "value {value}",
                     test="tests/test_cli.py::test_vlsi_command"),
    ])


def test_report_command_renders_the_claims_table(tmp_path, capsys,
                                                 monkeypatch):
    _stub_claims(monkeypatch, measured=7, holds=True)
    output = tmp_path / "REPORT.md"
    code, out, _ = run_cli(capsys, "report", "--output", str(output))
    assert code == 0
    assert "(2 claims)" in out
    text = output.read_text()
    assert "| Claim | Figure | Paper | Measured | Verdict |" in text
    assert "| `fig0.demo` | Fig. 0 | ~1 | value 7 | holds |" in text
    assert ("| `fig0.pointer` | Fig. 0 | yes | value 7 | "
            "tier-1 tests/test_cli.py::test_vlsi_command |") in text


def test_report_command_exits_1_when_a_claim_fails(capsys, monkeypatch):
    _stub_claims(monkeypatch, measured=3, holds=False)
    code, out, err = run_cli(capsys, "report")
    assert code == 1
    assert "| `fig0.demo` | Fig. 0 | ~1 | value 3 | FAILS |" in out
    assert "claims failing: fig0.demo" in err


def test_mix_command(capsys):
    code, out, _ = run_cli(capsys, "mix", "--workload", "median",
                           "--scale", "0.2")
    assert code == 0
    assert "instruction mix" in out
    assert "branches" in out


def test_suite_export_flags(tmp_path, capsys):
    json_path = tmp_path / "suite.json"
    csv_path = tmp_path / "suite.csv"
    code, out, _ = run_cli(capsys, "suite", "--category", "case-study",
                           "--config", "rocket", "--scale", "0.2",
                           "--json", str(json_path),
                           "--csv", str(csv_path))
    assert code == 0
    assert json_path.exists() and csv_path.exists()
    assert "brmiss" in json_path.read_text()
    assert csv_path.read_text().startswith("workload,")


def test_cache_stats_command(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "cache", "stats")
    assert code == 0
    assert "entries: 0" in out
    assert "unlimited" in out


def test_cache_prune_command(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    run_cli(capsys, "tma", "--workload", "vvadd", "--config", "rocket",
            "--scale", "0.2")
    run_cli(capsys, "tma", "--workload", "median", "--config", "rocket",
            "--scale", "0.2")
    code, out, _ = run_cli(capsys, "cache", "prune", "--max-entries", "1")
    assert code == 0
    assert "evicted 1 entries" in out
    assert "entries: 1" in out


def test_cache_prune_requires_a_bound(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE_LIMIT_BYTES", raising=False)
    monkeypatch.delenv("REPRO_CACHE_LIMIT_ENTRIES", raising=False)
    code, _, err = run_cli(capsys, "cache", "prune")
    assert code == 1
    assert "nothing to prune" in err


def test_serve_and_submit_round_trip(capsys, tmp_path, monkeypatch):
    """CLI-level smoke: an in-thread server + the submit subcommand."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.service import TMAService, serve_in_thread

    service = TMAService(workers=1, executor="thread", queue_capacity=8)
    submit = service.submit_payload

    def submit_then_start(payload):
        # The dispatcher starts once both submissions are in, so the
        # repeat always finds its primary queued, however fast the
        # primary would have finished.
        receipt = submit(payload)
        if service.metrics.counter("jobs_submitted") == 2:
            service.start()
        return receipt

    monkeypatch.setattr(service, "submit_payload", submit_then_start)
    server, _thread = serve_in_thread(service)
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        code, out, _ = run_cli(capsys, "submit", "--url", url,
                               "--workload", "vvadd,vvadd",
                               "--config", "rocket", "--scale", "0.2")
        assert code == 0
        assert "accepted job-000001" in out
        assert "(deduped)" in out
        assert out.count("done") == 2
    finally:
        server.shutdown()
        service.drain()


def test_submit_unreachable_server(capsys):
    code, _, err = run_cli(capsys, "submit", "--url",
                           "http://127.0.0.1:9", "--workload", "vvadd",
                           "--retries", "0", "--timeout", "2")
    assert code == 1
    assert "submit failed" in err


def test_executor_ladder_is_closed(capsys):
    from repro.tools import pool

    with pytest.raises(ValueError) as info:
        pool.executor_factory("shard")
    assert str(info.value).endswith("['inline', 'process', 'thread']")
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["serve", "--executor", "shard"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err
    assert "'shard'" in err


def test_multicore_list(capsys):
    code, out, _ = run_cli(capsys, "multicore", "--list")
    assert code == 0
    for name in ("noisy-neighbor", "symmetric", "latency-victim",
                 "capacity-clash"):
        assert name in out


def test_multicore_requires_scenario(capsys):
    code, _, err = run_cli(capsys, "multicore")
    assert code == 2
    assert "scenario" in err


def test_multicore_unknown_scenario(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    code, _, err = run_cli(capsys, "multicore", "--scenario", "no-such")
    assert code == 2
    assert "no-such" in err


def test_multicore_run_renders_and_writes_json(capsys, tmp_path,
                                               monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    json_path = tmp_path / "mc.json"
    code, out, _ = run_cli(capsys, "multicore", "--scenario",
                           "noisy-neighbor", "--scale", "0.1",
                           "--json", str(json_path))
    assert code == 0
    assert "noisy-neighbor" in out
    assert "mem-bound" in out
    assert "neighbor" in out

    import json

    payload = json.loads(json_path.read_text())
    assert payload["scenario"] == "noisy-neighbor"
    active = [c for c in payload["cores"] if not c.get("idle")]
    assert len(active) == 2
    for core in active:
        attribution = core["attribution"]
        assert (attribution["self"] + attribution["neighbor_induced"]
                == attribution["mem_bound"])

    # Second run is served from the payload cache.
    code, out, _ = run_cli(capsys, "multicore", "--scenario",
                           "noisy-neighbor", "--scale", "0.1")
    assert code == 0
    assert "(cached)" in out


def test_multicore_refuses_a_scale_over_the_cap(capsys, tmp_path,
                                                 monkeypatch):
    from repro.reliability.request import MAX_SCALE

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, "multicore", "--scenario",
                             "symmetric", "--scale", "3")
    assert code == 2
    assert out == ""
    assert f"scale must be in (0, {MAX_SCALE}], got 3.0" in err
    assert "Traceback" not in err


def test_multicore_reports_a_failed_run(capsys, tmp_path, monkeypatch):
    from repro.multicore import MulticoreError

    def broken(*args, **kwargs):
        raise MulticoreError("core 0 failed: injected")

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr("repro.multicore.run_scenario", broken)
    code, _, err = run_cli(capsys, "multicore", "--scenario", "symmetric",
                           "--scale", "0.1")
    assert code == 1
    assert "multicore run failed: MulticoreError" in err


def test_sweep_json_surfaces_pool_fallback(capsys, tmp_path, monkeypatch):
    """Regression: a degraded sweep must say so in its JSON report.

    A broken process pool silently fell back to inline execution; now
    the per-workload stats carry ``fallback_reason``/``mode`` and the
    report lists every degraded batch at the top level.
    """
    import json

    from repro.tools import pool

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    def broken_factory(workers):
        raise RuntimeError("boom")

    monkeypatch.setitem(pool.EXECUTOR_FACTORIES, "process", broken_factory)
    json_path = tmp_path / "sweep.json"
    code, _, _ = run_cli(capsys, "sweep", "--workloads", "vvadd",
                         "--grid", "rocket,small-boom", "--workers", "2",
                         "--scale", "0.1", "--json", str(json_path))
    assert code == 0  # fallback completes the sweep inline
    payload = json.loads(json_path.read_text())
    assert payload["degraded"] == [{
        "workload": "vvadd",
        "mode": "inline",
        "fallback_reason": "RuntimeError: boom",
    }]
    stats = payload["workloads"]["vvadd"]["stats"]
    assert stats["fallback_reason"] == "RuntimeError: boom"
    assert stats["mode"] == "inline"


def test_sweep_healthy_json_reports_no_degradation(capsys, tmp_path,
                                                   monkeypatch):
    import json

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    json_path = tmp_path / "sweep.json"
    code, _, _ = run_cli(capsys, "sweep", "--workloads", "vvadd",
                         "--grid", "rocket", "--scale", "0.1",
                         "--json", str(json_path))
    assert code == 0
    payload = json.loads(json_path.read_text())
    assert payload["degraded"] == []
    assert payload["workloads"]["vvadd"]["stats"]["fallback_reason"] is None


def test_sweep_deadline_writes_partial_json(capsys, tmp_path, monkeypatch):
    import json

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    json_path = tmp_path / "sweep.json"
    code, out, err = run_cli(capsys, "sweep", "--workloads", "vvadd",
                             "--grid", "rocket", "--scale", "0.1",
                             "--deadline", "0", "--json", str(json_path))
    assert code == 3
    assert "deadline lapsed" in err
    assert "(partial)" in out
    payload = json.loads(json_path.read_text())
    assert payload["partial"] is True
    assert payload["remaining"] == ["vvadd"]
    assert payload["degraded"] == []
