"""Smoke test for the standalone micro-benchmark runner."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_run_micro():
    spec = importlib.util.spec_from_file_location(
        "run_micro", REPO_ROOT / "benchmarks" / "run_micro.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_micro_writes_report(tmp_path):
    run_micro = _load_run_micro()
    out = tmp_path / "BENCH_micro.json"
    rc = run_micro.main(["--out", str(out), "--n", "500", "--batch", "16", "--repeat", "1"])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["config"] == {"n": 500, "batch_size": 16, "repeat": 1}
    for name in ("selection_kernel", "di_dispatch", "queue_roundtrip", "run_queue"):
        entry = report["benchmarks"][name]
        assert entry["scalar"]["elements_per_sec"] > 0
        assert entry["batched"]["elements_per_sec"] > 0
        assert entry["speedup"] > 0
    # Scalar and batched variants must agree on what they computed.
    for entry in report["benchmarks"].values():
        assert entry["scalar"]["result"] == entry["batched"]["result"]


def test_run_micro_merges_history(tmp_path):
    run_micro = _load_run_micro()
    out = tmp_path / "BENCH_micro.json"
    args = ["--out", str(out), "--n", "200", "--batch", "8", "--repeat", "1"]
    assert run_micro.main(args) == 0
    first = json.loads(out.read_text())
    assert len(first["runs"]) == 1
    assert first["runs"][0]["sha"] == first["sha"]
    # Re-running on the same commit replaces the entry, not appends.
    assert run_micro.main(args) == 0
    second = json.loads(out.read_text())
    assert len(second["runs"]) == 1
    # A run from another commit is kept alongside.
    history = json.loads(out.read_text())
    history["runs"][0]["sha"] = "0000000"
    history["sha"] = "0000000"
    out.write_text(json.dumps(history))
    assert run_micro.main(args) == 0
    third = json.loads(out.read_text())
    assert [entry["sha"] for entry in third["runs"]][0] == "0000000"
    assert len(third["runs"]) == 2
    # Top level still mirrors the latest run (compat shape).
    assert third["config"] == {"n": 200, "batch_size": 8, "repeat": 1}


def test_run_micro_migrates_pre_history_file(tmp_path):
    run_micro = _load_run_micro()
    out = tmp_path / "BENCH_micro.json"
    out.write_text(json.dumps({"config": {"n": 1}, "benchmarks": {}}))
    rc = run_micro.main(
        ["--out", str(out), "--n", "200", "--batch", "8", "--repeat", "1"]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert len(report["runs"]) == 2
    assert report["runs"][0]["sha"] == "unknown"


def test_run_micro_keeps_pre_history_without_git(tmp_path, monkeypatch):
    # Outside a git checkout the new run's SHA is the "unknown" fallback,
    # the same label the migrated pre-history run carries.
    run_micro = _load_run_micro()
    monkeypatch.setattr(run_micro, "_git_sha", lambda: "unknown")
    out = tmp_path / "BENCH_micro.json"
    out.write_text(json.dumps({"config": {"n": 1}, "benchmarks": {}}))
    args = ["--out", str(out), "--n", "200", "--batch", "8", "--repeat", "1"]
    assert run_micro.main(args) == 0
    report = json.loads(out.read_text())
    assert len(report["runs"]) == 2
    assert report["runs"][0]["config"] == {"n": 1}
    # A rerun replaces only its own earlier entry, never the migrated one.
    assert run_micro.main(args) == 0
    assert len(json.loads(out.read_text())["runs"]) == 2


def test_run_micro_profile_flag(tmp_path, capsys):
    run_micro = _load_run_micro()
    out = tmp_path / "BENCH_micro.json"
    rc = run_micro.main(
        ["--out", str(out), "--n", "200", "--batch", "8", "--repeat", "1", "--profile"]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "profile: selection_kernel/scalar" in err
    assert "cumulative" in err
