"""Self-test of the e2e benchmark at a tiny size (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402  (also puts src/ on sys.path)
import compare  # noqa: E402
import run  # noqa: E402

from repro.ioutil import atomic_write_json  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
SIMULATED = ("sessions_completed_frac", "startup_s_p50", "continuity_p50")


def _run(out, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--scale", "tiny",
           "--seconds", "0.2", "--out", str(out), *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    with open(os.path.join(out, "BENCH_e2e.json")) as fh:
        return done, json.load(fh), str(out)


@pytest.fixture(scope="module")
def full(tmp_path_factory):
    """Every workload, both modes, once."""
    return _run(tmp_path_factory.mktemp("e2e"))


def test_schema_and_provenance(full):
    done, artifact, _out = full
    assert done.returncode == 0, done.stdout + done.stderr
    assert artifact["schema"] == compare.SCHEMA
    assert {"commit", "seed", "seconds", "scale"} <= set(artifact)
    assert {"cpu_count", "affinity", "python", "platform"} \
        <= set(artifact["host"])
    assert list(artifact["workloads"]) == WORKLOADS
    for name, entry in artifact["workloads"].items():
        assert entry["why"] and entry["session_seconds"] > 0
        assert sorted(entry["end_to_end"]["metrics"]) == sorted(E2E)
        assert sorted(entry["per_layer"]["metrics"]) == sorted(PER_LAYER)
        for section in ("end_to_end", "per_layer"):
            doc = entry[section]
            assert doc["correct"] and doc["failed"] == 0
            assert doc["attempted"] >= 1
            assert len(doc["repetitions"]) >= 3
            for rep in doc["repetitions"]:  # enough to redo the medians
                assert {"cpu_s", "wall_s", "cal_s", "ratio", "digest"} \
                    <= set(rep)
        for m in SPEC["end_to_end"]:
            got = entry["end_to_end"]["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and got["value"] > 0
        shares = [v["value"] for k, v in
                  entry["per_layer"]["metrics"].items()
                  if k.endswith(".self_share")]
        assert abs(sum(shares) - 1.0) <= 0.01


def test_every_name_is_printed_and_last_line_is_the_summary(full):
    done, _artifact, _out = full
    for name in WORKLOADS + E2E + PER_LAYER:
        assert name in done.stdout
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(summary) == ["attempted", "correct", "failed", "metrics"]
    assert summary["correct"] is True
    assert sorted(summary["metrics"]) == sorted(PER_LAYER)


def test_traces_hold_the_phase_spans(full):
    _done, _artifact, out = full
    traces = {}
    for f in os.listdir(out):
        if f.startswith("TRACE_"):
            with open(os.path.join(out, f)) as fh:
                traces[f] = json.load(fh)["traceEvents"]
    assert sorted(traces) == sorted(f"TRACE_{w}.json" for w in WORKLOADS)
    for fname, events in traces.items():
        names = {e["name"] for e in events}
        assert {"import", "calibrate", "build", "run"} <= names
        assert ("supervise" in names) == ("shard_k2" in fname)
        by_id = {e["args"]["id"]: e for e in events}
        assert all(e["args"]["parent"] is None
                   or e["args"]["parent"] in by_id for e in events)
    budget = [e for e in traces["TRACE_star_clean.json"]
              if "layer_self_share" in e["args"]]
    assert len(budget) == 1 and budget[0]["name"] == "run"


def test_seed_changes_simulated_metrics_and_same_seed_repeats(tmp_path):
    def simulated(seed, sub):
        done, artifact, _out = _run(
            tmp_path / sub, "--workload", "star_impaired",
            "--seed", str(seed))
        assert done.returncode == 0, done.stdout + done.stderr
        entry = artifact["workloads"]["star_impaired"]
        values = {k: entry["end_to_end"]["metrics"][k]["value"]
                  for k in SIMULATED}
        values.update({k: v["value"] for k, v in
                       entry["per_layer"]["metrics"].items()
                       if v["unit"] in compare.EXACT_UNITS})
        values["digest"] = entry["end_to_end"]["repetitions"][0]["digest"]
        return values

    first, again, other = (simulated(11, "a"), simulated(11, "b"),
                           simulated(12, "c"))
    assert first == again
    assert first["digest"] != other["digest"]
    assert any(first[k] != other[k] for k in first if k != "digest")


def test_corrupted_digest_fails_the_run(monkeypatch, capsys, tmp_path):
    import workloads

    serial = iter(range(10**6))
    monkeypatch.setattr(workloads, "population_digest",
                        lambda doc: f"corrupt-{next(serial)}")
    argv = ["--workload", "star_clean", "--scale", "tiny",
            "--seconds", "0.1"]
    assert child.main(argv) == 1
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["correct"] is False
    failed = [c["name"] for c in doc["checks"] if not c["ok"]]
    assert failed == ["digest identical across repetitions"]
    # ... and the one command passes that on as its exit code
    monkeypatch.setattr(run, "run_child", lambda *a: copy.deepcopy(doc))
    assert run.main(["--workload", "star_clean", "--trace", "0",
                     "--out", str(tmp_path)]) == 1


def test_compare_verdicts(full, tmp_path, capsys):
    _done, artifact, _out = full

    def write(doc, name):
        path = str(tmp_path / name)
        atomic_write_json(path, doc)
        return path

    base = write(artifact, "a.json")
    assert compare.main(base, base, SPEC) == 0
    assert "0 regression(s)" in capsys.readouterr().out

    slower = copy.deepcopy(artifact)
    slower["workloads"]["cdn_shared"]["end_to_end"]["metrics"][
        "host_cost"]["value"] *= 1.5
    assert compare.main(base, write(slower, "b.json"), SPEC) == 1
    assert "REGRESSION" in capsys.readouterr().out

    noisy = copy.deepcopy(artifact)
    q = noisy["workloads"]["star_clean"]["end_to_end"]["host_cost_quartiles"]
    q[0], q[2] = q[1] * 0.8, q[1] * 1.2
    assert compare.main(base, write(noisy, "c.json"), SPEC) == 0
    assert "unresolved" in capsys.readouterr().out

    other_host = copy.deepcopy(artifact)
    other_host["host"]["cpu_count"] += 1
    assert compare.main(base, write(other_host, "d.json"), SPEC) == 2
