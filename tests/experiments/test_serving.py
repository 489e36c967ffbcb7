"""The serving experiment: measurement, checks, CLI, metrics snapshot."""

import json

import pytest

from repro.engine import all_experiment_names, validate_artifact
from repro.experiments import serving
from repro.experiments.__main__ import main
from repro.obs import validate_snapshot

FAST = ["--param", "requests=600", "--param", "rate_rps=20000",
        "--param", "admit_rate=10000"]


class TestMeasure:
    def test_single_cell_payload_shape(self):
        payload = serving.measure("pmod", 400, rate_rps=20000.0, seed=0)
        assert payload["scheme"] == "pmod"
        assert payload["n_requests"] == 400
        assert sum(payload["statuses"].values()) == 400
        for field in ("latency", "balance", "concentration",
                      "mean_batch_size", "peak_queue_depth"):
            assert field in payload
        assert payload["latency"]["p50"] <= payload["latency"]["p99"]
        assert json.loads(json.dumps(payload)) == payload

    def test_stalled_shard_cell_degrades_explicitly(self):
        """The acceptance scenario through the experiment surface: one
        stalled shard yields explicit timeouts/rejects, full
        accounting, bounded queue — and the run terminates."""
        payload = serving.measure("pmod", 400, rate_rps=20000.0,
                                  max_queue_depth=128, timeout_s=0.03,
                                  stall_shard=0, stall_s=0.3, seed=0)
        statuses = payload["statuses"]
        assert sum(statuses.values()) == 400
        assert statuses.get("dropped", 0) == 0
        assert statuses.get("timeout", 0) + statuses.get("rejected", 0) > 0
        assert payload["peak_queue_depth"] <= 128
        assert payload["stalled_shard"] == 0

    def test_degradation_checks_cover_every_scheme(self):
        cells = {
            "pmod": {"statuses": {"ok": 10}, "n_requests": 10,
                     "peak_queue_depth": 5},
            "xor": {"statuses": {"ok": 8, "timeout": 2}, "n_requests": 10,
                    "peak_queue_depth": 5},
        }
        checks = serving.degradation_checks(cells, max_queue_depth=8,
                                            stalled=True)
        assert checks["pmod_all_accounted"]
        assert checks["xor_stall_surfaces_explicitly"]
        assert not checks["pmod_stall_surfaces_explicitly"]
        assert len(checks) == 8


class TestRender:
    def test_render_has_table_chart_and_verdict(self):
        cells = {
            scheme: serving.measure(scheme, 300, rate_rps=20000.0, seed=0)
            for scheme in ("traditional", "pmod")
        }
        out = serving.render({
            "n_requests": 300, "pattern": "zipfian", "arrival": "bursty",
            "rate_rps": 20000.0, "n_shards": 32, "stall_shard": None,
            "schemes": cells,
            "checks": serving.degradation_checks(cells, 512, stalled=False),
        })
        assert "p99 ms" in out
        assert "p99 latency (ms) per scheme" in out
        assert "Serving contract" in out
        assert "traditional" in out and "pmod" in out


class TestCli:
    def test_registered(self):
        assert "serving" in all_experiment_names()

    def test_artifact_written_with_checks(self, tmp_path, capsys):
        path = tmp_path / "serving.json"
        main(["serving", "--artifact", str(path), *FAST])
        artifact = json.loads(path.read_text())
        validate_artifact(artifact)
        assert artifact["experiment"] == "serving"
        data = artifact["data"]
        assert set(data["schemes"]) == set(serving.DEFAULT_SCHEMES)
        for cell in data["schemes"].values():
            assert sum(cell["statuses"].values()) == cell["n_requests"]
        assert all(data["checks"].values()), data["checks"]
        out = capsys.readouterr().out
        assert "Serving" in out
        assert "p99" in out

    def test_stall_param_flows_into_checks(self, tmp_path, capsys):
        path = tmp_path / "stalled.json"
        main(["serving", "--artifact", str(path), *FAST,
              "--param", "stall_shard=0",
              "--param", "schemes=[\"pmod\"]"])
        capsys.readouterr()
        data = json.loads(path.read_text())["data"]
        assert data["stall_shard"] == 0
        assert "pmod_stall_surfaces_explicitly" in data["checks"]
        assert data["checks"]["pmod_no_silent_drops"]
        assert data["checks"]["pmod_queue_bounded"]

    def test_metrics_out_snapshot_carries_serve_series(self, tmp_path,
                                                       capsys):
        metrics_path = tmp_path / "metrics.json"
        main(["serving", "--metrics-out", str(metrics_path), *FAST,
              "--param", "schemes=[\"pmod\",\"traditional\"]"])
        capsys.readouterr()
        snapshot = json.loads(metrics_path.read_text())
        validate_snapshot(snapshot)
        counters = snapshot["metrics"]["counters"]
        served = [c for c in counters if c["name"] == "serve.requests"
                  and c["labels"].get("scheme") == "pmod"
                  and c["value"] > 0]
        assert served, "serve.requests{scheme=pmod} never incremented"
        hists = snapshot["metrics"]["histograms"]
        assert any(h["name"] == "serve.latency_s" and h["count"] > 0
                   for h in hists)

    def test_payload_cache_round_trip(self, tmp_path):
        cache = tmp_path / "cache"
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = [*FAST, "--param", "schemes=[\"pmod\"]"]
        main(["serving", "--artifact", str(a),
              "--cache-dir", str(cache), *args])
        assert list(cache.glob("*/*.payload.json"))
        main(["serving", "--artifact", str(b),
              "--cache-dir", str(cache), *args])
        assert (json.loads(a.read_text())["data"]
                == json.loads(b.read_text())["data"])

    def test_traced_run_never_reads_untraced_cells(self, tmp_path, capsys):
        """An observed run re-measures rather than reuse cells cached
        without traces, so its stage-coverage contract is measured."""
        cache = tmp_path / "cache"
        args = [*FAST, "--param", "schemes=[\"pmod\"]",
                "--cache-dir", str(cache)]
        main(["serving", *args])
        path = tmp_path / "traced.json"
        main(["serving", *args, "--metrics-out",
              str(tmp_path / "metrics.json"), "--artifact", str(path),
              "--check"])
        capsys.readouterr()
        checks = json.loads(path.read_text())["data"]["checks"]
        assert checks["stage_coverage_attributed"]
        assert checks["pmod_stage_coverage"]
        assert len(list(cache.glob("*/*.payload.json"))) == 2
