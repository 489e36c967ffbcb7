"""The uniform ``python -m repro.experiments`` CLI."""

import json

import pytest

from repro.engine import all_experiment_names, validate_artifact
import repro.experiments.__main__ as cli
from repro.experiments.__main__ import failed_checks, main, parse_params
from repro.obs import get_collector, get_journal, get_registry


class TestParseParams:
    def test_json_values(self):
        assert parse_params(["workload=bt", "scale=0.5", "seeds=[1,2]"]) == {
            "workload": "bt", "scale": 0.5, "seeds": [1, 2],
        }

    def test_plain_strings_pass_through(self):
        assert parse_params(["policy=first-touch"]) == {
            "policy": "first-touch"
        }

    def test_missing_equals_rejected(self):
        with pytest.raises(SystemExit):
            parse_params(["workload"])


class TestMain:
    def test_list(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        for name in all_experiment_names():
            assert name in out

    def test_run_and_render(self, capsys):
        main(["fragmentation"])
        assert "Table 1" in capsys.readouterr().out

    def test_artifact_written(self, tmp_path, capsys):
        path = tmp_path / "frag.json"
        main(["fragmentation", "--artifact", str(path)])
        artifact = json.loads(path.read_text())
        validate_artifact(artifact)
        assert artifact["experiment"] == "fragmentation"
        assert "Table 1" in capsys.readouterr().out

    def test_param_forwarded(self, tmp_path):
        path = tmp_path / "frag.json"
        main(["fragmentation", "--artifact", str(path),
              "--param", "set_counts=[256,512]"])
        artifact = json.loads(path.read_text())
        assert len(artifact["data"]["rows"]) == 2
        assert artifact["config"]["params"] == {"set_counts": [256, 512]}

    def test_observed_run_restores_observability(self, tmp_path, capsys):
        """An in-process observed run hands back the registry, trace
        collector and journal as it found them: off."""
        main(["fragmentation", "--metrics-out", str(tmp_path / "m.json"),
              "--journal", str(tmp_path / "events.jsonl")])
        capsys.readouterr()
        assert (tmp_path / "m.json").exists()
        assert get_registry().enabled is False
        assert get_collector().enabled is False
        assert get_journal().enabled is False


class TestCheck:
    """``--check``: exit 1 naming every false entry of the artifact's
    ``data["checks"]``, or when there is no checks block."""

    @pytest.fixture
    def with_checks(self, monkeypatch):
        """Make the next CLI run's artifact carry ``checks``."""
        real = cli.run_experiment

        def install(checks):
            def run_experiment(name, context):
                artifact = real(name, context)
                artifact["data"]["checks"] = checks
                return artifact
            monkeypatch.setattr(cli, "run_experiment", run_experiment)
        return install

    def test_failed_checks(self):
        artifact = {"data": {"checks": {"a": True, "b": False, "c": False}}}
        assert failed_checks(artifact) == ["b", "c"]
        assert failed_checks({"data": {}}) == ["checks block missing"]
        assert failed_checks({"data": {"checks": {}}}) == [
            "checks block missing"]

    def test_all_checks_hold(self, with_checks, capsys):
        with_checks({"a": True, "b": True})
        main(["fragmentation", "--check"])
        assert "fragmentation-check: ok" in capsys.readouterr().out

    def test_false_checks_named(self, with_checks, capsys):
        with_checks({"a": True, "b": False, "c": False})
        with pytest.raises(SystemExit) as exc:
            main(["fragmentation", "--check"])
        assert exc.value.code == 1
        assert ("fragmentation-check: FAILED (b, c)"
                in capsys.readouterr().err)

    def test_missing_checks_block_fails(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fragmentation", "--check"])
        assert exc.value.code == 1
        assert "checks block missing" in capsys.readouterr().err

    def test_without_check_flag_never_exits(self, with_checks, capsys):
        with_checks({"a": False})
        main(["fragmentation"])
        assert "Table 1" in capsys.readouterr().out
