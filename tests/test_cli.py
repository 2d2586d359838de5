"""End-to-end CLI pipeline over the committed replay fixture."""

import csv
import json

import pytest
from click.testing import CliRunner

from stancegraph.cli import main
from stancegraph.pipeline import file_fingerprint
from stancegraph.synth import FIXTURE_DIMENSION, FIXTURE_PROVIDER
from tests.conftest import DATA_DIR


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def config_path(workdir):
    path = workdir / "config.json"
    path.write_text(json.dumps({
        "dimension": FIXTURE_DIMENSION,
        "embedding_provider": FIXTURE_PROVIDER,
        "learning_rate": 1e-2,
        "max_epochs": 60,
        "batch_size": 8,
        "validation_interval": 1.0,
        "patience": 0,
        "seed": 3,
    }))
    return str(path)


def _run(args):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    return result


@pytest.fixture(scope="module")
def pipeline(workdir, config_path):
    """generate-fol -> induce -> train -> eval, all replayed from the
    committed cache."""
    common = ["--config", config_path, "--mode", "replay",
              "--cache-dir", str(DATA_DIR)]
    paths = {
        "train_graphs": str(workdir / "train.graphs.jsonl"),
        "dev_graphs": str(workdir / "dev.graphs.jsonl"),
        "test_graphs": str(workdir / "test.graphs.jsonl"),
        "all_graphs": str(workdir / "all.graphs.jsonl"),
        "library": str(workdir / "library.json"),
        "checkpoint": str(workdir / "model.json"),
        "metrics": str(workdir / "metrics.json"),
        "predictions": str(workdir / "predictions.jsonl"),
    }
    for name in ("train", "dev", "test"):
        result = _run(["generate-fol", *common,
                       str(DATA_DIR / f"{name}.csv"),
                       paths[f"{name}_graphs"]])
        assert result.exit_code == 0, result.output
    with open(paths["all_graphs"], "w", encoding="utf-8") as out:
        for name in ("train", "dev", "test"):
            with open(paths[f"{name}_graphs"], encoding="utf-8") as part:
                out.write(part.read())
    result = _run(["induce", *common, paths["all_graphs"], paths["library"]])
    assert result.exit_code == 0, result.output
    result = _run(["train", *common, paths["train_graphs"],
                   paths["dev_graphs"], paths["library"], paths["checkpoint"]])
    assert result.exit_code == 0, result.output
    result = _run(["eval", *common, paths["test_graphs"], paths["checkpoint"],
                   "--library", paths["library"],
                   "--metrics-out", paths["metrics"],
                   "--predictions-out", paths["predictions"]])
    assert result.exit_code == 0, result.output
    paths["eval_stdout"] = result.output
    paths["common"] = common
    return paths


class TestPipeline:
    def test_graph_record_counts(self, pipeline):
        with open(pipeline["train_graphs"], encoding="utf-8") as fh:
            assert sum(1 for line in fh if line.strip()) == 32

    def test_induced_library(self, pipeline):
        doc = json.loads(open(pipeline["library"], encoding="utf-8").read())
        assert doc["version"] == 1
        assert len(doc["nodes"]) == 8

    def test_metrics_file(self, pipeline):
        doc = json.loads(open(pipeline["metrics"], encoding="utf-8").read())
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert "all_classes" in doc["metrics"]
        assert doc["config_fingerprint"]

    def test_eval_stdout_is_json(self, pipeline):
        doc = json.loads(pipeline["eval_stdout"])
        assert set(doc) == {"accuracy", "f1_all_classes", "f1_polar"}

    def test_predictions_are_record_per_example(self, pipeline):
        with open(pipeline["predictions"], encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        assert len(records) == 24
        for rec in records:
            assert abs(sum(rec["probabilities"]) - 1.0) < 1e-8

    def test_predict_emits_simplex(self, pipeline):
        with open(DATA_DIR / "train.csv", encoding="utf-8", newline="") as fh:
            row = next(csv.DictReader(fh))
        result = _run(["predict", *pipeline["common"], row["text"],
                       row["target"], pipeline["checkpoint"],
                       "--library", pipeline["library"]])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert abs(sum(doc["probabilities"]) - 1.0) < 1e-8
        assert doc["pred"] in ("Favor", "Against", "None")

    def test_inspect_lists_every_schema(self, pipeline):
        result = _run(["inspect", pipeline["library"]])
        assert result.exit_code == 0
        members_lines = [l for l in result.output.splitlines() if "members)" in l]
        assert len(members_lines) == 8

    def test_inspect_json(self, pipeline):
        result = _run(["inspect", pipeline["library"], "--json"])
        doc = json.loads(result.output)
        assert doc["k"] == 8
        assert len(doc["nodes"]) == 8


class TestErrorPaths:
    def test_unknown_label_set_is_usage_error(self, workdir, config_path):
        result = CliRunner().invoke(main, [
            "generate-fol", "--config", config_path,
            str(DATA_DIR / "train.csv"), str(workdir / "x.jsonl"),
            "--label-set", "bogus"])
        assert result.exit_code != 0
        assert "label set" in result.output

    def test_replay_cache_miss_fails(self, tmp_path, config_path):
        missing = tmp_path / "empty-cache-dir"
        missing.mkdir()
        (missing / "llm_cache.jsonl").write_text("")
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("text,target,label\nnever recorded,t,Favor\n")
        result = CliRunner().invoke(main, [
            "generate-fol", "--config", config_path, "--mode", "replay",
            "--cache-dir", str(missing), str(csv_path),
            str(tmp_path / "out.jsonl")])
        assert result.exit_code != 0
        assert "no cached response" in result.output

    def test_eval_fingerprint_mismatch_needs_force(self, pipeline, tmp_path):
        other_library = tmp_path / "other-library.json"
        doc = json.loads(open(pipeline["library"], encoding="utf-8").read())
        doc["seed"] = 999
        other_library.write_text(json.dumps(doc, sort_keys=True))
        args = ["eval", *pipeline["common"], pipeline["test_graphs"],
                pipeline["checkpoint"], "--library", str(other_library)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code != 0
        forced = CliRunner().invoke(main, args + ["--force"])
        assert forced.exit_code == 0, forced.output

    def test_predict_fingerprint_mismatch_needs_force(self, pipeline, tmp_path):
        other_library = tmp_path / "other-library.json"
        doc = json.loads(open(pipeline["library"], encoding="utf-8").read())
        doc["seed"] = 999
        other_library.write_text(json.dumps(doc, sort_keys=True))
        with open(DATA_DIR / "train.csv", encoding="utf-8", newline="") as fh:
            row = next(csv.DictReader(fh))
        args = ["predict", *pipeline["common"], row["text"], row["target"],
                pipeline["checkpoint"], "--library", str(other_library)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code != 0
        assert file_fingerprint(pipeline["library"]) in result.output
        assert file_fingerprint(str(other_library)) in result.output
        forced = CliRunner().invoke(main, args + ["--force"])
        assert forced.exit_code == 0, forced.output

    def test_inspect_missing_file(self):
        result = CliRunner().invoke(main, ["inspect", "/no/such/library.json"])
        assert result.exit_code != 0
