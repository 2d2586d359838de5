"""End-to-end CLI pipeline over the committed replay fixture."""

import builtins
import csv
import json
import re
import shutil

import pytest
from click.testing import CliRunner

from stancegraph import cli
from stancegraph.cli import main
from stancegraph.config import RunConfig
from stancegraph.induce import LIBRARY_VERSION
from stancegraph.pipeline import file_fingerprint
from stancegraph.synth import FIXTURE_DIMENSION, FIXTURE_PROVIDER
from tests.conftest import DATA_DIR, artifact_parts, rewrite_header, torn_cache


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
    result = _run(["train", "--config", config_path, paths["train_graphs"],
                   paths["dev_graphs"], paths["library"], paths["checkpoint"]])
    assert result.exit_code == 0, result.output
    result = _run(["eval", "--config", config_path, paths["test_graphs"],
                   paths["checkpoint"],
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

    def test_graph_record_fields(self, pipeline):
        with open(pipeline["train_graphs"], encoding="utf-8") as fh:
            for line in fh:
                assert set(json.loads(line)) == {
                    "text", "target", "label", "rationale", "llm_stance", "graph"}

    def test_induced_library(self, pipeline):
        doc = artifact_parts(pipeline["library"])[1]
        assert doc["version"] == LIBRARY_VERSION
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

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_library_file_is_read_once(self, pipeline, config_path,
                                       monkeypatch, command):
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if file == pipeline["library"]:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        if command == "predict":
            with open(DATA_DIR / "train.csv", encoding="utf-8", newline="") as fh:
                row = next(csv.DictReader(fh))
            args = [*pipeline["common"], row["text"], row["target"]]
        else:
            args = ["--config", config_path, pipeline["test_graphs"]]
        result = _run([command, *args, pipeline["checkpoint"],
                       "--library", pipeline["library"]])
        assert result.exit_code == 0, result.output
        assert len(opened) == 1

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

    def test_inspect_json_matches_version_1_output(self, pipeline):
        """`inspect` reads only summaries, member counts and edges, so the
        fixture library prints what it printed from a version-1 file."""
        result = _run(["inspect", pipeline["library"], "--json"])
        expected = (DATA_DIR / "inspect_fixture.json").read_text(encoding="utf-8")
        assert json.loads(result.output) == json.loads(expected)


class TestRunLocation:
    """Where the cache lives, and the gateway mode, do not enter the config
    fingerprint, so they do not change artifact bytes."""

    def test_fingerprint_leaves_out_cache_dir_and_mode(self):
        here = RunConfig(cache_dir="here", mode="replay").fingerprint()
        assert RunConfig(cache_dir="there", mode="record").fingerprint() == here
        assert RunConfig(cache_dir="here", seed=1).fingerprint() != here

    def test_two_cache_copies_write_identical_graph_records(self, config_path,
                                                            tmp_path):
        records = []
        for copy in ("a", "b"):
            cache_dir = tmp_path / copy / "cache"
            cache_dir.mkdir(parents=True)
            shutil.copyfile(DATA_DIR / "llm_cache.jsonl",
                            cache_dir / "llm_cache.jsonl")
            out = tmp_path / copy / "dev.graphs.jsonl"
            result = _run(["generate-fol", "--config", config_path,
                           "--cache-dir", str(cache_dir),
                           str(DATA_DIR / "dev.csv"), str(out)])
            assert result.exit_code == 0, result.output
            records.append(out.read_bytes())
        assert records[0] == records[1]


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

    def test_eval_fingerprint_mismatch_needs_force(self, pipeline, config_path,
                                                   tmp_path):
        other_library = tmp_path / "other-library.json"
        shutil.copyfile(pipeline["library"], other_library)
        rewrite_header(other_library, lambda doc: {**doc, "seed": 999})
        args = ["eval", "--config", config_path, pipeline["test_graphs"],
                pipeline["checkpoint"], "--library", str(other_library)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code != 0
        forced = CliRunner().invoke(main, args + ["--force"])
        assert forced.exit_code == 0, forced.output

    def test_predict_fingerprint_mismatch_needs_force(self, pipeline, tmp_path):
        other_library = tmp_path / "other-library.json"
        shutil.copyfile(pipeline["library"], other_library)
        rewrite_header(other_library, lambda doc: {**doc, "seed": 999})
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

    def test_predict_on_torn_cache_fails_without_traceback(self, pipeline,
                                                           config_path,
                                                           tmp_path):
        path = torn_cache(tmp_path / "llm_cache.jsonl", mid_character=False)
        with open(DATA_DIR / "train.csv", encoding="utf-8", newline="") as fh:
            row = next(csv.DictReader(fh))
        result = CliRunner().invoke(main, [
            "predict", "--config", config_path, "--mode", "replay",
            "--cache-dir", str(tmp_path), row["text"], row["target"],
            pipeline["checkpoint"]])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"{path}: line 4" in result.output

    def test_predict_on_wrong_shape_cache_fails_without_traceback(
            self, pipeline, config_path, tmp_path):
        path = tmp_path / "llm_cache.jsonl"
        path.write_text('{"key": "a", "vector": [1.0, 0.0]}\n')
        result = CliRunner().invoke(main, [
            "predict", "--config", config_path, "--mode", "replay",
            "--cache-dir", str(tmp_path), "some text", "some target",
            pipeline["checkpoint"]])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"{path}: line 1" in result.output

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_torn_checkpoint_fails_without_traceback(self, pipeline,
                                                     config_path, tmp_path,
                                                     command):
        checkpoint = tmp_path / "model.json"
        with open(pipeline["checkpoint"], "rb") as fh:
            data = fh.read()
        checkpoint.write_bytes(data[: len(data) // 2])
        inputs = (["some text", "some target"] if command == "predict"
                  else [pipeline["test_graphs"]])
        flags = (pipeline["common"] if command == "predict"
                 else ["--config", config_path])
        result = CliRunner().invoke(main, [command, *flags,
                                           *inputs, str(checkpoint)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert "past the end of the" in result.output

    def test_induce_reports_p2_fallbacks(self, pipeline, config_path,
                                         tmp_path):
        library = tmp_path / "library.json"
        result = _run(["induce", "--config", config_path, "--mode", "replay",
                       "--cache-dir", str(DATA_DIR), "--k", "5",
                       pipeline["all_graphs"], str(library)])
        assert result.exit_code == 0, result.output
        nodes = artifact_parts(library)[1]["nodes"]
        fallbacks = sum(node["fallback"] for node in nodes)
        assert fallbacks > 0
        match = re.search(r"P2 fallbacks: (\d+) of 5 ", result.stderr)
        assert match and int(match.group(1)) == fallbacks, result.stderr
        assert "P2 fallbacks" not in result.stdout

    def test_induce_passes_p2_max_lines(self, pipeline, config_path,
                                        monkeypatch, tmp_path):
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["p2_max_lines"])
            return real(*args, **kwargs)

        real = cli.induce_library
        monkeypatch.setattr(cli, "induce_library", spy)
        config = tmp_path / "config.json"
        with open(config_path, encoding="utf-8") as fh:
            config.write_text(json.dumps({**json.load(fh), "p2_max_lines": 2}))
        result = _run(["induce", "--config", str(config), "--mode", "replay",
                       "--cache-dir", str(DATA_DIR), "--k", "8",
                       pipeline["all_graphs"], str(tmp_path / "library.json")])
        assert result.exit_code == 0, result.output
        assert seen == [2]

    @pytest.mark.parametrize("command, key, value", [
        ("train", "n_sub", "8"),
        ("train", "relation_weights", {"Implies": "a"}),
        ("train", "relation_weights", {"Implies": 1.0}),
        ("train", "relation_weights", {"Causes": 1.0}),
        ("train", "learning_rate", "x"),
        ("train", "batch_size", 0),
        ("train", "n_filt", 0),
        ("generate-fol", "dimension", 0),
        ("train", "hidden", 0),
        ("train", "walk_length", -1),
        ("induce", "p2_max_lines", 0),
        ("induce", "p2_max_lines", -1),
        ("induce", "seed", -1),
    ], ids=["string-n_sub", "string-relation-weight", "missing-relation-weights",
            "unknown-relation", "string-learning_rate", "batch_size-0", "n_filt-0",
            "dimension-0", "hidden-0", "walk_length-minus-1", "p2_max_lines-0",
            "p2_max_lines-minus-1", "seed-minus-1"])
    def test_misconfigured_run_names_the_key(self, pipeline, config_path,
                                             tmp_path, command, key, value):
        """A config value of the wrong type, or a size that makes no valid
        model, stops the command before it writes anything."""
        config = tmp_path / "config.json"
        with open(config_path, encoding="utf-8") as fh:
            config.write_text(json.dumps(
                {**json.load(fh), "max_epochs": 2, key: value}))
        out = tmp_path / "out.json"
        if command == "train":
            args = [pipeline["train_graphs"], pipeline["dev_graphs"],
                    pipeline["library"], str(out)]
        elif command == "induce":
            args = [*pipeline["common"][2:], "--k", "8", pipeline["all_graphs"], str(out)]
        else:
            args = [*pipeline["common"][2:], str(DATA_DIR / "dev.csv"), str(out)]
        result = CliRunner().invoke(main, [command, "--config", str(config), *args])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"config key {key}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("key", ["filter_hop", "size_cap"])
    def test_removed_filter_keys_are_unknown(self, pipeline, config_path,
                                             tmp_path, key):
        """Filters are cut at the model's subgraph_hop and n_filt, so a
        config that still sets the keys that once sized them is refused."""
        config = tmp_path / "config.json"
        with open(config_path, encoding="utf-8") as fh:
            config.write_text(json.dumps({**json.load(fh), key: 1}))
        out = tmp_path / "model.json"
        result = CliRunner().invoke(main, [
            "train", "--config", str(config), pipeline["train_graphs"],
            pipeline["dev_graphs"], pipeline["library"], str(out)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"unknown config keys: ['{key}']" in result.output
        assert not out.exists()

    def test_induce_checks_the_embedding_size_before_p2(self, pipeline,
                                                        monkeypatch, tmp_path):
        """Graph records embedded at the fixture's d, induced under the
        default config's d, stop before any P2 call with both sizes named."""
        calls = []
        monkeypatch.setattr(cli.Gateway, "complete",
                            lambda self, req: calls.append(req))
        out = tmp_path / "library.json"
        result = CliRunner().invoke(main, [
            "induce", *pipeline["common"][2:], "--k", "8",
            pipeline["all_graphs"], str(out)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert (f"predicate embeddings have d={FIXTURE_DIMENSION}, but the hash "
                f"embedding provider gives d={RunConfig().dimension}") in result.output
        assert calls == [] and not out.exists()

    def test_inspect_missing_file(self):
        result = CliRunner().invoke(main, ["inspect", "/no/such/library.json"])
        assert result.exit_code != 0
