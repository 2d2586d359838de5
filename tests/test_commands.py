"""The command boundary in cli.py: which flags each subcommand takes, and
typed errors for a config that cannot be used."""

import json
from dataclasses import fields

import pytest
from click.testing import CliRunner

from stancegraph.cli import main
from stancegraph.config import RunConfig
from stancegraph.errors import ConfigError, GatewayConfigError
from stancegraph.gateway import Gateway
from tests.conftest import DATA_DIR

SHARED = ("config_path", "seed", "mode", "cache_dir")

# Every parameter of every subcommand, in --help order. A flag the command
# does not read has no place here.
PARAMS = {
    "generate-fol": ["config_path", "mode", "cache_dir", "dataset", "out",
                     "label_set"],
    "induce": ["config_path", "seed", "mode", "cache_dir", "graphs", "out",
               "k_fixed", "label_set"],
    "train": ["config_path", "seed", "train_graphs", "dev_graphs",
              "library_path", "out", "label_set", "log_out", "n_filters",
              "max_epochs", "learning_rate", "patience"],
    "eval": ["config_path", "graphs", "checkpoint", "library_path",
             "metrics_out", "predictions_out", "force"],
    "predict": ["config_path", "mode", "cache_dir", "text", "target",
                "checkpoint", "library_path", "force"],
    "inspect": ["library_path", "as_json"],
}

# Every RunConfig field, in declaration order: adding or removing a knob is
# an edit here.
CONFIG_FIELDS = [
    "dimension", "embedding_provider", "model_id", "mode", "cache_dir",
    "temperature", "max_tokens", "p2_max_lines", "k_grid", "k_fixed",
    "n_filters", "n_sub", "n_filt", "walk_length", "top_g", "layers",
    "hidden", "subgraph_hop", "relation_weights", "batch_size",
    "learning_rate", "max_epochs", "patience", "validation_interval",
    "weight_decay", "seed", "random_filters", "skip_augmentation",
    "label_set",
]


class TestFlagSets:
    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_each_command_takes_only_the_flags_it_reads(self, name):
        assert [p.name for p in main.commands[name].params] == PARAMS[name]

    def test_no_other_commands(self):
        assert set(main.commands) == set(PARAMS)

    def test_config_fields(self):
        assert [f.name for f in fields(RunConfig)] == CONFIG_FIELDS

    def test_shared_flag_slots(self):
        slots = sum(p.name in SHARED for cmd in main.commands.values()
                    for p in cmd.params)
        assert slots == 13

    def test_label_set_flag_sets_the_labels(self, tmp_path):
        result = CliRunner().invoke(main, [
            "generate-fol", "--mode", "replay", "--cache-dir", str(DATA_DIR),
            "--label-set", "pro-con-neutral", str(DATA_DIR / "train.csv"),
            str(tmp_path / "out.jsonl")])
        assert result.exit_code == 1
        assert "bad label 'Favor' at row 2" in result.output

    def test_ablate_is_gone(self, tmp_path):
        result = CliRunner().invoke(main, [
            "generate-fol", "--ablate", "random-filters",
            str(DATA_DIR / "train.csv"), str(tmp_path / "out.jsonl")])
        assert result.exit_code == 2
        assert "No such option '--ablate'" in result.output


class TestConfigErrors:
    def test_unknown_key_is_a_config_error(self):
        with pytest.raises(ConfigError, match="bogus"):
            RunConfig.from_dict({"seed": 1, "bogus": 2})

    def test_grad_clip_is_no_longer_a_field(self):
        with pytest.raises(ConfigError, match="grad_clip"):
            RunConfig.from_dict({"grad_clip": 1.0})

    def test_diagonal_w_is_no_longer_a_field(self):
        with pytest.raises(ConfigError, match="diagonal_w"):
            RunConfig.from_dict({"diagonal_w": True})

    def test_unknown_gateway_mode(self, tmp_path):
        with pytest.raises(GatewayConfigError, match="bogus"):
            Gateway(mode="bogus", cache_path=str(tmp_path / "cache.jsonl"))

    @pytest.mark.parametrize("content, problem", [
        (b'{"seed": 1,', "not a JSON file"),
        (b"\xff\xfe{}", "not a JSON file"),
        (b"[1, 2]", "must be a JSON object, not list"),
        (b'"seed"', "must be a JSON object, not str"),
        (b'{"seed": 1, "bogus": 2}', "unknown config keys: ['bogus']"),
    ])
    def test_bad_config_file_exits_through_click(self, tmp_path, content,
                                                 problem):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        result = CliRunner().invoke(main, [
            "generate-fol", "--config", str(config), "--mode", "replay",
            "--cache-dir", str(DATA_DIR), str(DATA_DIR / "train.csv"),
            str(tmp_path / "out.jsonl")])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert problem in result.output
        assert not (tmp_path / "out.jsonl").exists()

    def test_flags_override_the_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "live", "cache_dir": "nowhere"}))
        missing = tmp_path / "cache"
        missing.mkdir()
        (missing / "llm_cache.jsonl").write_text("")
        result = CliRunner().invoke(main, [
            "generate-fol", "--config", str(config), "--mode", "replay",
            "--cache-dir", str(missing), str(DATA_DIR / "train.csv"),
            str(tmp_path / "out.jsonl")])
        assert result.exit_code == 1
        assert "no cached response" in result.output
