"""Data loading, optimizer, metrics, training loop, evaluation."""

import json
from dataclasses import replace

import numpy as np
import pytest

import stancegraph
from stancegraph import train as train_mod
from stancegraph.embed import test_embed as embed_text
from stancegraph.errors import (BadHeaderError, BadLabelError,
                                CacheFormatError, ConfigError, EmptySetError)
from stancegraph.fol import FolGraph, FolNode, Predicate, Relation
from stancegraph.kernel import augment_graph, build_model
from stancegraph.train import (AdamW, LabeledExample, evaluate, load_dataset,
                               load_graph_records, macro_f1, train)
from tests.conftest import base_config
from tests.oracle import loop_batch_loss_and_grads, loop_dataset_loss

LABELS = ["Favor", "Against", "None"]


# ---------------------------------------------------------------------------
# Dataset loading

class TestLoadDataset:
    def test_three_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,target,label\n"
                        "a,t,Favor\nb,t,Against\nc,t,None\n")
        examples = load_dataset(str(path), LABELS)
        assert len(examples) == 3
        assert examples[0].label == "Favor"

    def test_bad_label_reports_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,target,label\na,t,Favor\nb,t,maybe\n")
        with pytest.raises(BadLabelError) as exc:
            load_dataset(str(path), LABELS)
        assert exc.value.row == 3
        assert "maybe" in str(exc.value)

    def test_quoted_comma(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('text,target,label\n"a, with comma",t,Favor\n')
        examples = load_dataset(str(path), LABELS)
        assert examples[0].text == "a, with comma"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("sentence,topic,stance\na,t,Favor\n")
        with pytest.raises(BadHeaderError):
            load_dataset(str(path), LABELS)

    def test_graph_records_round_trip(self, tmp_path):
        graph = FolGraph(nodes=[FolNode(predicate=Predicate("A", ("x",)),
                                        embedding=embed_text("A(x)", 8))],
                         edges=[])
        record = {"text": "a", "target": "t", "label": "Favor",
                  "rationale": "A(x)", "llm_stance": "Support",
                  "graph": graph.to_dict()}
        path = tmp_path / "graphs.jsonl"
        path.write_text(json.dumps(record) + "\n")
        examples = load_graph_records(str(path), LABELS)
        assert len(examples) == 1
        assert examples[0].graph.nodes[0].canonical() == "A(x)"

    def test_torn_graph_record_names_path_and_line(self, tmp_path):
        record = {"text": "a", "target": "t", "label": "Favor",
                  "graph": {"nodes": [], "edges": []}}
        line = json.dumps(record)
        path = tmp_path / "graphs.jsonl"
        path.write_text(line + "\n\n" + line[:30])
        with pytest.raises(CacheFormatError, match="line 3") as info:
            load_graph_records(str(path), LABELS)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("bad", [
        {"text": "a", "target": "t"},
        {"text": "a", "target": "t", "label": "Favor"},
        {"text": "a", "target": "t", "label": "Favor", "graph": {"edges": []}},
        {"text": "a", "target": "t", "label": "Favor", "graph": []},
        [1, 2],
        "a string",
        None,
    ])
    def test_record_of_the_wrong_shape_names_path_and_line(self, tmp_path, bad):
        good = {"text": "a", "target": "t", "label": "Favor",
                "graph": {"nodes": [], "edges": []}}
        path = tmp_path / "graphs.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(CacheFormatError, match="line 2") as info:
            load_graph_records(str(path), LABELS)
        assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# Optimizer

class TestAdamW:
    def test_zero_gradients_zero_decay_is_noop(self):
        params = {"w": np.array([1.0, -2.0])}
        optimizer = AdamW(learning_rate=0.1, weight_decay=0.0)
        optimizer.step(params, {"w": np.zeros(2)})
        np.testing.assert_array_equal(params["w"], np.array([1.0, -2.0]))

    def test_decoupled_weight_decay(self):
        params = {"w": np.array([1.0])}
        optimizer = AdamW(learning_rate=0.1, weight_decay=0.5)
        optimizer.step(params, {"w": np.zeros(1)})
        assert params["w"][0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_descends_gradient(self):
        params = {"w": np.array([1.0])}
        optimizer = AdamW(learning_rate=0.1, weight_decay=0.0)
        optimizer.step(params, {"w": np.array([1.0])})
        assert params["w"][0] < 1.0


# ---------------------------------------------------------------------------
# Metrics

class TestMacroF1:
    def test_hand_computed_fixture(self):
        golds = ["Favor", "Against", "Favor", "Against"]
        preds = ["Favor", "Against", "Against", "Against"]
        report = macro_f1(preds, golds, "favor_against_only", LABELS)
        assert report["per_class_f1"]["Favor"] == pytest.approx(2 / 3)
        assert report["per_class_f1"]["Against"] == pytest.approx(4 / 5)
        assert report["f_avg"] == pytest.approx(0.7333, abs=1e-4)

    def test_perfect_predictions_both_modes(self):
        golds = ["Favor", "Against", "None", "Favor"]
        for mode in ("all_classes", "favor_against_only"):
            report = macro_f1(golds, golds, mode, LABELS)
            assert report["f_avg"] == 1.0
            for f1 in report["per_class_f1"].values():
                assert f1 == 1.0

    def test_absent_class_flagged(self):
        golds = ["Favor", "Against"]
        preds = ["Favor", "Against"]
        report = macro_f1(preds, golds, "all_classes", LABELS)
        assert report["per_class_f1"]["None"] == 0.0
        assert "None" in report["absent_classes"]
        assert report["f_avg"] == pytest.approx(2 / 3)

    def test_unknown_mode_is_config_error(self):
        with pytest.raises(ConfigError, match="'polar'"):
            macro_f1(["Favor"], ["Favor"], "polar", LABELS)

    def test_length_mismatch(self):
        with pytest.raises(Exception):
            macro_f1(["Favor"], ["Favor", "Against"], "all_classes", LABELS)


# ---------------------------------------------------------------------------
# Training loop

def _toy_set(n, d=8, seed=0):
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        label = LABELS[i % 3]
        name = f"{label}Cue{i % 2}"
        nodes = [FolNode(predicate=Predicate(name, (f"x{i}",)),
                         embedding=embed_text(name, d) + rng.normal(0, 0.01, d)),
                 FolNode(predicate=Predicate("Conclusion", (label,)),
                         embedding=embed_text(f"Conclusion{label}", d))]
        graph = FolGraph(nodes=nodes, edges=[(0, 1, Relation.IMPLIES)])
        examples.append(LabeledExample(text=f"t{i}", target="q", label=label,
                                       graph=graph))
    return examples


def _toy_model(**overrides):
    options = dict(dimension=8, n_filters=3, n_sub=4, n_filt=3, top_g=2,
                   layers=1, hidden=8, random_filters=True, batch_size=4,
                   max_epochs=3, learning_rate=1e-2)
    options.update(overrides)
    cfg = base_config(**options)
    return build_model(None, cfg), cfg


class TestTrain:
    def test_runs_and_logs(self):
        model, cfg = _toy_model()
        result = train(_toy_set(12), _toy_set(6, seed=1), model, cfg)
        assert result.log, "training should emit validation entries"
        assert np.isfinite(result.best_val_loss)
        for entry in result.log:
            assert set(entry) == {"step", "epoch", "train_loss", "val_loss",
                                  "val_f1"}

    def test_identical_seeds_identical_logs(self):
        logs = []
        for _ in range(2):
            model, cfg = _toy_model()
            result = train(_toy_set(12), _toy_set(6, seed=1), model, cfg)
            logs.append(json.dumps(result.log, sort_keys=True))
        assert logs[0] == logs[1]

    def test_patience_one_stops_after_second_validation(self, monkeypatch):
        losses = iter([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])

        def rising(model, examples):
            return next(losses), [ex.label for ex in examples]

        monkeypatch.setattr(train_mod, "dataset_loss", rising)
        model, cfg = _toy_model(patience=1, max_epochs=10)
        result = train(_toy_set(12), _toy_set(6, seed=1), model, cfg)
        assert len(result.log) == 2
        assert result.best_val_loss == 1.0

    def test_patience_zero_disables_early_stopping(self, monkeypatch):
        losses = iter(float(i) for i in range(1, 100))

        def rising(model, examples):
            return next(losses), [ex.label for ex in examples]

        monkeypatch.setattr(train_mod, "dataset_loss", rising)
        model, cfg = _toy_model(patience=0, max_epochs=4)
        result = train(_toy_set(12), _toy_set(6, seed=1), model, cfg)
        assert len(result.log) > 2

    def test_empty_sets_rejected(self):
        model, cfg = _toy_model()
        with pytest.raises(EmptySetError):
            train([], _toy_set(3), model, cfg)
        with pytest.raises(EmptySetError):
            train(_toy_set(3), [], model, cfg)

    def test_package_name_is_the_module(self):
        # the package does not re-export the function under the module's name
        assert stancegraph.train is train_mod
        assert "train" not in stancegraph.__all__


class _PathLength(AdamW):
    """AdamW that adds up, per parameter, the absolute size of every update
    it makes onto the initial value's: a trained parameter's sum of
    absolute terms."""
    totals: dict = {}

    def step(self, params, grads):
        before = {name: value.copy() for name, value in params.items()}
        super().step(params, grads)
        for name, value in params.items():
            self.totals[name] = (self.totals.get(name, np.abs(before[name]))
                                 + np.abs(value - before[name]))


class TestMinibatchEngine:
    def test_train_matches_per_example_loop(self, monkeypatch, corpus, library):
        """train() on the fixture: one forward and one backward call per
        minibatch and chunked validation give the log and parameters of
        the per-example gather loop, to within rounding."""
        cfg = base_config(max_epochs=6)
        train_set, dev_set = ([replace(ex, graph=augment_graph(ex.graph, library))
                               for ex in corpus[part]] for part in ("train", "dev"))
        monkeypatch.setattr(train_mod, "AdamW", _PathLength)

        def tracked_train():
            monkeypatch.setattr(_PathLength, "totals", {})
            result = train(train_set, dev_set, build_model(library, cfg), cfg)
            return result, _PathLength.totals

        result, path = tracked_train()
        monkeypatch.setattr(train_mod, "prepare", lambda graph, model: graph)
        monkeypatch.setattr(train_mod, "_batch_loss_and_grads",
                            loop_batch_loss_and_grads)
        monkeypatch.setattr(train_mod, "dataset_loss", loop_dataset_loss)
        reference, reference_path = tracked_train()
        assert len(result.log) == len(reference.log)
        for entry, expected in zip(result.log, reference.log):
            assert (entry["step"], entry["epoch"], entry["val_f1"]) == (
                expected["step"], expected["epoch"], expected["val_f1"])
            # losses are sums of nonnegative terms, logged to 10 decimals
            for key in ("train_loss", "val_loss"):
                assert abs(entry[key] - expected[key]) <= 1e-10 * (expected[key] + 1)
        for name, value in result.model.parameters().items():
            scale = path[name] + reference_path[name]
            expected = reference.model.parameters()[name]
            assert np.all(np.abs(value - expected) <= 1e-10 * scale), name

    def test_chunked_evaluation_matches_per_example(self, monkeypatch):
        model, _ = _toy_model()
        test_set = _toy_set(2 * train_mod.FORWARD_CHUNK + 3, seed=2)
        chunked = evaluate(test_set, model)
        monkeypatch.setattr(train_mod, "FORWARD_CHUNK", 1)
        assert evaluate(test_set, model) == chunked


class TestEvaluate:
    def test_deterministic(self):
        model, _ = _toy_model()
        test_set = _toy_set(9, seed=2)
        a = evaluate(test_set, model)
        b = evaluate(test_set, model)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_structure(self):
        model, _ = _toy_model()
        report = evaluate(_toy_set(9, seed=2), model)
        assert set(report) == {"accuracy", "metrics", "per_target", "predictions"}
        assert 0.0 <= report["accuracy"] <= 1.0
        pred = report["predictions"][0]
        assert sum(pred["probabilities"]) == pytest.approx(1.0, abs=1e-8)
        assert pred["pred"] in LABELS

    def test_empty_set(self):
        model, _ = _toy_model()
        with pytest.raises(EmptySetError):
            evaluate([], model)
