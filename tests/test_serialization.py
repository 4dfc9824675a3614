import contextlib
import json
from pathlib import Path

import numpy as np
import pytest

from cricpred.errors import (
    CorruptDocument,
    EpochCap,
    ModelError,
    SchemaMismatch,
    VersionMismatch,
)
from cricpred.models import (
    FORMAT_VERSION,
    KINDS,
    deserialize,
    load_document,
    make_spec,
    save_document,
    serialize,
    train,
)
from cricpred.models.base import WIRE_DTYPES, _encode_array
from cricpred.models.tree import TABLE_DTYPES, fit_classification_tree, stored_table
from cricpred.scoring import REFERENCE_POINTS_MODEL

from conftest import separable_dataset


def small_spec(kind):
    extra = {"mlp": {"epochs": 30}, "random_forest": {"n_trees": 20},
             "gradient_boosting": {"n_rounds": 30}}.get(kind, {})
    return make_spec(kind, seed=2, **extra)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    def test_identical_predictions_on_100_random_rows(self, kind, tmp_path):
        data = separable_dataset(n=150, seed=1)
        # the MLP's 30-epoch cap is for speed, and it warns when reached
        with pytest.warns(EpochCap) if kind == "mlp" else contextlib.nullcontext():
            model = train(small_spec(kind), data)
        path = tmp_path / f"{kind}.json"
        save_document(serialize(model, points_model=REFERENCE_POINTS_MODEL),
                      path)
        restored = load_document(path)
        rows = np.random.default_rng(7).normal(
            50, 40, size=(100, data.schema.total_columns))
        assert np.array_equal(model.predict_proba_matrix(rows),
                              restored.model.predict_proba_matrix(rows))
        assert restored.points_model == REFERENCE_POINTS_MODEL
        assert restored.model.spec == model.spec

    @pytest.mark.parametrize("kind", KINDS)
    def test_load_and_save_reproduce_the_file(self, kind, trained, tmp_path):
        """A saved document, loaded and saved again, is the same bytes, and
        its node table loads as the four stored arrays, in the dtypes the
        tree code computes in."""
        path = Path(trained(kind))
        loaded = load_document(path)
        again = tmp_path / "again.json"
        save_document(serialize(loaded.model, loaded.points_model, loaded.ledger),
                      again)
        assert again.read_bytes() == path.read_bytes()
        if kind in ("random_forest", "gradient_boosting"):
            table = {k: v for k, v in loaded.model.parameters.items()
                     if isinstance(v, np.ndarray)}
            assert {k: v.dtype for k, v in table.items()} == {
                k: TABLE_DTYPES[k] for k in WIRE_DTYPES}

    def test_document_fields(self):
        data = separable_dataset(n=120, seed=0)
        model = train(small_spec("logistic_regression"), data)
        doc = serialize(model)
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["label_convention"] == "1=home_team_win"
        assert doc["schema_fingerprint"] == data.schema.fingerprint()
        assert doc["training_rows"] == 120
        json.dumps(doc)  # must be pure JSON types


class TestRejections:
    def make_doc(self):
        data = separable_dataset(n=120, seed=0)
        return serialize(train(small_spec("linear_svm"), data)), data

    def test_truncated_file(self, tmp_path):
        doc, _ = self.make_doc()
        path = tmp_path / "model.json"
        save_document(doc, path)
        blob = path.read_text(encoding="utf-8")
        path.write_text(blob[: len(blob) // 2], encoding="utf-8")
        with pytest.raises(CorruptDocument):
            load_document(path)

    def test_missing_parameters_key(self):
        doc, _ = self.make_doc()
        del doc["parameters"]
        with pytest.raises(CorruptDocument):
            deserialize(doc)

    def test_future_version(self):
        doc, _ = self.make_doc()
        doc["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(VersionMismatch):
            deserialize(doc)

    def test_node_index_beyond_four_bytes(self):
        """A node index that a 4-byte integer would wrap is refused."""
        with pytest.raises(ModelError, match="right"):
            _encode_array(np.array([0, 2**31]), "right")
        assert _encode_array(np.array([0, 2**31 - 1]), "right") == "AAAAAP///38="

    def test_column_beyond_two_bytes(self):
        """A column index that a 2-byte integer would wrap is refused."""
        with pytest.raises(ModelError, match="feature"):
            _encode_array(np.array([0, 32768]), "feature")
        assert _encode_array(np.array([0, 32767]), "feature") == "AAD/fw=="

    @pytest.mark.parametrize("key, at_leaf", [
        ("left", False), ("feature", True), ("threshold", True), ("value", False)])
    def test_table_a_document_cannot_store(self, key, at_leaf):
        """A grown node table whose dropped facts are not the ones the
        stored form implies is refused, not kept without them: an internal
        node's left child other than the next node or its value other than
        0, a leaf's feature or threshold other than 0."""
        data = separable_dataset(n=120, seed=0)
        table = fit_classification_tree(data.X, data.y)
        leaf = table["right"] == np.arange(table["right"].size)
        i = int(np.flatnonzero(leaf == at_leaf)[0])
        table[key][i] += 2
        with pytest.raises(ModelError, match=f"node {i}'s {key} "):
            stored_table(table)

    def test_wrong_width_rows(self):
        doc, data = self.make_doc()
        model = deserialize(doc).model
        wide = np.zeros((3, data.schema.total_columns + 1))
        with pytest.raises(SchemaMismatch):
            model.predict_proba_matrix(wide)

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        doc, _ = self.make_doc()
        path = tmp_path / "model.json"
        save_document(doc, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
