"""Uniform train / predict-probability interface over the six classifiers,
plus the JSON model-document format."""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from ..errors import (
    CorruptDocument,
    InvalidHyperparameter,
    SchemaMismatch,
    SingleClassData,
    VersionMismatch,
)
from ..scoring import COEFFICIENT_KEYS, PointsModel
from ..strength import TeamWeightLedger
from . import ensemble, linear, mlp, naive_bayes, tree

FORMAT_VERSION = 2
LABEL_CONVENTION = "1=home_team_win"


def _integer(v):
    """An int, and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _real(v):
    """A finite int or float, and not a bool."""
    return _integer(v) or (isinstance(v, float) and math.isfinite(v))


# (default, validator) per hyperparameter
_POSITIVE = lambda v: _real(v) and v > 0  # noqa: E731
_NONNEG = lambda v: _real(v) and v >= 0  # noqa: E731
_COUNT = lambda v: _integer(v) and v >= 1  # noqa: E731

DEFAULT_HYPERPARAMETERS = {
    "naive_bayes": {},
    "gradient_boosting": {
        "n_rounds": (100, _COUNT),
        "shrinkage": (0.1, _POSITIVE),
        "max_depth": (3, _COUNT),
    },
    "linear_svm": {
        "l2": (1e-4, _POSITIVE),
    },
    "logistic_regression": {
        "l2": (1e-4, _NONNEG),
    },
    "random_forest": {
        "n_trees": (100, _COUNT),
        "min_leaf": (1, _COUNT),
        "max_depth": (None, lambda v: v is None or (_integer(v) and v >= 0)),
        "bootstrap": (True, lambda v: isinstance(v, bool)),
    },
    "mlp": {
        "l2": (1e-4, _NONNEG),
        "learning_rate": (0.001, _POSITIVE),
        "epochs": (300, _COUNT),
        "batch_size": (32, _COUNT),
        "patience": (20, _COUNT),
    },
}


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def resolved_hyperparameters(self):
        table = DEFAULT_HYPERPARAMETERS[self.kind]
        unknown = set(self.hyperparameters) - set(table)
        if unknown:
            raise InvalidHyperparameter(
                f"unknown hyperparameter(s) for {self.kind}: {sorted(unknown)}")
        resolved = {}
        for name, (default, check) in table.items():
            value = self.hyperparameters.get(name, default)
            if not check(value):
                raise InvalidHyperparameter(
                    f"{self.kind}.{name}={value!r} out of range")
            resolved[name] = value
        return resolved

    def to_dict(self):
        return {"kind": self.kind,
                "hyperparameters": dict(self.hyperparameters),
                "seed": self.seed}

    @classmethod
    def from_dict(cls, doc):
        """Raises ValueError unless the seed is a non-negative integer."""
        seed = doc["seed"]
        if not (_integer(seed) and seed >= 0):
            raise ValueError(f"seed {seed!r} is not a non-negative integer")
        return cls(kind=doc["kind"], hyperparameters=dict(doc["hyperparameters"]),
                   seed=seed)


def make_spec(kind: str, seed: int = 0, **hyperparameters) -> ClassifierSpec:
    if kind not in KINDS:
        raise InvalidHyperparameter(
            f"unknown classifier kind {kind!r}; choose from {KINDS}")
    spec = ClassifierSpec(kind=kind, hyperparameters=hyperparameters, seed=seed)
    spec.resolved_hyperparameters()  # validate eagerly
    return spec


class Classifier(NamedTuple):
    train: Callable      # (X, y, hyperparameters, seed, schema) -> parameters
    predict: Callable    # (parameters, X) -> P(class 1) per row
    parameter_keys: tuple  # the keys of ``parameters`` that ``predict`` reads
    # (document parameters, schema) -> parameters ``predict`` can read;
    # raises ValueError on a malformed document
    load: Callable


def _without_schema(trainer):
    return lambda X, y, hp, seed, schema: trainer(X, y, hp, seed)


def _train_naive_bayes(X, y, hp, seed, schema):
    return naive_bayes.train_naive_bayes(X, y, hp, seed, schema.binary_mask())


def _numbers(value, name, shape=(), dtype=np.float64):
    """``value`` as an array of ``dtype`` and ``shape``, a float for ``()``.
    Raises ValueError unless it is nested lists of exactly that shape
    holding finite JSON numbers (not strings, booleans, nulls, NaN or
    infinities), and only integers for an integer ``dtype``."""
    flat = [value]
    for size in shape:
        if any(type(v) is not list or len(v) != size for v in flat):
            raise ValueError(f"{name} is not a list of shape {shape}")
        flat = flat[0] if len(flat) == 1 else list(itertools.chain.from_iterable(flat))
    allowed = {int} if dtype == np.int64 else {int, float}
    wrong = set(map(type, flat)) - allowed
    if wrong:
        raise ValueError(f"{name} holds {', '.join(sorted(t.__name__ for t in wrong))}, "
                         f"not {'integers' if dtype == np.int64 else 'numbers'}")
    array = np.fromiter(flat, dtype, count=len(flat)).reshape(shape)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} holds a NaN or an infinity")
    return float(array) if shape == () else array


def _load_naive_bayes(parameters, schema):
    mask = schema.binary_mask()
    if not np.array_equal(_numbers(parameters["binary_mask"], "binary_mask",
                                   mask.shape), mask):
        raise ValueError("binary_mask differs from the schema's dummy columns")
    widths = {"bernoulli_p": int(mask.sum()), "gauss_mean": int((~mask).sum()),
              "gauss_var": int((~mask).sum())}
    loaded = {"binary_mask": parameters["binary_mask"]}
    for cls in ("class_0", "class_1"):
        p = parameters[cls]
        loaded[cls] = {"prior": _numbers(p["prior"], f"{cls}.prior")}
        for key, width in widths.items():
            loaded[cls][key] = _numbers(p[key], f"{cls}.{key}", (width,))
        c = loaded[cls]
        if not (0 < c["prior"] < 1 and (c["gauss_var"] > 0).all()
                and ((0 < c["bernoulli_p"]) & (c["bernoulli_p"] < 1)).all()):
            raise ValueError(f"{cls} needs 0 < prior < 1, 0 < bernoulli_p < 1 "
                             "and gauss_var > 0")
    return loaded


def _load_linear(parameters, schema):
    shapes = {"weights": (schema.total_columns,), "bias": (),
              "platt_a": (), "platt_b": ()}  # the last two for the SVM
    return {key: _numbers(parameters[key], key, shape)
            for key, shape in shapes.items() if key in parameters}


def _load_mlp(parameters, schema):
    sizes = (schema.total_columns, *mlp.HIDDEN_UNITS, 1)
    layers = parameters["layers"]
    if len(layers) != len(sizes) - 1:
        raise ValueError(f"mlp has {len(layers)} layers, not {len(sizes) - 1}")
    return {"layers": [
        [_numbers(W, f"layer {i} W", (fan_in, fan_out)),
         _numbers(b, f"layer {i} b", (fan_out,))]
        for i, ((W, b), fan_in, fan_out) in enumerate(zip(layers, sizes, sizes[1:]))]}


def _load_table(parameters, schema):
    table = {key: _numbers(parameters[key], key, (len(parameters[key]),),
                           tree.TABLE_DTYPES[key]) for key in tree.TABLE_KEYS}
    tree.check_table(table, schema.total_columns)
    return table


def _load_random_forest(parameters, schema):
    table = _load_table(parameters, schema)
    outside = (table["value"] < 0.0) | (table["value"] > 1.0)
    if outside.any():
        i = int(outside.argmax())
        raise ValueError(f"node {i} holds value {table['value'][i]}; a forest's "
                         "values are class-1 proportions, from 0 to 1")
    return table


def _load_gradient_boosting(parameters, schema):
    return {"base_score": _numbers(parameters["base_score"], "base_score"),
            "shrinkage": _numbers(parameters["shrinkage"], "shrinkage"),
            **_load_table(parameters, schema)}


# In the order ``--kind all`` trains them.
CLASSIFIERS = {
    "naive_bayes": Classifier(
        _train_naive_bayes, naive_bayes.predict_naive_bayes,
        ("binary_mask", "class_0", "class_1"), _load_naive_bayes),
    "gradient_boosting": Classifier(
        _without_schema(ensemble.train_gradient_boosting),
        ensemble.predict_gradient_boosting,
        ("base_score", "shrinkage", *tree.TABLE_KEYS), _load_gradient_boosting),
    "linear_svm": Classifier(
        _without_schema(linear.train_linear_svm), linear.predict_linear_svm,
        ("weights", "bias", "platt_a", "platt_b"), _load_linear),
    "logistic_regression": Classifier(
        _without_schema(linear.train_logistic), linear.predict_logistic,
        ("weights", "bias"), _load_linear),
    "random_forest": Classifier(
        _without_schema(ensemble.train_random_forest),
        ensemble.predict_random_forest, tree.TABLE_KEYS, _load_random_forest),
    "mlp": Classifier(
        _without_schema(mlp.train_mlp), mlp.predict_mlp, ("layers",), _load_mlp),
}
KINDS = list(CLASSIFIERS)


@dataclass(frozen=True)
class TrainedClassifier:
    spec: ClassifierSpec
    parameters: dict
    schema: FeatureSchema
    training_rows: int

    @property
    def schema_fingerprint(self):
        return self.schema.fingerprint()

    def predict_proba_matrix(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.schema.total_columns:
            raise SchemaMismatch(
                f"row has {X.shape[1]} columns, model expects "
                f"{self.schema.total_columns}")
        return CLASSIFIERS[self.spec.kind].predict(self.parameters, X)

    def predict_proba(self, row) -> float:
        return float(self.predict_proba_matrix(np.atleast_2d(row))[0])

    def predict(self, row) -> int:
        # exact 0.5 resolves to class 1
        return 1 if self.predict_proba(row) >= 0.5 else 0


def train(spec: ClassifierSpec, data) -> TrainedClassifier:
    """Train one classifier; deterministic given (spec, data)."""
    if spec.kind not in KINDS:
        raise InvalidHyperparameter(f"unknown classifier kind {spec.kind!r}")
    hp = spec.resolved_hyperparameters()
    y = np.asarray(data.y, dtype=np.float64)
    if y.size == 0 or len(np.unique(y)) < 2:
        raise SingleClassData("training data must contain both classes")
    X = np.asarray(data.X, dtype=np.float64)
    params = CLASSIFIERS[spec.kind].train(X, y, hp, spec.seed, data.schema)
    return TrainedClassifier(spec=spec, parameters=params,
                             schema=data.schema, training_rows=int(y.size))


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


@dataclass(frozen=True)
class ModelDocument:
    model: TrainedClassifier
    points_model: PointsModel | None = None
    ledger: TeamWeightLedger | None = None


def serialize(model: TrainedClassifier, points_model: PointsModel | None = None,
              ledger: TeamWeightLedger | None = None) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "label_convention": LABEL_CONVENTION,
        "spec": model.spec.to_dict(),
        "schema": model.schema.to_dict(),
        "schema_fingerprint": model.schema_fingerprint,
        "training_rows": model.training_rows,
        "points_model": points_model.to_dict() if points_model else None,
        "team_weights": ledger.to_dict() if ledger else None,
        "parameters": _plain(model.parameters),
    }


def deserialize(doc: dict) -> ModelDocument:
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise CorruptDocument("model document lacks a format_version")
    if doc["format_version"] != FORMAT_VERSION:
        raise VersionMismatch(
            f"unsupported format_version {doc['format_version']!r}, "
            f"expected {FORMAT_VERSION}")
    from ..features import FeatureSchema

    try:
        spec = ClassifierSpec.from_dict(doc["spec"])
        schema = FeatureSchema.from_dict(doc["schema"])
        classifier = CLASSIFIERS[spec.kind]
        spec.resolved_hyperparameters()  # raises InvalidHyperparameter
        training_rows = doc["training_rows"]
        if not _COUNT(training_rows):
            raise ValueError(f"training_rows {training_rows!r} is not a positive integer")
        parameters = doc["parameters"]
        missing = [key for key in classifier.parameter_keys
                   if key not in parameters]
        if missing:
            raise CorruptDocument(
                f"{spec.kind} model document parameters lack {', '.join(missing)}")
        parameters = classifier.load(parameters, schema)
        model = TrainedClassifier(
            spec=spec, parameters=parameters, schema=schema,
            training_rows=training_rows)
        points = (PointsModel(**{k: _numbers(doc["points_model"][k],
                                             f"points_model.{k}")
                                 for k in COEFFICIENT_KEYS})
                  if doc.get("points_model") else None)
        ledger = (TeamWeightLedger.from_dict(doc["team_weights"])
                  if doc.get("team_weights") else None)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptDocument(f"malformed model document: {exc}") from None
    return ModelDocument(model=model, points_model=points, ledger=ledger)


def save_document(doc: dict, path):
    """Atomic UTF-8 JSON write."""
    payload = json.dumps(doc, indent=2, sort_keys=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(payload)
        fh.write("\n")
    os.replace(tmp, path)


def load_document(path) -> ModelDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise CorruptDocument(f"{path}: not valid JSON ({exc})") from None
    return deserialize(doc)
