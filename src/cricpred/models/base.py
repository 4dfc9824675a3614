"""Uniform train / predict-probability interface over the six classifiers,
plus the JSON model-document format."""

from __future__ import annotations

import base64
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from ..errors import (
    CorruptDocument,
    InvalidHyperparameter,
    ModelError,
    SchemaMismatch,
    SingleClassData,
    VersionMismatch,
)
from ..scoring import COEFFICIENT_KEYS, PointsModel
from ..strength import TeamWeightLedger
from . import ensemble, linear, mlp, naive_bayes, tree

FORMAT_VERSION = 4
LABEL_CONVENTION = "1=home_team_win"


def _integer(v):
    """An int, and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _real(v):
    """A finite int or float, and not a bool."""
    return _integer(v) or (isinstance(v, float) and math.isfinite(v))


_COUNT = lambda v: _integer(v) and v >= 1  # noqa: E731


@dataclass(frozen=True)
class ClassifierSpec:
    """A classifier kind, the hyperparameters set away from their defaults,
    and the seed. Raises InvalidHyperparameter when made unless the kind is
    one of ``KINDS``, the seed a non-negative integer and each
    hyperparameter one of the kind's, in range. Holds a read-only copy of
    the hyperparameters, so the spec that was checked is the one trained."""

    kind: str
    hyperparameters: Mapping = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hyperparameters",
                           MappingProxyType(dict(self.hyperparameters)))
        if self.kind not in CLASSIFIERS:
            raise InvalidHyperparameter(
                f"unknown classifier kind {self.kind!r}; choose from {KINDS}")
        if not (_integer(self.seed) and self.seed >= 0):
            raise InvalidHyperparameter(
                f"seed {self.seed!r} is not a non-negative integer")
        table = CLASSIFIERS[self.kind].hyperparameters
        unknown = set(self.hyperparameters) - set(table)
        if unknown:
            raise InvalidHyperparameter(
                f"unknown hyperparameter(s) for {self.kind}: {sorted(unknown)}")
        for name, value in self.hyperparameters.items():
            if not table[name][1](value):
                raise InvalidHyperparameter(
                    f"{self.kind}.{name}={value!r} out of range")

    def resolved_hyperparameters(self):
        return {name: self.hyperparameters.get(name, default)
                for name, (default, _) in CLASSIFIERS[self.kind].hyperparameters.items()}

    def to_dict(self):
        return {"kind": self.kind,
                "hyperparameters": dict(self.hyperparameters),
                "seed": self.seed}

    @classmethod
    def from_dict(cls, doc):
        return cls(kind=doc["kind"], hyperparameters=dict(doc["hyperparameters"]),
                   seed=doc["seed"])


def make_spec(kind: str, seed: int = 0, **hyperparameters) -> ClassifierSpec:
    return ClassifierSpec(kind=kind, hyperparameters=hyperparameters, seed=seed)


class Classifier(NamedTuple):
    train: Callable      # (X, y, hyperparameters, seed, schema) -> parameters
    predict: Callable    # (parameters, X) -> P(class 1) per row
    # (document parameters, schema) -> the parameters ``predict`` reads;
    # raises KeyError on a missing key and ValueError on a malformed one
    load: Callable
    # name -> (default, validator) per settable hyperparameter. The
    # learner's other settings are constants in its own module.
    hyperparameters: dict


def _without_schema(trainer):
    return lambda X, y, hp, seed, schema: trainer(X, y, hp, seed)


def _train_naive_bayes(X, y, hp, seed, schema):
    return naive_bayes.train_naive_bayes(X, y, hp, seed, schema.binary_mask())


def _numbers(value, name, shape=()):
    """``value`` as a float64 array of ``shape``, a float for ``()``.
    Raises ValueError unless it is nested lists of exactly that shape
    holding finite JSON numbers (not strings, booleans, nulls, NaN or
    infinities)."""
    flat = [value]
    for size in shape:
        if any(type(v) is not list or len(v) != size for v in flat):
            raise ValueError(f"{name} is not a list of shape {shape}")
        flat = flat[0] if len(flat) == 1 else list(itertools.chain.from_iterable(flat))
    wrong = set(map(type, flat)) - {int, float}
    if wrong:
        raise ValueError(f"{name} holds {', '.join(sorted(t.__name__ for t in wrong))}, "
                         "not numbers")
    array = np.fromiter(flat, np.float64, count=len(flat)).reshape(shape)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} holds a NaN or an infinity")
    return float(array) if shape == () else array


# How a document stores the node table an ensemble keeps
# (``tree.stored_table``): its four arrays, each the base64 of its
# little-endian bytes in this dtype.
WIRE_DTYPES = {"roots": "<i4", "feature": "<i2", "threshold": "<f8", "right": "<i4"}


def _encode_array(array, key):
    """The node-table array ``key`` as base64 of its ``WIRE_DTYPES`` bytes.
    Raises ModelError if a value does not survive the cast."""
    wire = array.astype(WIRE_DTYPES[key])
    if not np.array_equal(wire, array, equal_nan=True):
        raise ModelError(f"{key} holds a value that {WIRE_DTYPES[key]} cannot hold")
    return base64.b64encode(wire.tobytes()).decode("ascii")


def _decode_array(text, key):
    """The node-table array ``key`` that ``_encode_array`` stored as
    ``text``, in ``tree.TABLE_DTYPES``. Raises ValueError unless ``text``
    is a base64 string of whole items holding only finite values."""
    if not isinstance(text, str):
        raise ValueError(f"{key} is not a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character beyond ASCII
        raise ValueError(f"{key} is not base64: {exc}") from None
    item = np.dtype(WIRE_DTYPES[key])
    if len(raw) % item.itemsize:
        raise ValueError(f"{key} holds {len(raw)} bytes, not whole "
                         f"{item.itemsize}-byte items")
    array = np.frombuffer(raw, item).astype(tree.TABLE_DTYPES[key])
    if not np.isfinite(array).all():
        raise ValueError(f"{key} holds a NaN or an infinity")
    return array


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


def _load_logistic(parameters, schema):
    return {"weights": _numbers(parameters["weights"], "weights",
                                (schema.total_columns,)),
            "bias": _numbers(parameters["bias"], "bias")}


def _load_linear_svm(parameters, schema):
    return {**_load_logistic(parameters, schema),
            "platt_a": _numbers(parameters["platt_a"], "platt_a"),
            "platt_b": _numbers(parameters["platt_b"], "platt_b")}


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
    """The node table stored in ``parameters``, its four arrays decoded and
    checked by ``tree.check_table``."""
    table = {key: _decode_array(parameters[key], key) for key in WIRE_DTYPES}
    tree.check_table(table, schema.total_columns)
    return table


def _load_random_forest(parameters, schema):
    table = _load_table(parameters, schema)
    threshold = table["threshold"]
    leaf = table["right"] == np.arange(threshold.size)
    outside = leaf & ((threshold < 0.0) | (threshold > 1.0))
    if outside.any():
        i = int(outside.argmax())
        raise ValueError(f"leaf {i} holds value {threshold[i]}; a forest's "
                         "values are class-1 proportions, from 0 to 1")
    return table


def _load_gradient_boosting(parameters, schema):
    return {"base_score": _numbers(parameters["base_score"], "base_score"),
            "shrinkage": _numbers(parameters["shrinkage"], "shrinkage"),
            **_load_table(parameters, schema)}


# In the order ``--kind all`` trains them.
CLASSIFIERS = {
    "naive_bayes": Classifier(
        _train_naive_bayes, naive_bayes.predict_naive_bayes, _load_naive_bayes, {}),
    "gradient_boosting": Classifier(
        _without_schema(ensemble.train_gradient_boosting),
        ensemble.predict_gradient_boosting, _load_gradient_boosting,
        {"n_rounds": (100, _COUNT)}),
    "linear_svm": Classifier(
        _without_schema(linear.train_linear_svm), linear.predict_linear_svm,
        _load_linear_svm, {}),
    "logistic_regression": Classifier(
        _without_schema(linear.train_logistic), linear.predict_logistic,
        _load_logistic, {"l2": (1e-4, lambda v: _real(v) and v >= 0)}),
    "random_forest": Classifier(
        _without_schema(ensemble.train_random_forest),
        ensemble.predict_random_forest, _load_random_forest, {
            "n_trees": (100, _COUNT),
            "min_leaf": (1, _COUNT),
            "max_depth": (None, lambda v: v is None or (_integer(v) and v >= 0)),
            "bootstrap": (True, lambda v: isinstance(v, bool)),
        }),
    "mlp": Classifier(
        _without_schema(mlp.train_mlp), mlp.predict_mlp, _load_mlp,
        {"epochs": (300, _COUNT)}),
}
KINDS = list(CLASSIFIERS)


@dataclass(frozen=True)
class TrainedClassifier:
    spec: ClassifierSpec
    parameters: dict
    schema: FeatureSchema
    training_rows: int

    def predict_proba_matrix(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.schema.total_columns:
            raise SchemaMismatch(
                f"row has {X.shape[1]} columns, model expects "
                f"{self.schema.total_columns}")
        return CLASSIFIERS[self.spec.kind].predict(self.parameters, X)


def train(spec: ClassifierSpec, data) -> TrainedClassifier:
    """Train one classifier; deterministic given (spec, data)."""
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


def _document_parameters(parameters):
    """``parameters`` as JSON values, a node table's arrays as base64
    strings."""
    return {k: _encode_array(v, k) if k in WIRE_DTYPES else _plain(v)
            for k, v in parameters.items()}


def serialize(model: TrainedClassifier, points_model: PointsModel | None = None,
              ledger: TeamWeightLedger | None = None) -> dict:
    """The JSON document of ``model``. Of ``ledger`` it keeps only the row
    each team serves predictions with (``ledger.latest()``)."""
    return {
        "format_version": FORMAT_VERSION,
        "label_convention": LABEL_CONVENTION,
        "spec": model.spec.to_dict(),
        "schema": model.schema.to_dict(),
        "schema_fingerprint": model.schema.fingerprint(),
        "training_rows": model.training_rows,
        "points_model": points_model.to_dict() if points_model else None,
        "team_weights": ledger.latest().to_dict() if ledger else None,
        "parameters": _document_parameters(model.parameters),
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
        if doc["label_convention"] != LABEL_CONVENTION:
            raise ValueError(f"label_convention {doc['label_convention']!r} is not "
                             f"{LABEL_CONVENTION!r}")
        spec = ClassifierSpec.from_dict(doc["spec"])  # InvalidHyperparameter
        schema = FeatureSchema.from_dict(doc["schema"])
        if doc["schema_fingerprint"] != schema.fingerprint():
            raise ValueError("schema_fingerprint does not match the schema")
        training_rows = doc["training_rows"]
        if not _COUNT(training_rows):
            raise ValueError(f"training_rows {training_rows!r} is not a positive integer")
        parameters = CLASSIFIERS[spec.kind].load(doc["parameters"], schema)
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
        # one decode of the whole file: a text-mode read decodes it in chunks
        with open(path, "rb") as fh:
            doc = json.loads(fh.read().decode("utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise CorruptDocument(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise CorruptDocument(f"{path}: JSON nested too deeply to parse") from None
    return deserialize(doc)
