"""Exception hierarchy shared across the package.

Every error carries ``exit_code``, the status the command line exits with
when the error reaches it: 2 for malformed inputs and data the pipeline
cannot use (the default), 3 for the ``ModelError`` family (training and
model documents), 4 for the ``PredictionInputError`` family.
``UnseenCategory`` is the package's one warning.
"""


class CricpredError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ModelError(CricpredError):
    """Training failed, or a model document cannot be used."""

    exit_code = 3


class PredictionInputError(CricpredError):
    """The teams, toss or model of one prediction do not fit together."""

    exit_code = 4


# --- ingestion -------------------------------------------------------------

class IngestionError(CricpredError):
    """Raised for malformed or inconsistent input files."""


class MissingColumn(IngestionError):
    pass


class UnknownTeam(IngestionError):
    pass


class InvalidRow(IngestionError):
    pass


class NegativeStat(IngestionError):
    pass


class DuplicatePlayer(IngestionError):
    pass


class NoResult(CricpredError):
    """The match has no decisive winner."""


# --- player scoring --------------------------------------------------------

class InsufficientData(CricpredError):
    pass


class RankDeficient(CricpredError):
    pass


# --- team strength ---------------------------------------------------------

class EmptyRoster(CricpredError):
    pass


class ZeroAppearances(CricpredError):
    pass


class MissingRoster(CricpredError):
    pass


class LedgerMiss(CricpredError):
    pass


# --- feature pipeline ------------------------------------------------------

class EmptyDataset(CricpredError):
    pass


class TooFewRows(CricpredError):
    pass


class TargetTooLarge(CricpredError):
    pass


class UnseenCategory(UserWarning):
    """A categorical value the schema has not seen; it encodes as the
    dropped category."""


# --- classifiers -----------------------------------------------------------

class SingleClassData(ModelError):
    pass


class InvalidHyperparameter(ModelError):
    pass


class NonConvergence(ModelError):
    pass


class SchemaMismatch(ModelError):
    pass


class VersionMismatch(ModelError):
    pass


class CorruptDocument(ModelError):
    pass


# --- evaluation ------------------------------------------------------------

class TooFewPerClass(ModelError):
    pass


class BadK(ModelError):
    pass
