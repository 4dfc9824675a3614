"""Match-outcome prediction for auction-based Twenty20 leagues.

Pipeline: player-points regression -> team-strength weights -> dummy
encoding with grouped recursive feature elimination -> six classifiers ->
stratified cross-validation, all behind a CSV ingestion layer and a CLI.
"""

from .dataset import (  # noqa: F401
    TEAMS,
    MatchDataset,
    MatchRecord,
    PlayerPerformance,
    label_of,
    load_matches,
    load_player_performances,
)
from .features import (  # noqa: F401
    EncodedDataset,
    FeatureSchema,
    RfeResult,
    build_schema,
    encode,
    rfe_select,
)
from .scoring import (  # noqa: F401
    REFERENCE_POINTS_MODEL,
    PointsModel,
    fit_points_model,
    score_player,
)
from .strength import (  # noqa: F401
    PER_MATCH,
    PER_SEASON,
    TeamWeightLedger,
    build_ledger,
    team_weight,
)

__version__ = "0.1.0"
