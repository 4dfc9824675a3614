"""Command-line entry point: ingest, fit-points, team-weights,
select-features, train, cv, predict, report.

Exit codes: 0 success; 2 argparse usage errors, files that cannot be read
or written (``OSError``) and the ingestion and validation errors; 3
``errors.ModelError`` (training and model documents); 4
``errors.PredictionInputError``. Each error family carries its code, and
``main`` is the only place that maps it: one ``error: ...`` line on stderr
(argparse prints its usage line first), never a traceback. A package
warning (an unseen category, the MLP reaching its epoch cap) is one
``warning: ...`` line per distinct message, never an error.

``--config FILE`` holds ``key = value`` lines with keys from
``CONFIG_KEYS``. They become ``--key=value`` flags placed before the
command line's own, so flags win and file values are validated like flags;
a key the subcommand does not take is an argparse usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import warnings
from pathlib import Path

from . import errors
from .dataset import load_matches, load_player_performances
from .evaluation import cross_validate, evaluate_holdout
from .features import encode, encode_values, rank_features, rfe_select, training_matrix
from .models import base as model_base
from .scoring import fit_points_model, points_model_for
from .strength import PER_MATCH, PER_SEASON, build_ledger

# The keys a config file may set; the inputs of one prediction are flags only.
CONFIG_KEYS = {"matches", "players", "model", "out_dir", "mode", "kind", "k",
               "seed", "holdout_season", "target_count", "resamples"}


@functools.cache
def _config_parser():
    pre = argparse.ArgumentParser(prog="cricpred", add_help=False,
                                  allow_abbrev=False)
    pre.add_argument("--config")
    return pre


def _with_config(argv):
    """``argv`` with the ``--config`` file's lines inserted after the
    subcommand as ``--key=value`` flags."""
    path = _config_parser().parse_known_args(argv)[0].config
    if path is None:
        return argv
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise errors.IngestionError(f"{path}: not UTF-8 text ({exc})") from None
    flags = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise errors.IngestionError(
                f"{path} line {lineno}: expected key = value")
        if key not in CONFIG_KEYS:
            raise errors.IngestionError(
                f"{path} line {lineno}: unknown config key {key!r}")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return argv[:1] + flags + argv[1:]


def _load_inputs(args):
    return load_matches(args.matches), load_player_performances(args.players)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# --- subcommands -----------------------------------------------------------

def cmd_ingest(args):
    dataset, players = _load_inputs(args)
    excluded = sum(1 for m in dataset.matches if not m.has_result)
    print(f"{len(dataset.matches)} matches loaded, {excluded} excluded (no result)")
    print(f"{len(players)} player-season rows loaded")
    print(f"{len({m.venue for m in dataset.matches})} venues, seasons {dataset.seasons()}")
    if not players:
        raise errors.InsufficientData(
            "players file has no rows; downstream fitting and team weights "
            "will fail")
    return 0


def cmd_fit_points(args):
    _, players = _load_inputs(args)
    model = fit_points_model(players)
    for key, value in model.to_dict().items():
        print(f"{key} = {value:.10g}")
    out = Path(args.out_dir) / "points_model.json"
    model_base.save_document(
        {"format_version": model_base.FORMAT_VERSION, "points_model": model.to_dict()},
        out)
    print(f"wrote {out}")
    return 0


def cmd_team_weights(args):
    dataset, players = _load_inputs(args)
    points, origin = points_model_for(players)
    ledger = build_ledger(points, players, dataset, mode=args.mode)
    rows = [(t, s, a, repr(w)) for t, s, a, w in ledger.rows()]
    out = Path(args.out_dir) / "team_weights.csv"
    _write_csv(out, ["team", "season", "as_of", "weight"], rows)
    for row in rows:
        print(",".join(str(v) for v in row))
    print(f"points model: {origin}; wrote {out}", file=sys.stderr)
    return 0


def cmd_select_features(args):
    encoded = training_matrix(*_load_inputs(args), args.mode)[0]
    target = args.target_count
    if target is None:
        target = len(encoded.schema.feature_names())
    result = rfe_select(encoded, target, resamples=args.resamples, seed=args.seed)
    scores = dict((size, acc) for size, acc in result.per_subset_scores)
    print(f"{'rank':>4}  {'feature':<18}  {'cv_acc_at_subset':>16}")
    rows = []
    for rank, name in enumerate(result.ranking, start=1):
        subset_size = len(result.ranking) - rank + 1
        acc = scores[subset_size]
        marker = "*" if name in result.selected else " "
        print(f"{rank:>4}{marker} {name:<18}  {acc:>16.4f}")
        rows.append((rank, name, int(name in result.selected), repr(acc)))
    print(f"selected: {', '.join(result.selected)}")
    print(f"stability: {result.stability_agreement:.0%} agreement over "
          f"{result.stability_runs} resamples")
    out = Path(args.out_dir) / "feature_ranking.csv"
    _write_csv(out, ["rank", "feature", "selected", "cv_accuracy"], rows)
    print(f"wrote {out}", file=sys.stderr)
    return 0


def cmd_train(args):
    encoded, points, ledger, origin = training_matrix(
        *_load_inputs(args), args.mode, args.holdout_season)
    if args.target_count is not None:
        # the ranking alone: select-features prints the subset scores
        selected = rank_features(encoded, args.target_count)[:args.target_count]
        encoded = encoded.subset(selected)
        print(f"RFE selected: {', '.join(selected)}")
    kinds = model_base.KINDS if args.kind == "all" else [args.kind]
    for kind in kinds:
        spec = model_base.make_spec(kind, seed=args.seed)
        model = model_base.train(spec, encoded)
        doc = model_base.serialize(model, points_model=points, ledger=ledger)
        path = Path(args.out_dir) / f"model_{kind}.json"
        model_base.save_document(doc, path)
        print(f"wrote {path} ({model.training_rows} training rows, "
              f"points model: {origin})")
    return 0


def cmd_cv(args):
    encoded = training_matrix(*_load_inputs(args), args.mode)[0]
    spec = model_base.make_spec(args.kind, seed=args.seed)
    report = cross_validate(spec, encoded, args.k, args.seed)
    _print_report(report, f"{args.k}-fold stratified CV, {args.kind}")
    out = Path(args.out_dir) / f"cv_report_{args.kind}.csv"
    _write_report_csv(report, out)
    print(f"wrote {out}", file=sys.stderr)
    return 0


def _served_weights(document, teams):
    """``{team: weight}``: the weight each team of the document serves
    predictions with, its last training-season row
    (``TeamWeightLedger.latest()``). Raises ``PredictionInputError`` when
    the document carries no team weights or one of ``teams`` has none."""
    if document.ledger is None:
        raise errors.PredictionInputError("model document carries no team weights")
    served = {t: w for t, _, _, w in document.ledger.latest().rows()}
    for team in teams:
        if team not in served:
            raise errors.PredictionInputError(
                f"team {team} is absent from the model's weight ledger and no "
                "cold-start data exists")
    return served


def cmd_predict(args):
    document = model_base.load_document(args.model)
    home, away, toss_winner = args.home, args.away, args.toss_winner
    if home == away:
        raise errors.PredictionInputError("home and away teams must differ")
    if toss_winner not in (home, away):
        raise errors.PredictionInputError(
            f"toss_winner {toss_winner} is not one of the two teams")
    served = _served_weights(document, (home, away))
    w1, w2 = served[home], served[away]
    row = encode_values(
        document.model.schema,
        {"home_team": home, "away_team": away, "toss_winner": toss_winner,
         "toss_decision": args.toss_decision, "venue": args.venue},
        {"home_team_weight": w1, "away_team_weight": w2})
    p_home = float(document.model.predict_proba_matrix(row)[0])
    winner = home if p_home >= 0.5 else away
    print(f"predicted winner: {winner}")
    print(f"home win probability: {p_home:.4f}")
    print(f"team weights: w1={w1!r} (home {home}), w2={w2!r} (away {away})")
    return 0


def cmd_report(args):
    document = model_base.load_document(args.model)
    if document.ledger is not None:
        trained_to = max(season for _, season, _, _ in document.ledger.rows())
        if args.holdout_season <= trained_to:
            raise errors.ModelError(
                f"holdout season {args.holdout_season} is not after the "
                f"model's last training season, {trained_to}")
    holdout = load_matches(args.matches).restrict({args.holdout_season})
    decisive = holdout.decisive()
    if not decisive:
        raise errors.EmptyDataset(
            f"no decisive matches in holdout season {args.holdout_season}")
    served = _served_weights(
        document, (team for m in decisive for team in (m.home_team, m.away_team)))
    encoded = encode(holdout, lambda team, _: served[team], document.model.schema)
    report, rows = evaluate_holdout(document.model, encoded)
    _print_report(report, f"holdout season {args.holdout_season}, "
                          f"{document.model.spec.kind}")
    print("team weights: each team's last training-season weight, "
          "as predict serves them")
    out_dir = Path(args.out_dir)
    _write_report_csv(report, out_dir / "holdout_report.csv")
    _write_csv(out_dir / "holdout_predictions.csv",
               ["match_id", "probability", "predicted", "actual"],
               [(mid, repr(p), pred, actual) for mid, p, pred, actual in rows])
    print(f"wrote {out_dir / 'holdout_report.csv'} and "
          f"{out_dir / 'holdout_predictions.csv'}", file=sys.stderr)
    return 0


def _print_report(report, title):
    print(title)
    print(f"evaluated: {report.n_evaluated}, correct: {report.correct}, "
          f"accuracy: {report.accuracy:.4f}")
    print(f"{'class':>12}  {'precision':>9}  {'recall':>9}  {'f1':>9}  {'support':>7}")
    for cls in (0, 1):
        m = report.per_class[cls]
        print(f"{cls:>12}  {m.precision:>9.4f}  {m.recall:>9.4f}  "
              f"{m.f1:>9.4f}  {m.support:>7}")
    w = report.weighted_avg
    print(f"{'weighted_avg':>12}  {w.precision:>9.4f}  {w.recall:>9.4f}  "
          f"{w.f1:>9.4f}  {w.support:>7}")
    print(f"confusion (rows=actual 0/1, cols=predicted 0/1): {report.confusion}")
    if report.per_fold:
        folds = ", ".join(f"{a:.4f}" for a in report.per_fold)
        print(f"per-fold accuracy: {folds}")
    for flag in report.zero_division_flags:
        print(f"note: {flag}")


def _write_report_csv(report, path):
    rows = [("accuracy", repr(report.accuracy)),
            ("n_evaluated", report.n_evaluated),
            ("correct", report.correct)]
    for cls in (0, 1):
        m = report.per_class[cls]
        rows += [(f"precision_{cls}", repr(m.precision)),
                 (f"recall_{cls}", repr(m.recall)),
                 (f"f1_{cls}", repr(m.f1)),
                 (f"support_{cls}", m.support)]
    w = report.weighted_avg
    rows += [("weighted_precision", repr(w.precision)),
             ("weighted_recall", repr(w.recall)),
             ("weighted_f1", repr(w.f1))]
    for i, acc in enumerate(report.per_fold):
        rows.append((f"fold_{i}_accuracy", repr(acc)))
    _write_csv(path, ["metric", "value"], rows)


def _at_least(minimum):
    """An argparse ``type``: an integer no smaller than ``minimum``."""
    def integer(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is below {minimum}")
        return value
    return integer


@functools.cache
def build_parser():
    """The command-line parser, built once per process: ``parse_args``
    keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="cricpred",
        description="Twenty20 league match-outcome prediction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, inputs=True, mode=False, rfe=False):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key = value file; flags override it")
        p.add_argument("--seed", type=_at_least(0), default=0)
        p.add_argument("--out-dir", default=".")
        if inputs:
            p.add_argument("--matches", required=True)
            p.add_argument("--players", required=True)
        if mode:
            p.add_argument("--mode", choices=[PER_SEASON, PER_MATCH],
                           default=PER_SEASON)
        if rfe:
            p.add_argument("--target-count", type=_at_least(1),
                           help="features to keep (default: rank them all; "
                                "train: run RFE first when given)")
        return p

    add("ingest", cmd_ingest, "validate the matches and players CSVs")
    add("fit-points", cmd_fit_points, "fit the player-points regression")
    add("team-weights", cmd_team_weights, "emit per-team strength weights as CSV",
        mode=True)
    p = add("select-features", cmd_select_features,
            "rank features by recursive elimination", mode=True, rfe=True)
    p.add_argument("--resamples", type=_at_least(0), default=5)

    p = add("train", cmd_train, "train classifier(s) and write model documents",
            mode=True, rfe=True)
    p.add_argument("--kind", choices=model_base.KINDS + ["all"], default="mlp")
    p.add_argument("--holdout-season", type=int)

    p = add("cv", cmd_cv, "stratified k-fold cross-validation", mode=True)
    p.add_argument("--kind", choices=model_base.KINDS, default="mlp")
    p.add_argument("--k", type=int, default=10)

    p = add("predict", cmd_predict, "predict one match from post-toss inputs",
            inputs=False)
    p.add_argument("--model", required=True)
    p.add_argument("--home", required=True)
    p.add_argument("--away", required=True)
    p.add_argument("--venue", required=True)
    p.add_argument("--toss-winner", required=True)
    p.add_argument("--toss-decision", required=True, choices=["bat", "field"])

    p = add("report", cmd_report, "evaluate a model on a holdout season",
            inputs=False)
    p.add_argument("--matches", required=True)
    p.add_argument("--players", help="ignored: report scores the team weights "
                                     "the model serves and reads no players file")
    p.add_argument("--model", required=True)
    p.add_argument("--holdout-season", type=int, required=True)

    return parser


def _one_line_warnings(show):
    """A ``warnings.showwarning`` that writes each distinct package warning
    (``errors.CricpredWarning``) once, as one ``warning: ...`` line, and
    hands every other warning to ``show``."""
    shown = set()

    def showwarning(message, category, *where):
        if not issubclass(category, errors.CricpredWarning):
            return show(message, category, *where)
        if str(message) not in shown:
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)
    return showwarning


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    with warnings.catch_warnings():
        # a package warning is never an error, whatever the -W filters say
        warnings.simplefilter("always", errors.CricpredWarning)
        warnings.showwarning = _one_line_warnings(warnings.showwarning)
        try:
            args = build_parser().parse_args(_with_config(argv))
            Path(args.out_dir).mkdir(parents=True, exist_ok=True)
            return args.func(args)
        except SystemExit as exc:  # argparse: 2 for a usage error, 0 for --help
            return exc.code
        except (errors.CricpredError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return getattr(exc, "exit_code", 2)  # OSError: 2


if __name__ == "__main__":
    sys.exit(main())
