import numpy as np
import pytest

from cricpred.dataset import PlayerPerformance
from cricpred.errors import InsufficientData, RankDeficient
from cricpred.scoring import (
    REFERENCE_POINTS_MODEL,
    PointsModel,
    fit_points_model,
    score_player,
)


def synthetic_players(n, seed=0, noise=0.0, model=REFERENCE_POINTS_MODEL):
    """Players whose official points come exactly from the scoring model
    (plus optional Gaussian noise) -- the generator is the oracle."""
    rng = np.random.default_rng(seed)
    players = []
    for i in range(n):
        perf = PlayerPerformance(
            season=2018, team="CSK", player=f"P{i}",
            appearances=int(rng.integers(1, 15)),
            wickets=int(rng.integers(0, 15)),
            dot_balls=int(rng.integers(0, 100)),
            fours=int(rng.integers(0, 40)),
            sixes=int(rng.integers(0, 20)),
            catches=int(rng.integers(0, 10)),
            stumpings=int(rng.integers(0, 4)))
        pts = score_player(model, perf) + (rng.normal(0, noise) if noise else 0.0)
        players.append(PlayerPerformance(
            **{**perf.__dict__, "official_points": pts}))
    return players


class TestFit:
    def test_noisy_recovery(self):
        fitted = fit_points_model(synthetic_players(10000, seed=1, noise=0.5))
        expected = REFERENCE_POINTS_MODEL.coefficients()
        assert np.all(np.abs(fitted.coefficients() - expected) < 0.05)

    def test_identical_players_rank_deficient(self):
        one = synthetic_players(1)[0]
        clones = [PlayerPerformance(**{**one.__dict__, "player": f"C{i}"})
                  for i in range(20)]
        with pytest.raises(RankDeficient, match="wickets"):
            fit_points_model(clones)

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientData):
            fit_points_model(synthetic_players(6))

    def test_rows_without_points_ignored(self):
        players = synthetic_players(50)
        players += [PlayerPerformance(season=2018, team="RR", player="NP",
                                      appearances=1, wickets=1, dot_balls=1,
                                      fours=1, sixes=1, catches=1, stumpings=0)]
        fitted = fit_points_model(players)
        assert np.allclose(fitted.coefficients(),
                           REFERENCE_POINTS_MODEL.coefficients(), atol=1e-6)

    def test_deterministic(self):
        players = synthetic_players(100, seed=3, noise=1.0)
        a = fit_points_model(players)
        b = fit_points_model(players)
        assert a == b

    def test_ill_conditioned_full_rank_recovery(self):
        """Dot balls scaled by 10,000: the design matrix keeps full rank,
        but cond(X^T X) is about 5.5e12, the square of cond(X)."""
        players = []
        for p in synthetic_players(200, seed=5):
            scaled = PlayerPerformance(**{**p.__dict__, "dot_balls": p.dot_balls * 10_000})
            players.append(PlayerPerformance(**{
                **scaled.__dict__,
                "official_points": score_player(REFERENCE_POINTS_MODEL, scaled)}))
        fitted = fit_points_model(players)
        assert np.allclose(fitted.coefficients(),
                           REFERENCE_POINTS_MODEL.coefficients(), rtol=0, atol=1e-8)


class TestScore:
    def perf(self, **stats):
        base = dict(wickets=0, dot_balls=0, fours=0, sixes=0, catches=0,
                    stumpings=0)
        base.update(stats)
        return PlayerPerformance(season=2018, team="CSK", player="P",
                                 appearances=max(1, sum(base.values())), **base)

    def test_all_zero(self):
        assert score_player(REFERENCE_POINTS_MODEL, self.perf()) == 0.0

    def test_single_wicket(self):
        assert score_player(REFERENCE_POINTS_MODEL, self.perf(wickets=1)) == 3.5

    def test_hand_evaluated_combination(self):
        perf = self.perf(wickets=2, dot_balls=10, fours=3, sixes=1, catches=1)
        assert score_player(REFERENCE_POINTS_MODEL, perf) == 30.5

    def test_linearity(self):
        model = PointsModel(1.0, 3.5, 1.0, 2.5, 3.5, 2.5, 2.5)
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = {k: int(v) for k, v in zip(
                ["wickets", "dot_balls", "fours", "sixes", "catches", "stumpings"],
                rng.integers(0, 20, 6))}
            b = {k: int(v) for k, v in zip(a, rng.integers(0, 20, 6))}
            combined = {k: a[k] + b[k] for k in a}
            total = score_player(model, self.perf(**combined))
            parts = (score_player(model, self.perf(**a))
                     + score_player(model, self.perf(**b)) - model.intercept)
            assert total == pytest.approx(parts, rel=1e-12)


class TestOlsProperties:
    def test_normal_equations(self):
        players = synthetic_players(300, seed=4, noise=2.0)
        fitted = fit_points_model(players)
        X = np.array([[1.0, *p.stats()] for p in players])
        y = np.array([p.official_points for p in players])
        residual = X.T @ (y - X @ fitted.coefficients())
        scale = np.linalg.norm(X.T @ y)
        assert np.linalg.norm(residual) / scale < 1e-6

    def test_refit_on_own_predictions(self):
        players = synthetic_players(100, seed=6, noise=3.0)
        first = fit_points_model(players)
        repredicted = [PlayerPerformance(**{
            **p.__dict__, "official_points": score_player(first, p)})
            for p in players]
        second = fit_points_model(repredicted)
        assert np.allclose(first.coefficients(), second.coefficients(),
                           atol=1e-8)
