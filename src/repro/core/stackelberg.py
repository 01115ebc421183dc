"""The provider's (leader's) problem (Eq. 12–15).

The server maximises the clients' committed work net of its own generation
and verification work, evaluated at the followers' equilibrium::

    I(p)  = (ℓ(p) − g(p) − d(p)) · x̄*(ℓ(p))
          = (k·2^(m-1) − 2 − k/2) · x̄*(k, m)       (Eq. 12 / Eq. 5)

Lemma 1 shows the relaxation Ĩ(p) = ℓ(p)·x̄ is within a constant of I, and —
because x̄* depends on ``p`` only through ``ℓ(p)`` — the relaxed problem
reduces to a scalar optimisation over ``ȳ`` (Eq. 14) with first-order
condition::

    w̄N/ȳ² − (µ + ȳ − N)/(µ + N − ȳ)³ = 0          (Eq. 15)

:class:`StackelbergGame` solves both the continuous relaxation (exact root
of Eq. 15) and the exact integer problem (grid search over ``(k, m)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.core.equilibrium import ClientGame, NashSolution
from repro.errors import GameError
from repro.puzzles.estimator import provider_net_work
from repro.puzzles.params import PuzzleParams


@dataclass(frozen=True)
class ProviderSolution:
    """Solution of the leader's problem.

    ``difficulty`` is the continuous optimum ``ℓ*`` (expected hashes);
    ``params`` is its integer rounding when a grid search produced one.
    """

    difficulty: float
    y_bar: float
    total_rate: float
    objective: float
    params: Optional[PuzzleParams] = None


class StackelbergGame:
    """Leader-follower game: server picks ``p``, clients respond with x̄*(p)."""

    def __init__(self, clients: ClientGame) -> None:
        self.clients = clients

    # ------------------------------------------------------------------
    # Objectives
    # ------------------------------------------------------------------
    def objective(self, params: PuzzleParams) -> float:
        """Exact provider payoff I(p) of Eq. (12) at integer ``(k, m)``."""
        solution = self.clients.solve(params.expected_hashes)
        return provider_net_work(params) * solution.total_rate

    def relaxed_objective(self, difficulty: float) -> float:
        """Ĩ(ℓ) = ℓ · x̄*(ℓ) of Eq. (13)."""
        return difficulty * self.clients.total_rate(difficulty)

    # ------------------------------------------------------------------
    # Continuous relaxation (Eq. 14–15)
    # ------------------------------------------------------------------
    def _g_prime(self, y: float) -> float:
        n = self.clients.n_users
        w_bar = self.clients.w_bar
        mu = self.clients.mu
        return (w_bar * n / y ** 2
                - (mu + y - n) / (mu + n - y) ** 3)

    def solve_relaxed(self) -> ProviderSolution:
        """Exact maximiser of Ĩ via the first-order condition (Eq. 15).

        Returns the optimal ``ȳ*`` mapped back to a difficulty through
        Eq. (9): ``ℓ* = w̄/ȳ* − 1/(µ+N−ȳ*)²``.
        """
        # Deferred for the same reason as in ClientGame._solve_y_bar.
        from scipy.optimize import brentq

        n = self.clients.n_users
        mu = self.clients.mu
        w_bar = self.clients.w_bar
        if self.clients.max_feasible_difficulty <= 0:
            raise GameError(
                "provider problem degenerate: r̂ <= 0, no difficulty "
                "sustains any client participation")
        lo = n * (1.0 + 1e-12)
        # G' → −∞ at the pole; back off until the sign flips.
        hi = n + mu
        for shrink in range(1, 60):
            candidate = n + mu * (1.0 - 2.0 ** -shrink)
            if self._g_prime(candidate) < 0:
                hi = candidate
                break
        else:  # pragma: no cover - numerically unreachable
            raise GameError("could not bracket the provider optimum")
        y_star = float(brentq(self._g_prime, lo, hi, xtol=1e-12, rtol=1e-14))
        difficulty = w_bar / y_star - 1.0 / (mu + n - y_star) ** 2
        total_rate = y_star - n
        return ProviderSolution(difficulty=difficulty, y_bar=y_star,
                                total_rate=total_rate,
                                objective=difficulty * total_rate)

    # ------------------------------------------------------------------
    # Exact integer problem
    # ------------------------------------------------------------------
    def solve_integer(self, k_values: Iterable[int] = (1, 2, 3, 4),
                      m_values: Optional[Iterable[int]] = None,
                      length_bytes: int = 8) -> ProviderSolution:
        """Grid-search the exact objective I over integer ``(k, m)``.

        With no *m_values* given, sweeps every m for which the puzzle is
        both feasible (below r̂) and expressible on the wire.
        """
        k_values = list(k_values)
        best: Optional[Tuple[float, PuzzleParams, NashSolution]] = None
        for k in k_values:
            for m in self._m_candidates(k, m_values, length_bytes):
                params = PuzzleParams(k=k, m=m, length_bytes=length_bytes)
                solution = self.clients.solve(params.expected_hashes)
                if not solution.feasible:
                    continue
                value = provider_net_work(params) * solution.total_rate
                if best is None or value > best[0]:
                    best = (value, params, solution)
        if best is None:
            raise GameError(
                "no (k, m) grid point is feasible for this client game")
        value, params, solution = best
        return ProviderSolution(difficulty=params.expected_hashes,
                                y_bar=solution.y_bar,
                                total_rate=solution.total_rate,
                                objective=value, params=params)

    def _m_candidates(self, k: int, m_values: Optional[Iterable[int]],
                      length_bytes: int) -> List[int]:
        if m_values is not None:
            return list(m_values)
        r_hat = self.clients.max_feasible_difficulty
        out = []
        for m in range(0, 8 * length_bytes + 1):
            params = PuzzleParams(k=k, m=m, length_bytes=length_bytes)
            if params.expected_hashes >= r_hat:
                break
            out.append(m)
        return out

    def sweep(self, difficulties: Iterable[float]
              ) -> List[Tuple[float, float, float]]:
        """``(ℓ, x̄*(ℓ), Ĩ(ℓ))`` rows for plotting the provider's trade-off."""
        rows = []
        for difficulty in difficulties:
            rate = self.clients.total_rate(difficulty)
            rows.append((difficulty, rate, difficulty * rate))
        return rows
