"""Finite-N Nash equilibrium of the client game (Appendix A, Eq. 8–11).

For a fixed difficulty ``ℓ`` the clients' equilibrium satisfies the first
order condition of the potential ``H``::

    w_i/(1 + x_i) − ℓ − 1/(µ − x̄)² = 0            (Eq. 8)

With ``y_i = 1 + x_i``, ``ȳ = N + x̄`` and ``w̄ = Σ w_i`` this collapses to a
single scalar equation in ``ȳ``::

    L̃(ȳ) = w̄/ȳ − ℓ − 1/(µ + N − ȳ)² = 0          (Eq. 9)

on ``N ≤ ȳ < N + µ``. ``L̃`` is strictly decreasing, so a solution exists iff
``L̃(N) > 0``, i.e. iff the difficulty is below the feasibility bound::

    ℓ < r̂ = w̄/N − 1/µ²                            (Eq. 10)

Per-user rates follow from ``y_i = (w_i/w̄)·ȳ``. The interior solution has
all ``x_i > 0`` iff ``ȳ > w̄/w_i`` for every user (Eq. 11); when some users'
valuations are too low they drop out (``x_i = 0``) and the reduced game is
re-solved over the active set — the standard water-filling iteration,
exposed as :meth:`ClientGame.solve` with ``allow_dropout=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.mm1 import expected_service_time
from repro.core.utility import client_utility
from repro.errors import GameError


@dataclass(frozen=True)
class NashSolution:
    """Equilibrium of the client game at a fixed difficulty.

    ``feasible`` is False when the difficulty exceeded the bound of Eq. (10)
    for every subset of users — all rates are then zero (universal dropout).
    """

    difficulty: float
    rates: List[float]
    weights: List[float]
    mu: float
    feasible: bool

    @property
    def total_rate(self) -> float:
        """``x̄* = Σ x_i*``."""
        return sum(self.rates)

    @property
    def y_bar(self) -> float:
        """``ȳ = N + x̄`` in the appendix's change of variables."""
        return len(self.rates) + self.total_rate

    @property
    def active_users(self) -> int:
        """Users with strictly positive equilibrium rates."""
        return sum(1 for x in self.rates if x > 0)

    @property
    def service_time(self) -> float:
        """``S(x̄*)`` at equilibrium."""
        return expected_service_time(self.total_rate, self.mu)

    def utilities(self) -> List[float]:
        """Per-user equilibrium utilities ``u_i(x*, p)``."""
        total = self.total_rate
        return [
            client_utility(x, total - x, self.difficulty, w, self.mu)
            for x, w in zip(self.rates, self.weights)
        ]

    def first_order_residuals(self) -> List[float]:
        """``w_i/(1+x_i) − ℓ − 1/(µ−x̄)²`` for active users (≈0 at a true
        interior equilibrium; ≤0 for users pinned at zero)."""
        total = self.total_rate
        congestion = 1.0 / (self.mu - total) ** 2
        return [
            w / (1.0 + x) - self.difficulty - congestion
            for x, w in zip(self.rates, self.weights)
        ]


class ClientGame:
    """The followers' game: N selfish clients facing difficulty ``ℓ``.

    Parameters
    ----------
    weights:
        Per-user valuations ``w_i`` (expected hashes a user will pay per
        request). Must be positive.
    mu:
        The server's M/M/1 service rate.
    """

    def __init__(self, weights: Sequence[float], mu: float) -> None:
        if not weights:
            raise GameError("the game needs at least one client")
        if any(w <= 0 for w in weights):
            raise GameError("all valuations w_i must be positive")
        if mu <= 0:
            raise GameError(f"mu must be positive, got {mu!r}")
        self.weights = list(weights)
        self.mu = float(mu)

    @classmethod
    def homogeneous(cls, n_users: int, w: float, mu: float) -> "ClientGame":
        """N identical users with valuation ``w`` — the paper's main case."""
        if n_users < 1:
            raise GameError(f"n_users must be >= 1, got {n_users}")
        return cls([w] * n_users, mu)

    # ------------------------------------------------------------------
    # Structural quantities
    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        return len(self.weights)

    @property
    def w_bar(self) -> float:
        """``w̄ = Σ w_i``."""
        return sum(self.weights)

    @property
    def w_av(self) -> float:
        """``w_av = w̄/N``."""
        return self.w_bar / self.n_users

    @property
    def alpha(self) -> float:
        """``α = µ/N`` — asymptotic per-user service capacity."""
        return self.mu / self.n_users

    @property
    def max_feasible_difficulty(self) -> float:
        """``r̂ = w̄/N − 1/µ²`` (Eq. 10): above this no equilibrium exists."""
        return self.w_av - 1.0 / self.mu ** 2

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _solve_y_bar(self, difficulty: float, weights: Sequence[float]
                     ) -> Optional[float]:
        """Root of Eq. (9) for the sub-game over *weights*, or None."""
        # Deferred: the simulator imports this module but never solves
        # the game, so it should not pay for loading scipy.
        from scipy.optimize import brentq

        n = len(weights)
        w_bar = sum(weights)

        def l_tilde(y: float) -> float:
            return (w_bar / y - difficulty
                    - 1.0 / (self.mu + n - y) ** 2)

        if l_tilde(n) <= 0:
            return None  # infeasible: Eq. (10) violated for this subset
        # L̃ → −∞ as ȳ → N+µ; back off from the pole until the sign flips.
        hi = n + self.mu
        for shrink in range(1, 60):
            candidate = n + self.mu * (1.0 - 2.0 ** -shrink)
            if l_tilde(candidate) < 0:
                hi = candidate
                break
        else:  # pragma: no cover - numerically unreachable
            raise GameError("could not bracket the equilibrium root")
        return float(brentq(l_tilde, n, hi, xtol=1e-12, rtol=1e-14))

    def solve(self, difficulty: float,
              allow_dropout: bool = True) -> NashSolution:
        """Nash equilibrium rates at difficulty ``ℓ`` (expected hashes).

        With ``allow_dropout`` (default), users whose interior rate would be
        negative are pinned to zero and the reduced game is re-solved; the
        returned solution is the true equilibrium of the constrained game.
        Without it, a :class:`GameError` is raised when the interior
        solution violates the participation condition (Eq. 11).
        """
        if difficulty < 0:
            raise GameError(f"difficulty must be >= 0, got {difficulty!r}")

        active = list(range(self.n_users))
        while active:
            weights = [self.weights[i] for i in active]
            y_bar = self._solve_y_bar(difficulty, weights)
            if y_bar is None:
                active = []
                break
            w_bar = sum(weights)
            y_rates = [w * y_bar / w_bar for w in weights]
            dropouts = [i for i, y in zip(active, y_rates) if y <= 1.0]
            if not dropouts:
                rates = [0.0] * self.n_users
                for i, y in zip(active, y_rates):
                    rates[i] = y - 1.0
                return NashSolution(difficulty=difficulty, rates=rates,
                                    weights=list(self.weights), mu=self.mu,
                                    feasible=True)
            if not allow_dropout:
                raise GameError(
                    f"participation condition (Eq. 11) violated for "
                    f"{len(dropouts)} user(s) at difficulty {difficulty!r}")
            active = [i for i in active if i not in set(dropouts)]

        # Everyone dropped out (or the game was infeasible outright).
        if not allow_dropout:
            raise GameError(
                f"difficulty {difficulty!r} exceeds the feasibility bound "
                f"r̂ = {self.max_feasible_difficulty!r} (Eq. 10)")
        return NashSolution(difficulty=difficulty,
                            rates=[0.0] * self.n_users,
                            weights=list(self.weights), mu=self.mu,
                            feasible=False)

    def total_rate(self, difficulty: float) -> float:
        """``x̄*(ℓ)`` — shorthand used by the provider problem."""
        return self.solve(difficulty).total_rate
