"""Analytic cost of Crowcroft's move-to-front list (paper Section 3.2).

Quantities, in the paper's notation (``a`` = per-user transaction rate,
0.1/s for TPC/A; ``N`` = users; ``R`` = response time; ``T`` = think
time):

* Eq. 2 -- ``F(T) = 1 - e^{-aT}``, the probability a given other user
  enters at least one transaction within ``T``.
* Eq. 3 -- ``N(T)``, the expected number of the other ``N-1`` users to
  do so: a binomial mean, ``(N-1)(1 - e^{-aT})``.  Figure 4 plots it.
* Eq. 5 -- expected PCBs *preceding* the user's own when his next
  transaction arrives: think times below ``R`` contribute ``N(2T)``,
  above ``R`` contribute ``N(T+R)``, averaged over the exponential
  think-time density.  Closed form derived by direct integration:

      E_entry = (N-1) * (2/3 - e^{-3aR} / 6)

* the response-ack search length is ``N(2R)`` (Figure 7's argument),
* Eq. 6 -- the overall cost is the mean of the two (half the inbound
  packets are transaction entries, half are acks).

Convention note: these are counts of PCBs *in front of* the target;
the number the structure examines is one more (it also compares the
target itself).  ``examined=True`` adds that one.  The paper's quoted
numbers (1019/1045/1086/1150, 78/190/362/659, 549/618/724/904) are the
preceding counts, which the default reproduces.
"""

from __future__ import annotations

import math

from .binomial import binomial_mean_direct

__all__ = [
    "other_user_cdf",
    "expected_preceding_users",
    "entry_cost",
    "entry_cost_quadrature",
    "ack_cost",
    "overall_cost",
    "deterministic_entry_cost",
]


def _check(n_users: int, rate: float) -> None:
    if n_users < 1:
        raise ValueError(f"need at least one user, got {n_users}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")


def other_user_cdf(rate: float, t: float) -> float:
    """Eq. 2: probability one given user transacts within ``t`` seconds."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if t < 0:
        return 0.0
    return -math.expm1(-rate * t)


def expected_preceding_users(
    n_users: int, rate: float, t: float, *, method: str = "closed"
) -> float:
    """Eq. 3 / Figure 4: expected other users transacting within ``t``.

    ``method="closed"`` uses the binomial-mean identity
    ``(N-1)(1-e^{-at})``; ``method="sum"`` evaluates the paper's
    term-by-term sum in log space (O(N), for validation).
    """
    _check(n_users, rate)
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    p = other_user_cdf(rate, t)
    if method == "closed":
        return (n_users - 1) * p
    if method == "sum":
        return binomial_mean_direct(n_users - 1, p)
    raise ValueError(f"unknown method {method!r} (use 'closed' or 'sum')")


def entry_cost(
    n_users: int, rate: float, response_time: float, *, examined: bool = False
) -> float:
    """Eq. 5: expected PCBs preceding the target on a transaction entry.

    Closed form of the paper's two-piece integral::

        int_0^R  a e^{-aT} (N-1)(1 - e^{-2aT})    dT
      + int_R^oo a e^{-aT} (N-1)(1 - e^{-a(T+R)}) dT
      = (N-1) (2/3 - e^{-3aR}/6)

    For a 200-TPS benchmark (N=2000): 1019 / 1045 / 1086 / 1150 PCBs at
    R = 0.2 / 0.5 / 1.0 / 2.0 s -- "somewhat worse than the BSD
    algorithm's 1,001".
    """
    _check(n_users, rate)
    if response_time < 0:
        raise ValueError(f"response time must be non-negative: {response_time}")
    preceding = (n_users - 1) * (
        2.0 / 3.0 - math.exp(-3.0 * rate * response_time) / 6.0
    )
    return preceding + 1.0 if examined else preceding


def entry_cost_quadrature(
    n_users: int, rate: float, response_time: float, *, examined: bool = False
) -> float:
    """Eq. 5 by adaptive quadrature, validating the closed form."""
    # Imported here, not at module top: every importer of repro.analytic
    # would otherwise pay for loading scipy.
    from scipy import integrate

    _check(n_users, rate)
    if response_time < 0:
        raise ValueError(f"response time must be non-negative: {response_time}")
    a = rate
    n_minus_1 = n_users - 1

    def below(t: float) -> float:
        return a * math.exp(-a * t) * n_minus_1 * -math.expm1(-2.0 * a * t)

    def above(t: float) -> float:
        return (
            a
            * math.exp(-a * t)
            * n_minus_1
            * -math.expm1(-a * (t + response_time))
        )

    part1, _ = integrate.quad(below, 0.0, response_time)
    part2, _ = integrate.quad(above, response_time, math.inf)
    preceding = part1 + part2
    return preceding + 1.0 if examined else preceding


def ack_cost(
    n_users: int, rate: float, response_time: float, *, examined: bool = False
) -> float:
    """PCBs preceding the target on the response's transport-level ack.

    Transactions in the interval R' (before the response) are acked
    during R (after it), so the preceding count is ``N(2R)`` -- 78 /
    190 / 362 / 659 at R = 0.2 / 0.5 / 1.0 / 2.0 s for N=2000.
    """
    preceding = expected_preceding_users(n_users, rate, 2.0 * response_time)
    return preceding + 1.0 if examined else preceding


def overall_cost(
    n_users: int, rate: float, response_time: float, *, examined: bool = False
) -> float:
    """Eq. 6: mean of entry and ack costs (549/618/724/904 at N=2000)."""
    entry = entry_cost(n_users, rate, response_time, examined=examined)
    ack = ack_cost(n_users, rate, response_time, examined=examined)
    return (entry + ack) / 2.0


def deterministic_entry_cost(n_users: int, *, examined: bool = False) -> float:
    """The Section 3.2 worst case: deterministic think times.

    "If the think times were deterministic (exactly 10 seconds always),
    Crowcroft's algorithm would look through all 2,000 PCBs on each
    transaction entry" -- every other user transacts between a user's
    visits, so all N-1 PCBs precede his (N examined).
    """
    if n_users < 1:
        raise ValueError(f"need at least one user, got {n_users}")
    preceding = float(n_users - 1)
    return preceding + 1.0 if examined else preceding
