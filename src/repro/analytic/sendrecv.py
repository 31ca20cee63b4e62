"""Analytic cost of the Partridge/Pink send/receive cache (Section 3.3).

The analysis splits inbound packets into three cases, with ``a`` the
per-user rate, ``N`` users, ``R`` the response time, and ``D`` the
network round-trip time:

* **Case 1** (Eq. 8-11): a transaction arriving after a think time
  ``T > R + D``.  The cache survives only if no other user's packet
  arrived during an interval of length ``T + R + D``.
* **Case 2** (Eq. 12-14): ``T < R + D``; the vulnerable window is
  ``2T``.
* **Case 3** (Eq. 15-16): the response's transport-level ack; the
  attacker has two windows of length ``D``.

A hit costs one examined PCB (both slots hold the target); a miss costs
``(N+5)/2`` -- both cache slots plus the average scan.  Cases 1 and 2
are mutually exclusive pieces of one expectation over think time, so
the overall per-packet cost (Eq. 7) averages *their sum* with the ack
case:

    N = (N1 + N2 + Na) / 2

which reproduces the paper's 667 / 993 / 1002 PCBs at D = 1/10/100 ms
(N=2000; nearly independent of R at this scale).

Closed forms (derived from Eqs. 10, 13; validated against quadrature in
the tests), with ``S = R + D``:

    N1 = (N+5)/2 e^{-aS} - (N+3)/(2N)      e^{-aS(2N-1)}
    N2 = (N+5)/2 (1 - e^{-aS})
       - (N+3)/(2(2N-1)) (1 - e^{-aS(2N-1)})
    Na = (N+5)/2 - (N+3)/2 e^{-2aD(N-1)}

Note on Eq. 15: the paper's printed ``p_a = e^{-2aD}`` omits the
``(N-1)`` exponent its own limit argument ("as D and N increase...")
requires; the corrected form above reproduces the quoted results.
"""

from __future__ import annotations

import math

__all__ = [
    "survive_probability_case1",
    "survive_probability_case2",
    "survive_probability_ack",
    "hit_cost",
    "miss_cost",
    "case1_cost",
    "case1_cost_quadrature",
    "case2_cost",
    "case2_cost_quadrature",
    "ack_cost",
    "overall_cost",
]


def _check(n_users: int, rate: float, response_time: float, rtt: float) -> None:
    if n_users < 1:
        raise ValueError(f"need at least one user, got {n_users}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if response_time < 0:
        raise ValueError(f"response time must be non-negative: {response_time}")
    if rtt < 0:
        raise ValueError(f"round-trip time must be non-negative: {rtt}")


def hit_cost() -> float:
    """A cache hit examines exactly one PCB (both slots hold it)."""
    return 1.0


def miss_cost(n_users: int) -> float:
    """(N+5)/2: two cache slots plus the (N+1)/2 average list scan."""
    if n_users < 1:
        raise ValueError(f"need at least one user, got {n_users}")
    return (n_users + 5) / 2.0


def survive_probability_case1(
    n_users: int, rate: float, think: float, response_time: float, rtt: float
) -> float:
    """Eq. 8: P[cache intact] for a transaction after think ``T > R+D``."""
    _check(n_users, rate, response_time, rtt)
    window = think + response_time + rtt
    return math.exp(-rate * window * (n_users - 1))


def survive_probability_case2(n_users: int, rate: float, think: float) -> float:
    """Eq. 12: P[cache intact] for a transaction after think ``T < R+D``."""
    if n_users < 1:
        raise ValueError(f"need at least one user, got {n_users}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return math.exp(-2.0 * rate * think * (n_users - 1))


def survive_probability_ack(n_users: int, rate: float, rtt: float) -> float:
    """Eq. 15 (exponent corrected): P[cache intact] for a response ack."""
    if n_users < 1:
        raise ValueError(f"need at least one user, got {n_users}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if rtt < 0:
        raise ValueError(f"round-trip time must be non-negative: {rtt}")
    return math.exp(-2.0 * rate * rtt * (n_users - 1))


def case1_cost(n_users: int, rate: float, response_time: float, rtt: float) -> float:
    """Eq. 11: think-time-weighted cost contribution of Case 1."""
    _check(n_users, rate, response_time, rtt)
    n = n_users
    s = response_time + rtt
    return (n + 5) / 2.0 * math.exp(-rate * s) - (n + 3) / (2.0 * n) * math.exp(
        -rate * s * (2 * n - 1)
    )


def case1_cost_quadrature(
    n_users: int, rate: float, response_time: float, rtt: float
) -> float:
    """Eq. 10 integrated numerically (validates :func:`case1_cost`)."""
    # Imported here, not at module top: every importer of repro.analytic
    # would otherwise pay for loading scipy.
    from scipy import integrate

    _check(n_users, rate, response_time, rtt)
    a, n = rate, n_users
    s = response_time + rtt

    def integrand(t: float) -> float:
        p_survive = math.exp(-a * (t + s) * (n - 1))
        expected = p_survive + (1.0 - p_survive) * (n + 5) / 2.0
        return a * math.exp(-a * t) * expected

    value, _ = integrate.quad(integrand, s, math.inf)
    return value


def case2_cost(n_users: int, rate: float, response_time: float, rtt: float) -> float:
    """Eq. 14: think-time-weighted cost contribution of Case 2."""
    _check(n_users, rate, response_time, rtt)
    n = n_users
    s = response_time + rtt
    expm = -math.expm1(-rate * s)  # 1 - e^{-aS}
    expm_long = -math.expm1(-rate * s * (2 * n - 1))
    return (n + 5) / 2.0 * expm - (n + 3) / (2.0 * (2 * n - 1)) * expm_long


def case2_cost_quadrature(
    n_users: int, rate: float, response_time: float, rtt: float
) -> float:
    """Eq. 13 integrated numerically (validates :func:`case2_cost`)."""
    from scipy import integrate

    _check(n_users, rate, response_time, rtt)
    a, n = rate, n_users
    s = response_time + rtt

    def integrand(t: float) -> float:
        p_survive = math.exp(-2.0 * a * t * (n - 1))
        expected = p_survive + (1.0 - p_survive) * (n + 5) / 2.0
        return a * math.exp(-a * t) * expected

    value, _ = integrate.quad(integrand, 0.0, s)
    return value


def ack_cost(n_users: int, rate: float, rtt: float) -> float:
    """Eq. 16: expected PCBs examined for a response's transport ack.

    ``(N+5)/2 - (N+3)/2 e^{-2aD(N-1)}``; approaches (N+5)/2 as D or N
    grow, and approaches 1 as D -> 0 or N -> 1.
    """
    if n_users < 1:
        raise ValueError(f"need at least one user, got {n_users}")
    p = survive_probability_ack(n_users, rate, rtt)
    n = n_users
    return (n + 5) / 2.0 - (n + 3) / 2.0 * p


def overall_cost(
    n_users: int, rate: float, response_time: float, rtt: float
) -> float:
    """Eq. 7/17: expected PCBs examined per inbound packet.

    ``(N1 + N2 + Na) / 2`` -- transaction cases are mutually exclusive
    pieces of one expectation, averaged 50/50 against acks.  Approaches
    (N+5)/2 for large N: "as the stress on the cache increases, the
    performance converges to that of an uncached linked list plus the
    overhead imposed by the cache."
    """
    n1 = case1_cost(n_users, rate, response_time, rtt)
    n2 = case2_cost(n_users, rate, response_time, rtt)
    na = ack_cost(n_users, rate, rtt)
    return (n1 + n2 + na) / 2.0
