"""Composable per-packet fault models.

Each model inspects one in-flight packet and mutates a
:class:`FaultPlan` -- drop it, hold it past its successors (delay-spike
reordering, the hazard Wu et al. study for TCP receive paths),
duplicate it, or flip bits in its serialized form so the receiver's
checksums must reject it.  Models are deterministic given their seed:
every stochastic decision draws from a named
:class:`~repro.sim.rng.RngRegistry` stream bound once by the
:class:`~repro.faults.injector.FaultInjector`, so an identical (seed,
fault config) pair replays a byte-identical fault schedule.

Loss comes in three temporal flavours:

* :class:`IIDLoss` -- independent Bernoulli drops, the textbook model;
* :class:`GilbertElliottLoss` -- the classic two-state Markov burst
  model (a good state and a lossy bad state), which is what real
  congested or noisy links look like;
* :class:`Blackhole` / :class:`LinkFlap` -- total loss over scheduled
  windows, for route-withdrawal and flapping-interface scenarios.
"""

from __future__ import annotations

import abc
from typing import List, Optional

__all__ = [
    "FaultPlan",
    "FaultModel",
    "IIDLoss",
    "GilbertElliottLoss",
    "Reorder",
    "Duplicate",
    "Corrupt",
    "Blackhole",
    "LinkFlap",
]


class FaultPlan:
    """What should happen to one packet, accumulated across models.

    The injector materializes the plan after every model has spoken:
    ``drop`` wins over everything; otherwise the packet is delivered
    ``1 + duplicates`` times, held ``extra_delay`` seconds past the
    link latency (so the packets sent after it overtake it), and -- if ``corrupt_bits`` is nonzero -- serialized to bytes with
    that many random bit flips, forcing the receiver down its
    checksum-rejection path.
    """

    __slots__ = ("drop", "drop_by", "extra_delay", "duplicates", "corrupt_bits")

    def __init__(self) -> None:
        self.drop = False
        #: Name of the model that dropped the packet (for accounting).
        self.drop_by: Optional[str] = None
        self.extra_delay = 0.0
        self.duplicates = 0
        self.corrupt_bits = 0

    @property
    def faulted(self) -> bool:
        """Whether any model touched this packet."""
        return (
            self.drop
            or self.extra_delay > 0.0
            or self.duplicates > 0
            or self.corrupt_bits > 0
        )

    def signature(self) -> str:
        """Compact, canonical rendering for the determinism digest."""
        return (
            f"d={int(self.drop)}:{self.drop_by or '-'}"
            f",r={self.extra_delay:.9f}"
            f",u={self.duplicates},c={self.corrupt_bits}"
        )


class FaultModel(abc.ABC):
    """One fault mechanism in the injector pipeline.

    Subclasses implement :meth:`apply`; stochastic decisions must use
    ``self.rng`` (bound by the injector) and time-based ones
    ``self.sim.now``, never any other randomness or clock.
    """

    #: Machine-readable model name (rng stream suffix, counter label).
    name = "fault"

    def __init__(self) -> None:
        self.rng = None
        self.sim = None

    def bind(self, rng, sim) -> None:
        """Give the model its private rng stream and the sim clock."""
        self.rng = rng
        self.sim = sim

    @abc.abstractmethod
    def apply(self, plan: FaultPlan, packet) -> None:
        """Inspect ``packet`` and mutate ``plan``."""

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


def _check_probability(label: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{label} must be in [0, 1], got {value}")
    return value


class IIDLoss(FaultModel):
    """Independent per-packet loss with probability ``rate``."""

    name = "loss"

    def __init__(self, rate: float):
        super().__init__()
        self.rate = _check_probability("loss rate", rate)

    def apply(self, plan: FaultPlan, packet) -> None:
        if plan.drop or not self.rate:
            return
        if self.rate >= 1.0 or self.rng.random() < self.rate:
            plan.drop = True
            plan.drop_by = self.name

    def describe(self) -> str:
        return f"loss(p={self.rate})"


class GilbertElliottLoss(FaultModel):
    """Two-state Markov (Gilbert-Elliott) bursty loss.

    The chain advances one step per packet: from GOOD it enters BAD
    with probability ``p_enter_bad``; from BAD it returns with
    probability ``p_exit_bad``.  Packets drop with probability
    ``good_loss`` in GOOD (usually 0) and ``bad_loss`` in BAD (1.0 for
    the classic Gilbert model).  The stationary loss rate is
    ``bad_loss * p_enter_bad / (p_enter_bad + p_exit_bad)`` -- e.g.
    (0.05, 0.45) spends 10% of packets in the bad state.
    """

    name = "ge"

    def __init__(
        self,
        p_enter_bad: float,
        p_exit_bad: float,
        *,
        bad_loss: float = 1.0,
        good_loss: float = 0.0,
    ):
        super().__init__()
        self.p_enter_bad = _check_probability("p_enter_bad", p_enter_bad)
        self.p_exit_bad = _check_probability("p_exit_bad", p_exit_bad)
        self.bad_loss = _check_probability("bad_loss", bad_loss)
        self.good_loss = _check_probability("good_loss", good_loss)
        self.in_bad_state = False
        self.bad_packets = 0

    @property
    def stationary_loss_rate(self) -> float:
        denom = self.p_enter_bad + self.p_exit_bad
        if denom == 0.0:
            return self.good_loss
        bad_fraction = self.p_enter_bad / denom
        return bad_fraction * self.bad_loss + (1 - bad_fraction) * self.good_loss

    def apply(self, plan: FaultPlan, packet) -> None:
        # Advance the chain on every packet, even already-dropped ones,
        # so burst timing does not depend on upstream models.
        if self.in_bad_state:
            if self.rng.random() < self.p_exit_bad:
                self.in_bad_state = False
        else:
            if self.rng.random() < self.p_enter_bad:
                self.in_bad_state = True
        if self.in_bad_state:
            self.bad_packets += 1
        if plan.drop:
            return
        loss = self.bad_loss if self.in_bad_state else self.good_loss
        if loss and (loss >= 1.0 or self.rng.random() < loss):
            plan.drop = True
            plan.drop_by = self.name

    def describe(self) -> str:
        return (
            f"ge(p={self.p_enter_bad}, r={self.p_exit_bad},"
            f" mean_loss={self.stationary_loss_rate:.3f})"
        )


class Reorder(FaultModel):
    """Delay-spike reordering: hold a packet so successors overtake it.

    With probability ``rate``, the packet's delivery is scheduled
    ``spike`` seconds past the link delay.  Any packet sent within the
    spike window arrives first, producing genuine out-of-order delivery
    at the receiver (which must re-ack, not crash -- the Wu et al.
    hazard).
    """

    name = "reorder"

    def __init__(self, rate: float, spike: float = 0.01):
        super().__init__()
        self.rate = _check_probability("reorder rate", rate)
        if spike <= 0:
            raise ValueError(f"spike must be positive, got {spike}")
        self.spike = spike

    def apply(self, plan: FaultPlan, packet) -> None:
        if plan.drop or not self.rate:
            return
        if self.rng.random() < self.rate:
            plan.extra_delay += self.spike

    def describe(self) -> str:
        return f"reorder(p={self.rate}, spike={self.spike}s)"


class Duplicate(FaultModel):
    """Deliver ``copies`` extra copies with probability ``rate``."""

    name = "dup"

    def __init__(self, rate: float, copies: int = 1):
        super().__init__()
        self.rate = _check_probability("duplication rate", rate)
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies}")
        self.copies = copies

    def apply(self, plan: FaultPlan, packet) -> None:
        if plan.drop or not self.rate:
            return
        if self.rate >= 1.0 or self.rng.random() < self.rate:
            plan.duplicates += self.copies

    def describe(self) -> str:
        return f"dup(p={self.rate}, copies={self.copies})"


class Corrupt(FaultModel):
    """Flip ``bits`` random bits in the serialized packet.

    The flipped copy is delivered as raw bytes, so the receiving
    :class:`~repro.tcpstack.stack.HostStack` parses it and the IP or
    TCP checksum rejects it end-to-end (``PacketError`` -> counted
    drop, never an exception out of the dispatch loop).
    """

    name = "corrupt"

    def __init__(self, rate: float, bits: int = 1):
        super().__init__()
        self.rate = _check_probability("corruption rate", rate)
        if bits < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        self.bits = bits

    def apply(self, plan: FaultPlan, packet) -> None:
        if plan.drop or not self.rate:
            return
        if self.rate >= 1.0 or self.rng.random() < self.rate:
            plan.corrupt_bits += self.bits

    def describe(self) -> str:
        return f"corrupt(p={self.rate}, bits={self.bits})"


class Blackhole(FaultModel):
    """Total loss inside the ``[start, end)`` virtual-time window."""

    name = "blackhole"

    def __init__(self, start: float, end: float):
        super().__init__()
        if end <= start:
            raise ValueError(f"empty blackhole window [{start}, {end})")
        self.start = start
        self.end = end

    @property
    def active(self) -> bool:
        return self.start <= self.sim.now < self.end

    def apply(self, plan: FaultPlan, packet) -> None:
        if plan.drop:
            return
        if self.active:
            plan.drop = True
            plan.drop_by = self.name

    def describe(self) -> str:
        return f"blackhole([{self.start}s, {self.end}s))"


class LinkFlap(FaultModel):
    """Periodic link outage: down for ``down_fraction`` of each period.

    A link that is up for ``period * (1 - down_fraction)`` seconds and
    then drops everything for the remainder, repeating -- the flapping
    interface / route-dampening scenario.  ``offset`` shifts the phase.
    """

    name = "flap"

    def __init__(self, period: float, down_fraction: float, offset: float = 0.0):
        super().__init__()
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = period
        self.down_fraction = _check_probability("down_fraction", down_fraction)
        self.offset = offset

    @property
    def active(self) -> bool:
        phase = (self.sim.now - self.offset) % self.period
        return phase >= self.period * (1.0 - self.down_fraction)

    def apply(self, plan: FaultPlan, packet) -> None:
        if plan.drop:
            return
        if self.down_fraction and self.active:
            plan.drop = True
            plan.drop_by = self.name

    def describe(self) -> str:
        return f"flap(period={self.period}s, down={self.down_fraction:.0%})"


def describe_models(models: List[FaultModel]) -> str:
    """One-line rendering of a pipeline, in application order."""
    return " -> ".join(model.describe() for model in models) or "(none)"
