"""The fault injector: a seeded pipeline wrapping link delivery.

A :class:`FaultInjector` owns an ordered list of
:class:`~repro.faults.models.FaultModel` instances, each bound to its
own named rng stream derived from one master seed.  A
:class:`FaultyLink` consults the injector once per transmitted packet
and materializes the resulting :class:`FaultPlan`: drop, deliver with
an out-of-FIFO delay spike, deliver extra copies, or serialize the
packet and flip bits so the receiver's checksums must reject it.

Determinism is a contract, not an accident: the injector feeds every
decision into a running SHA-256 (:meth:`FaultInjector.schedule_digest`)
so tests can assert that identical (seed, fault config) pairs replay a
byte-identical fault schedule.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.engine import Simulator
from ..sim.network import Link
from ..sim.rng import RngRegistry
from ..tcpstack.stack import DROPS_FAMILY
from .models import FaultModel, FaultPlan, describe_models

__all__ = ["FaultInjector", "FaultyLink"]


class FaultInjector:
    """Applies a model pipeline to packets; counts and digests faults.

    One injector may serve many links (the usual deployment: the
    network's ``link_factory`` hands the same injector to every host's
    link), so its counters aggregate the whole network's faults.  The
    event loop is single-threaded and deterministic, so sharing rng
    streams across links preserves replayability.
    """

    def __init__(
        self,
        sim: Simulator,
        models: Sequence[FaultModel],
        *,
        seed: int = 0,
        rng_registry: Optional[RngRegistry] = None,
    ):
        registry = rng_registry if rng_registry is not None else RngRegistry(seed)
        self.sim = sim
        self.models = list(models)
        for index, model in enumerate(self.models):
            # Position-qualified stream names keep two models of the
            # same type (e.g. two blackhole windows) independent.
            model.bind(registry.stream(f"fault.{index}.{model.name}"), sim)
        self.packets_seen = 0
        self.packets_dropped = 0
        self.packets_reordered = 0
        self.packets_duplicated = 0
        self.packets_corrupted = 0
        #: (model name, action) -> count, reported by :meth:`metrics`.
        self.counts: Dict[Tuple[str, str], int] = {}
        self._digest = hashlib.sha256()

    def _count(self, model: str, action: str) -> None:
        key = (model, action)
        self.counts[key] = self.counts.get(key, 0) + 1

    def judge(self, packet) -> FaultPlan:
        """Run the pipeline over one packet and record the verdict."""
        plan = FaultPlan()
        for model in self.models:
            model.apply(plan, packet)
        index = self.packets_seen
        self.packets_seen += 1
        if plan.drop:
            self.packets_dropped += 1
            self._count(plan.drop_by or "unknown", "drop")
        else:
            if plan.extra_delay > 0.0:
                self.packets_reordered += 1
                self._count("reorder", "delay")
            if plan.duplicates:
                self.packets_duplicated += 1
                self._count("dup", "duplicate")
            if plan.corrupt_bits:
                self.packets_corrupted += 1
                self._count("corrupt", "bitflip")
        if plan.faulted:
            self._digest.update(f"{index}|{plan.signature()}\n".encode("ascii"))
        return plan

    def corrupt_bytes(self, packet, bits: int, rng) -> bytes:
        """Serialize ``packet`` and flip ``bits`` random bits."""
        if isinstance(packet, (bytes, bytearray, memoryview)):
            data = bytearray(packet)
        else:
            data = bytearray(packet.build())
        for _ in range(bits):
            position = rng.randrange(len(data) * 8)
            data[position // 8] ^= 1 << (position % 8)
        return bytes(data)

    def schedule_digest(self) -> str:
        """SHA-256 over every fault decision so far (hex).

        Two runs with the same seed and fault configuration produce
        the same digest -- the determinism guarantee tests assert.
        """
        return self._digest.hexdigest()

    def summary(self) -> str:
        return (
            f"faults: {self.packets_seen} packets,"
            f" {self.packets_dropped} dropped,"
            f" {self.packets_reordered} reordered,"
            f" {self.packets_duplicated} duplicated,"
            f" {self.packets_corrupted} corrupted"
        )

    def metrics(self) -> List[tuple]:
        """What the pipeline did: actions by model, packets judged, and
        injected losses under ``packet_drops_total{reason="injected-loss"}``.

        Unlabelled by host: one injector serves a whole network, so the
        publisher names the host it stands in front of."""
        return [
            ("faults_injected_total", "counter",
             "fault-pipeline actions, by model and action",
             [({"fault": model, "action": action}, count)
              for (model, action), count in self.counts.items()]),
            DROPS_FAMILY
            + ([({"reason": "injected-loss"}, self.packets_dropped)],),
            ("fault_packets_seen_total", "counter",
             "packets judged by the fault pipeline",
             [({}, self.packets_seen)]),
        ]

    def describe(self) -> str:
        return describe_models(self.models)

    def __repr__(self) -> str:
        return f"<FaultInjector {self.describe()}>"


class FaultyLink(Link):
    """A :class:`~repro.sim.network.Link` whose deliveries pass through
    a :class:`FaultInjector`.

    Every packet is judged by the injector pipeline.  A delay spike
    holds one packet while its successors overtake it; corrupted
    copies are delivered as raw bytes.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        *,
        injector: FaultInjector,
    ):
        super().__init__(sim, delay)
        self._injector = injector
        self.packets_dropped = 0
        # Corruption needs dice at materialization time; reuse the
        # first Corrupt model's stream, or a dedicated one if a plan
        # ever carries corrupt_bits without such a model (defensive).
        self._corrupt_rng = None
        for model in injector.models:
            if model.name == "corrupt":
                self._corrupt_rng = model.rng
                break

    @property
    def injector(self) -> FaultInjector:
        return self._injector

    def transmit(self, packet, deliver: Callable) -> None:
        self.packets_sent += 1
        plan = self._injector.judge(packet)
        if plan.drop:
            self.packets_dropped += 1
            return
        payload = packet
        if plan.corrupt_bits and self._corrupt_rng is not None:
            payload = self._injector.corrupt_bytes(
                packet, plan.corrupt_bits, self._corrupt_rng
            )
        for _ in range(1 + plan.duplicates):
            self._schedule_delivery(payload, deliver, plan.extra_delay)
