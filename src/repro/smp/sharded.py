"""``ShardedDemux``: N independent demux structures behind one facade.

The paper's structures are single instances; a receive-side-scaled host
runs one instance per CPU and steers packets among them.  This wrapper
makes that arrangement out of *any* registered algorithm: each shard is
a private instance built by a factory, a :class:`SteeringFunction`
names the shard for each packet, and the facade keeps the
:class:`~repro.core.base.DemuxAlgorithm` contract, so everything that
drives an algorithm (workloads, the full TCP stack, the fault matrix)
drives a sharded one unchanged.

Semantics are pinned to the unsharded structure: a lookup finds exactly
the PCBs an unsharded instance would find.  The wrapper keeps a home
table (four-tuple -> shard, the flow-director table real NICs keep in
hardware).  For flow-stable steering (hash, sticky) the steering
function decides once per connection, on insert, and the home table
remembers the decision: a packet of a live flow takes its shard from
the table, and only packets of unknown tuples run the steering
function (:meth:`ShardedDemux.target_of`).  For unstable steering
(round-robin) every packet is steered, and the wrapper *migrates* the
PCB to the steered shard before looking it up, modelling what an SMP
actually does: the connection's state follows the CPU that processes
it, one cache-line convoy at a time.  Migrations are counted and
priced by :mod:`repro.smp.contention`; ``examined`` stays a pure count
of PCB touches, exactly as in the base convention.

Statistics land in two places: each shard's own ``DemuxStats`` (the
per-shard view -- occupancy, per-shard p99 -- that
:meth:`ShardedDemux.shard_metrics` exports) and the facade's
aggregate stats, recorded by the base-class template method.
:meth:`ShardedDemux.aggregated_stats` re-derives the aggregate from the
shards via :meth:`~repro.core.stats.DemuxStats.merge`, which is also
the path parallel sweeps use to combine per-process results.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.base import DemuxAlgorithm, DuplicateConnectionError, LookupResult
from ..core.pcb import PCB
from ..core.stats import DemuxStats, PacketKind
from ..packet.addresses import FourTuple
from .contention import ContentionModel, DEFAULT_CONTENTION, SMPCostReport, build_report
from .steering import HashSteering, SteeringFunction, StickyFlowSteering

__all__ = ["ShardedDemux"]


class ShardedDemux(DemuxAlgorithm):
    """N shards of one algorithm behind a steering function."""

    def __init__(
        self,
        shard_factory: Callable[[], DemuxAlgorithm],
        nshards: int,
        steering: Optional[SteeringFunction] = None,
        *,
        inner_spec: Optional[str] = None,
    ):
        super().__init__()
        if nshards <= 0:
            raise ValueError(f"nshards must be positive, got {nshards}")
        self._shard_factory = shard_factory
        self._shards: List[DemuxAlgorithm] = [
            shard_factory() for _ in range(nshards)
        ]
        self.steering = steering if steering is not None else HashSteering()
        #: Four-tuple -> index of the shard currently holding its PCB.
        self._home: Dict[FourTuple, int] = {}
        #: PCB moves forced by non-flow-stable steering.
        self.flow_migrations = 0
        #: Per-shard count of migration second hops: lookups a shard
        #: served because a PCB had just been migrated *to* it, not
        #: because steering dealt it the packet.  Kept out of
        #: :meth:`shard_loads` so the imbalance factor measures the
        #: steering function, not the migration traffic.
        self._migration_relookups: List[int] = [0] * nshards
        self.name = f"sharded-{self._shards[0].name}"
        #: Registry spec of one shard, when built through the registry.
        #: Checkpoint/restore needs it to rebuild a crashed shard.
        self.inner_spec = inner_spec

    # -- structure facade --------------------------------------------------

    @property
    def nshards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> Sequence[DemuxAlgorithm]:
        """The shard instances (read-only view for inspection/tests)."""
        return tuple(self._shards)

    def shard_of(self, tup: FourTuple) -> int:
        """Where ``tup``'s PCB currently lives (KeyError if absent)."""
        return self._home[tup]

    def target_of(self, tup: FourTuple) -> int:
        """The shard the next packet of ``tup`` goes to.

        Under flow-stable steering a live flow's home-table entry *is*
        the steering decision: hash steering is a pure function of the
        tuple, sticky steering returns the pin it made when the flow
        was inserted, and a supervised re-steer forgets, pins, then
        re-inserts.  So a live flow's packet reads the table and
        hashes nothing.  Unknown tuples, and every packet under
        round-robin, run the steering function -- in the caller's
        order, which is what sticky's first-sight pins depend on.
        """
        if self.steering.flow_stable:
            shard = self._home.get(tup)
            if shard is not None:
                return shard
        return self.steering.shard_of(tup, len(self._shards))

    def home_table(self) -> Dict[FourTuple, int]:
        """A copy of the flow-director table (tuple -> shard index).

        Iteration order is first-insert order, which is the order a
        cold rebuild re-installs a crashed shard's flows in.
        """
        return dict(self._home)

    def fresh_shard(self) -> DemuxAlgorithm:
        """A new, empty shard instance from the configured factory."""
        return self._shard_factory()

    def replace_shard(self, index: int, shard: DemuxAlgorithm) -> None:
        """Swap in a rebuilt shard instance (crash recovery).

        The dispatcher's flow-director table (``_home``) survives a
        shard crash -- it lives with the steering CPU, not the shard --
        so the caller is responsible for the replacement holding
        exactly the PCBs whose home is ``index`` (warm restore) or for
        re-homing the orphans first (re-steer/cold paths, see
        :class:`repro.recovery.ShardSupervisor`).
        """
        if not 0 <= index < len(self._shards):
            raise IndexError(f"no shard {index} (nshards={self.nshards})")
        self._shards[index] = shard

    def forget_flow(self, tup: FourTuple) -> None:
        """Drop a flow from the director table without touching shards.

        Used when a crashed shard's PCB is gone and the flow must be
        re-homed: the structural remove (``_remove``) would try to pull
        the PCB out of a shard that no longer holds it.  Also releases
        any sticky-steering pin so the flow can be re-assigned.
        """
        self._home.pop(tup, None)
        if isinstance(self.steering, StickyFlowSteering):
            self.steering.forget(tup)

    def _insert(self, pcb: PCB) -> None:
        tup = pcb.four_tuple
        if tup in self._home:
            raise DuplicateConnectionError(f"duplicate connection {tup}")
        shard = self.steering.shard_of(tup, self.nshards)
        self._shards[shard].insert(pcb)
        self._home[tup] = shard

    def _remove(self, tup: FourTuple) -> PCB:
        shard = self._home.pop(tup)  # KeyError when absent, per contract
        if isinstance(self.steering, StickyFlowSteering):
            self.steering.forget(tup)
        return self._shards[shard].remove(tup)

    def _note_send(self, pcb: PCB) -> None:
        shard = self._home.get(pcb.four_tuple)
        if shard is not None:
            self._shards[shard].note_send(pcb)

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        spans = self.spans
        if spans is not None:
            spans.open_packet(tup, kind, owner="demux")
        target = self.target_of(tup)
        home = self._home.get(tup)
        migrated = home is not None and home != target
        if migrated:
            # The steered CPU takes over the flow: its PCB (and cache
            # lines) migrate.  Examined-count purity is preserved; the
            # move is priced separately by the contention model.
            pcb = self._shards[home].remove(tup)
            self._shards[target].insert(pcb)
            self._home[tup] = target
            self.flow_migrations += 1
            self._migration_relookups[target] += 1
        if spans is not None:
            spans.stage(
                "steer",
                policy=self.steering.name,
                shard=target,
                migrated=migrated,
            )
        return self._shards[target].lookup(tup, kind)

    def lookup_batch(
        self, packets: Sequence[Tuple[FourTuple, PacketKind]]
    ) -> List[LookupResult]:
        """Batched lookup, dispatched shard-by-shard.

        Unstable steering (round-robin) migrates PCBs mid-batch, so it
        keeps the per-packet path; flow-stable steering takes the
        batched template (see :meth:`_lookup_batch`), hooks attached or
        not.
        """
        if not self.steering.flow_stable:
            return [self.lookup(tup, kind) for tup, kind in packets]
        return super().lookup_batch(packets)

    def _lookup_batch(
        self, packets: Sequence[Tuple[FourTuple, PacketKind]]
    ) -> List[LookupResult]:
        """Route, serve one sub-batch per shard, scatter back.

        For flow-stable steering (hash, sticky) a packet's shard is
        fixed and no migrations can occur, so the batch is routed in
        input order (:meth:`target_of`: live flows read the home
        table, unknown tuples are steered), grouped by shard, served
        as one sub-batch per shard (letting fast shards amortize
        through their own ``lookup_batch``), and scattered back to
        input order.  Each shard sees exactly the subsequence it would
        have seen packet by packet, so every decision -- and every
        shard's statistics -- is identical to the sequential path.
        """
        target_of = self.target_of
        # Route in input order: sticky steering assigns unknown tuples
        # as it first sees them, and that order must match sequential
        # replay.
        groups: Dict[int, List[int]] = {}
        for position, (tup, _) in enumerate(packets):
            groups.setdefault(target_of(tup), []).append(position)
        results: List[Optional[LookupResult]] = [None] * len(packets)
        for shard_index, positions in groups.items():
            sub_batch = [packets[position] for position in positions]
            sub_results = self._shards[shard_index].lookup_batch(sub_batch)
            for position, result in zip(positions, sub_results):
                results[position] = result
        return results

    def _span_lead(
        self, packets: Sequence[Tuple[FourTuple, PacketKind]]
    ) -> Callable[[int], Tuple[str, Dict[str, object]]]:
        """The ``steer`` stage :meth:`_lookup` records, for batch spans.

        Routing a sampled packet again is exact: flow-stable steering
        gives a flow the same shard every time, and a batch never
        migrates.
        """
        policy = self.steering.name
        target_of = self.target_of

        def steer(position: int) -> Tuple[str, Dict[str, object]]:
            shard = target_of(packets[position][0])
            return "steer", {
                "policy": policy, "shard": shard, "migrated": False,
            }

        return steer

    def __len__(self) -> int:
        return len(self._home)

    def __iter__(self) -> Iterator[PCB]:
        for shard in self._shards:
            yield from shard

    def __contains__(self, tup: FourTuple) -> bool:
        return tup in self._home

    # -- per-shard observability ------------------------------------------

    def occupancy(self) -> Sequence[int]:
        """PCBs resident per shard."""
        return tuple(len(shard) for shard in self._shards)

    def shard_loads(self) -> Sequence[int]:
        """Lookups the steering function dealt each shard.

        Excludes migration second hops (a lookup served only because
        the PCB was just migrated in); those are attributed separately
        by :meth:`migration_loads`, so ``shard_loads`` measures the
        steering function alone and
        ``sum(shard_loads()) + sum(migration_loads())`` equals the
        total lookups served across shards.
        """
        return tuple(
            shard.stats.lookups - relookups
            for shard, relookups in zip(
                self._shards, self._migration_relookups
            )
        )

    def migration_loads(self) -> Sequence[int]:
        """Migration second hops served per shard."""
        return tuple(self._migration_relookups)

    def imbalance_factor(self) -> float:
        """Max/mean steered shard load; 1.0 is perfect balance.

        Computed from :meth:`shard_loads`, i.e. without migration
        re-lookups -- a migration-heavy stream must not inflate the
        reported steering skew (or the smp-sweep imbalance criterion).
        """
        loads = self.shard_loads()
        total = sum(loads)
        if not total:
            return 1.0
        return max(loads) / (total / len(loads))

    def per_shard_p99(self) -> Sequence[int]:
        """p99 of each shard's search-length distribution."""
        return tuple(
            shard.stats.combined().percentile(0.99) for shard in self._shards
        )

    def aggregated_stats(self) -> DemuxStats:
        """All shard statistics merged into one ``DemuxStats``."""
        merged = DemuxStats()
        for shard in self._shards:
            merged.merge(shard.stats)
        return merged

    def reset_stats(self) -> None:
        """Zero the facade's and every shard's counters together."""
        super().reset_stats()
        for shard in self._shards:
            shard.reset_stats()
        self.flow_migrations = 0
        self._migration_relookups = [0] * self.nshards

    def metrics(self) -> List[tuple]:
        """``demux_*`` for the facade plus :meth:`shard_metrics`."""
        return super().metrics() + self.shard_metrics()

    def shard_metrics(self) -> List[tuple]:
        """The per-shard families, labelled with this facade's name.

        ``smp_*``: occupancy, steered and migration loads, p99 examined
        per shard, imbalance, migrations and shard count.  Fast shards
        add ``fastpath_shard_counters`` and cuckoo shards their
        ``cuckoo_table`` gauges, each sample labelled by shard.
        """
        label = self.name

        def per_shard(values) -> List[tuple]:
            return [
                ({"algorithm": label, "shard": str(index)}, value)
                for index, value in enumerate(values)
            ]

        families = [
            ("smp_shard_occupancy", "gauge", "PCBs resident per shard",
             per_shard(self.occupancy())),
            ("smp_shard_lookups", "gauge", "lookups steered to each shard",
             per_shard(self.shard_loads())),
            ("smp_shard_migration_relookups", "gauge",
             "migration second hops served per shard",
             per_shard(self.migration_loads())),
            ("smp_shard_p99_examined", "gauge", "p99 PCBs examined per shard",
             per_shard(self.per_shard_p99())),
            ("smp_imbalance_factor", "gauge",
             "max/mean shard load (1.0 = perfect balance)",
             [({"algorithm": label}, self.imbalance_factor())]),
            ("smp_flow_migrations", "gauge",
             "PCB moves forced by non-flow-stable steering",
             [({"algorithm": label}, self.flow_migrations)]),
            ("smp_shards", "gauge", "configured shard count",
             [({"algorithm": label}, self.nshards)]),
        ]
        for index, shard in enumerate(self._shards):
            labels = {"algorithm": label, "shard": str(index)}
            counters = getattr(shard, "fastpath_counters", None)
            if counters is not None:
                families.append((
                    "fastpath_shard_counters", "gauge",
                    "per-shard fast-path counters",
                    [({**labels, "counter": name}, value)
                     for name, value in counters.as_dict().items()],
                ))
            if hasattr(shard, "table_family"):
                families.append(shard.table_family(**labels))
        return families

    def cost_report(
        self, model: ContentionModel = DEFAULT_CONTENTION
    ) -> SMPCostReport:
        """Price the measured run under the SMP contention model."""
        return build_report(
            nshards=self.nshards,
            steering=self.steering.name,
            steer_ops=self.steering.cost_ops,
            migrations=self.flow_migrations,
            per_shard_lookups=[s.stats.lookups for s in self._shards],
            per_shard_occupancy=self.occupancy(),
            per_shard_mean_examined=[
                s.stats.mean_examined for s in self._shards
            ],
            per_shard_p99=self.per_shard_p99(),
            model=model,
            per_shard_steered=self.shard_loads(),
        )

    def describe(self) -> str:
        return (
            f"{self.name} (S={self.nshards}, steer={self.steering.name},"
            f" {len(self)} PCBs, imbalance {self.imbalance_factor():.2f})"
        )
