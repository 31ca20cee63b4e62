"""Fault-specification strings: one line describes a fault mix.

The CLI, the fault matrix, and the benchmarks all configure fault
pipelines from compact specs so a scenario fits in a flag::

    loss=0.1                        10% i.i.d. loss
    ge=0.05:0.45                    Gilbert-Elliott, ~10% bursty loss
    ge=0.05:0.45:0.8                ... with 80% loss in the bad state
    reorder=0.02:0.01               2% of packets held 10 ms out of FIFO
    dup=0.01                        1% duplicated once
    dup=0.01:2                      ... twice
    corrupt=0.005                   0.5% single-bit corruption
    corrupt=0.005:3                 ... three bit flips
    blackhole=5:10                  total loss in [5 s, 10 s)
    flap=4:0.25                     down the last 25% of every 4 s

Comma-separated terms compose into one pipeline, applied in the order
written: ``"ge=0.05:0.45,reorder=0.02:0.01,dup=0.01,corrupt=0.005"``.
Building fresh model instances per call keeps spec strings reusable
across runs (models carry per-run Markov/rng state).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

from .models import (
    Blackhole,
    Corrupt,
    Duplicate,
    FaultModel,
    GilbertElliottLoss,
    IIDLoss,
    LinkFlap,
    Reorder,
)

__all__ = ["FaultSpecError", "parse_fault_spec", "STANDARD_MIXES"]


class FaultSpecError(ValueError):
    """Raised for malformed fault specification strings."""


def _floats(name: str, text: str, minimum: int, maximum: int) -> List[float]:
    parts = [p for p in text.split(":") if p != ""]
    if not minimum <= len(parts) <= maximum:
        expected = (
            f"{minimum}" if minimum == maximum else f"{minimum}-{maximum}"
        )
        raise FaultSpecError(
            f"{name!r} takes {expected} colon-separated value(s),"
            f" got {len(parts)} in {text!r}"
        )
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise FaultSpecError(f"bad number in {name}={text!r}: {exc}") from None


def _make_loss(text: str) -> FaultModel:
    (rate,) = _floats("loss", text, 1, 1)
    return IIDLoss(rate)


def _make_ge(text: str) -> FaultModel:
    values = _floats("ge", text, 2, 3)
    kwargs = {}
    if len(values) == 3:
        kwargs["bad_loss"] = values[2]
    return GilbertElliottLoss(values[0], values[1], **kwargs)


def _make_reorder(text: str) -> FaultModel:
    values = _floats("reorder", text, 1, 2)
    spike = values[1] if len(values) == 2 else 0.01
    return Reorder(values[0], spike)


def _make_dup(text: str) -> FaultModel:
    values = _floats("dup", text, 1, 2)
    copies = int(values[1]) if len(values) == 2 else 1
    return Duplicate(values[0], copies)


def _make_corrupt(text: str) -> FaultModel:
    values = _floats("corrupt", text, 1, 2)
    bits = int(values[1]) if len(values) == 2 else 1
    return Corrupt(values[0], bits)


def _make_blackhole(text: str) -> FaultModel:
    start, end = _floats("blackhole", text, 2, 2)
    return Blackhole(start, end)


def _make_flap(text: str) -> FaultModel:
    values = _floats("flap", text, 2, 3)
    offset = values[2] if len(values) == 3 else 0.0
    return LinkFlap(values[0], values[1], offset)


_MAKERS: Dict[str, Callable[[str], FaultModel]] = {
    "loss": _make_loss,
    "ge": _make_ge,
    "reorder": _make_reorder,
    "dup": _make_dup,
    "corrupt": _make_corrupt,
    "blackhole": _make_blackhole,
    "flap": _make_flap,
}


def _parse_terms(spec: str, *tables: Dict[str, Callable[[str], Any]]):
    """Build each comma-separated ``name=values`` term of ``spec``.

    Each term goes to the first table that knows its name; returns one
    list per table, each in the order written.  An unknown name raises
    :class:`FaultSpecError` listing every table's vocabulary.
    """
    built: List[list] = [[] for _ in tables]
    for term in spec.split(","):
        term = term.strip()
        if not term:
            continue
        name, sep, value = term.partition("=")
        name = name.strip().lower()
        for table, terms in zip(tables, built):
            if name in table:
                break
        else:
            known = ", ".join(sorted(set().union(*tables)))
            raise FaultSpecError(f"unknown fault {name!r}; known: {known}")
        if not sep:
            raise FaultSpecError(f"fault {name!r} needs =values, got {term!r}")
        terms.append(table[name](value.strip()))
    return built


def parse_fault_spec(spec: str) -> List[FaultModel]:
    """Build a fresh model pipeline from a spec string.

    Raises :class:`FaultSpecError` for unknown terms or bad values;
    an empty/whitespace spec yields an empty pipeline.
    """
    (models,) = _parse_terms(spec, _MAKERS)
    return models


#: Named mixes the fault matrix and the chaos CI job sweep.  The "ge10"
#: entries run the acceptance scenario: ~10% bursty loss plus
#: reordering and duplication.
STANDARD_MIXES: Sequence = (
    ("clean", ""),
    ("iid5", "loss=0.05"),
    ("ge10", "ge=0.05:0.45,reorder=0.02:0.005,dup=0.02"),
    ("chaos", "ge=0.05:0.45,reorder=0.05:0.005,dup=0.05,corrupt=0.02"),
)
