"""Read counts out of the telemetry registry for test assertions."""

from __future__ import annotations

from typing import Any, Dict, Union

from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import _family_total


def family_sum(
    source: Union[MetricsRegistry, Dict[str, Any]],
    name: str,
    field: str = "value",
    **labels: str,
) -> float:
    """Sum of a family's samples whose labels include ``labels``.

    ``source`` is a registry or one of its snapshots (``telemetry()``).
    ``field`` is ``value`` for counters and gauges, ``sum`` or ``count``
    for histograms.  A family nothing has declared yet sums to 0.
    """
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) else source
    return _family_total(snapshot, name, field, **labels)
