"""Engine counters, backed by the observability metrics registry.

Historically this was a standalone dataclass of ad-hoc counters.  It is now
a *facade* over a :class:`repro.obs.metrics.MetricsRegistry` — the same
numbers are readable under ``engine.*`` names through
``engine.obs.registry`` (and therefore the ``repro metrics`` CLI) — while
the original attribute API (``metrics.instances_started += 1``,
``metrics.snapshot()``) keeps working unchanged.
"""

from __future__ import annotations

from repro.obs.metrics import Counter, MetricsRegistry

_NODE_PREFIX = "engine.nodes_executed."


def _counter_property(metric_name: str):
    def _get(self: "EngineMetrics") -> int:
        return self._bind(metric_name).value

    def _set(self: "EngineMetrics", value: int) -> None:
        self._bind(metric_name).value = value

    return property(_get, _set)


class EngineMetrics:
    """Monotone counters over one engine's lifetime (registry-backed).

    Each counter is looked up in the registry on first use and bound
    from then on; node counters are bumped on every node execution.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._bound: dict[str, Counter] = {}
        self._node_counters: dict[str, Counter] = {}

    def _bind(self, metric_name: str) -> Counter:
        counter = self._bound.get(metric_name)
        if counter is None:
            counter = self._bound[metric_name] = self.registry.counter(metric_name)
        return counter

    instances_started = _counter_property("engine.instances_started")
    instances_completed = _counter_property("engine.instances_completed")
    instances_failed = _counter_property("engine.instances_failed")
    instances_terminated = _counter_property("engine.instances_terminated")
    timers_fired = _counter_property("engine.timers_fired")
    messages_delivered = _counter_property("engine.messages_delivered")
    migrations = _counter_property("engine.migrations")

    def count_node(self, type_name: str) -> None:
        counter = self._node_counters.get(type_name)
        if counter is None:
            counter = self._node_counters[type_name] = self.registry.counter(
                _NODE_PREFIX + type_name
            )
        counter.value += 1

    @property
    def nodes_executed(self) -> dict[str, int]:
        """Execution count per node type name (fresh copy)."""
        return self.registry.counters_with_prefix(_NODE_PREFIX)

    @property
    def total_nodes_executed(self) -> int:
        return sum(self.nodes_executed.values())

    @property
    def instances_finished(self) -> int:
        return (
            self.instances_completed
            + self.instances_failed
            + self.instances_terminated
        )

    def snapshot(self) -> dict[str, object]:
        """A JSON-safe copy for dashboards (legacy key set, unchanged)."""
        return {
            "instances_started": self.instances_started,
            "instances_completed": self.instances_completed,
            "instances_failed": self.instances_failed,
            "instances_terminated": self.instances_terminated,
            "nodes_executed": self.nodes_executed,
            "timers_fired": self.timers_fired,
            "messages_delivered": self.messages_delivered,
            "migrations": self.migrations,
        }
