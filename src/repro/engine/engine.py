"""The process engine: deployment, instances, timers, messages, recovery.

Typical wiring::

    engine = ProcessEngine()                  # volatile, wall clock
    engine.services.register("charge", charge_card)
    engine.organization.add("ana", roles=["clerk"])
    engine.deploy(model)
    instance = engine.start_instance("order", {"amount": 120})

For durability pass a :class:`~repro.storage.kvstore.DurableKV`; after a
crash, construct an engine over the same store (with services re-registered
— code is not persisted, state is) and call :meth:`ProcessEngine.recover`.

Persistence is incremental: every flush writes only the records that
changed since the last one (``instance/<id>``, ``jobs/<id>``,
``workitem/<id>``, ``dispatch/<seq>``), and the commit policy decides when
flushes happen — per call (default), every ``commit_interval`` records, or
once per :meth:`ProcessEngine.batch` block (group commit for bulk traffic).

Every public mutation is a typed :class:`~repro.engine.commands.Command`
executed through :meth:`ProcessEngine.dispatch` — one path carrying the
serialization gate (thread safety), idempotent dedup keys, observability,
the dispatch log, and the commit policy.  The public methods below are
thin command constructors; node semantics live in
:mod:`repro.engine.executors` and the interpreter core in
:mod:`repro.engine.execution`.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.clock import Clock, VirtualClock, WallClock
from repro.engine import commands as cmds
from repro.engine import execution as core
from repro.engine import executors as _executors  # noqa: F401 - registry load
from repro.engine.commands import Command
from repro.engine.dispatch import Dispatcher
from repro.engine.errors import (
    DefinitionNotFoundError,
    EngineError,
    IllegalInstanceStateError,
    InstanceNotFoundError,
)
from repro.engine.executors.subprocesses import on_mi_child_finished
from repro.engine.executors.tasks import perform_service_invocation
from repro.engine.instance import InstanceState, ProcessInstance, TokenState
from repro.engine.jobs import JobScheduler
from repro.engine.metrics import EngineMetrics
from repro.engine.migration import MigrationPlan, apply_migration
from repro.engine.waits import MessageWait, MessageWaits
from repro.history.audit import HistoryService
from repro.history.events import EventTypes
from repro.model.process import ProcessDefinition
from repro.model.serialization import definition_from_dict, definition_to_dict
from repro.obs import Observability
from repro.obs.spans import Span
from repro.services.bus import Message, MessageBus
from repro.services.invoker import ServiceInvoker
from repro.services.registry import ServiceRegistry
from repro.storage.kvstore import KeyValueStore, MemoryKV
from repro.views.manager import ProjectionManager
from repro.worklist.allocation import Allocator
from repro.worklist.items import WorkItem
from repro.worklist.resources import OrganizationalModel
from repro.worklist.service import WorklistService


class ProcessEngine:
    """The workflow enactment service."""

    def __init__(
        self,
        clock: Clock | None = None,
        store: KeyValueStore | None = None,
        history: HistoryService | None = None,
        organization: OrganizationalModel | None = None,
        allocator: Allocator | None = None,
        services: ServiceRegistry | None = None,
        bus: MessageBus | None = None,
        verify_soundness: bool = False,
        soundness_max_states: int = 50_000,
        max_steps: int = 100_000,
        obs: Observability | None = None,
        strict_references: bool = False,
        commit_interval: int = 1,
        dispatch_log_retention: int = 256,
        shard_tag: str = "",
        views: bool = True,
        views_flush_lag: int | None = None,
    ) -> None:
        """``commit_interval`` sets the durable commit policy: ``1``
        (default) flushes dirty state after every public API call
        (autocommit); ``n > 1`` defers until at least ``n`` dirty records
        accumulate — call :meth:`flush` (or use :meth:`batch`) to force a
        commit earlier.  ``dispatch_log_retention`` bounds the persisted
        command log and with it the idempotency (dedup-key) window.
        ``shard_tag`` (e.g. ``"s2"``, set by the cluster layer) namespaces
        generated instance and work-item ids (``order-s2-7``, ``wi-s2-3``)
        so several engines can coexist without id collisions.  ``views``
        maintains the materialized read models of :mod:`repro.views`
        write-behind: commits note dirty entity ids, reads materialize
        them, and the ``view/<name>/…`` records persist inside the first
        group commit after the stored image lags ``views_flush_lag``
        dispatch seqs (default: retention/4, always within the
        tail-replay window) — forced flushes persist unconditionally.
        Pass ``views=False`` to opt out — recovery rebuilds the records
        on re-enable.  See DESIGN.md §Persistence & commit policies,
        §Command pipeline, and §Read models."""
        # `is None` checks throughout: several of these are container-like
        # (empty store/org would be falsy under `or`)
        self.clock = clock if clock is not None else WallClock()
        self.obs = obs if obs is not None else Observability()
        self.obs.bind_clock(self.clock)
        self.store = store if store is not None else MemoryKV()
        self.history = (
            history if history is not None else HistoryService(clock=self.clock)
        )
        self.organization = (
            organization if organization is not None else OrganizationalModel()
        )
        self.services = services if services is not None else ServiceRegistry()
        self.bus = bus if bus is not None else MessageBus()
        self.verify_soundness = verify_soundness
        self.soundness_max_states = soundness_max_states
        self.max_steps = max_steps
        self.strict_references = strict_references
        self.shard_tag = shard_tag
        self._id_ns = f"{shard_tag}-" if shard_tag else ""

        from repro.decisions.table import DecisionRegistry

        self.decisions = DecisionRegistry()
        self.metrics = EngineMetrics(self.obs.registry)
        self.scheduler = JobScheduler()
        self.worklist = WorklistService(
            organization=self.organization,
            allocator=allocator,
            clock=self.clock,
            history=self.history,
            obs=self.obs,
            id_namespace=shard_tag,
        )
        self.worklist.on_completion(self._on_work_item_completed)
        self.invoker = ServiceInvoker(self.services, clock=self.clock, obs=self.obs)
        self.bus.subscribe(self._on_bus_message)
        # observability wiring: cached instruments for the hot loop, the
        # engine root span, and per-instance spans (ended on finish)
        self._tracer = self.obs.tracer  # hot-loop alias
        self._c_token_moves = self.obs.registry.counter("engine.token_moves")
        self._c_lint_warnings = self.obs.registry.counter("engine.lint.warnings")
        self._c_lint_blocked = self.obs.registry.counter(
            "engine.lint.deploy_blocked"
        )
        self._c_interproc_warnings = self.obs.registry.counter(
            "engine.lint.interproc_warnings"
        )
        self._c_interproc_blocked = self.obs.registry.counter(
            "engine.lint.interproc_blocked"
        )
        # created lazily on first deploy (keeps repro.analysis off the
        # import path of engine construction)
        self._analysis_cache: Any | None = None
        self._g_queue_depth = self.obs.registry.gauge("engine.scheduler.queue_depth")
        self._c_jobs_orphaned = self.obs.registry.counter("engine.jobs.orphaned")
        self._c_flush_commits = self.obs.registry.counter("engine.flush.commits")
        self._c_flush_records = self.obs.registry.counter(
            "engine.flush.records_written"
        )
        self._h_flush_batch = self.obs.registry.histogram(
            "engine.flush.batch_records",
            (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0),
        )
        self._c_commands = self.obs.registry.counter("engine.commands.dispatched")
        self._c_commands_deduped = self.obs.registry.counter(
            "engine.commands.deduped"
        )
        self._c_inv_enqueued = self.obs.registry.counter("workers.enqueued")
        self._c_inv_completed = self.obs.registry.counter("workers.completed")
        self._c_inv_duplicates = self.obs.registry.counter(
            "workers.duplicate_completions"
        )
        self._c_inv_cancelled = self.obs.registry.counter("workers.cancelled")
        self._c_inv_requeued = self.obs.registry.counter("workers.requeued")
        self._c_compensations = self.obs.registry.counter("engine.compensations")
        self._g_dead_letters = self.obs.registry.gauge("workers.dead_letters")
        self._command_counters: dict[str, Any] = {}
        self._instance_spans: dict[str, Span] = {}
        self._engine_span: Span | None = (
            self.obs.tracer.start_span("engine") if self.obs.enabled else None
        )

        self._definitions: dict[str, ProcessDefinition] = {}
        self._latest_version: dict[str, int] = {}
        self._instances: dict[str, ProcessInstance] = {}
        self._message_waits = MessageWaits()
        self._reach_cache: dict[str, dict[tuple[str, str], bool]] = {}
        self._instance_seq = 0
        self._dirty: set[str] = set()
        self._advancing: set[str] = set()
        # secondary indexes: instance ids by state and by business key,
        # maintained solely by _register_instance/_set_instance_state so
        # instances(state=...) / find_instances need not scan linearly
        self._by_state: dict[InstanceState, dict[str, None]] = {
            state: {} for state in InstanceState
        }
        self._by_business_key: dict[str, dict[str, None]] = {}
        self._creation_order: dict[str, int] = {}
        # incremental-persistence bookkeeping: the commit policy, the
        # batch() nesting depth, and the last instance_seq written to
        # engine/meta (message waits track their own changes)
        self._commit_interval = max(1, int(commit_interval))
        self._batch_depth = 0
        self._persisted_seq = 0
        # asynchronous service execution (see repro.workers): the pending-
        # invocation table is the at-least-once ledger — records are
        # persisted in the same group commit as the enqueueing dispatch,
        # handed to the pool only after that commit, and removed in the
        # same commit as their completion.  Dead letters are invocations
        # whose retries exhausted; per-service enqueued/completed counters
        # back the workers_status() invariant.
        self.workers = None  # type: Any
        self._invocations: dict[str, Any] = {}
        self._invocations_dirty: set[str] = set()
        self._invocations_removed: set[str] = set()
        self._invocations_to_submit: list[str] = []
        self._dead_letters: dict[str, dict[str, Any]] = {}
        self._dead_letters_dirty: set[str] = set()
        self._dead_letters_removed: set[str] = set()
        self._invocation_seq = 0
        self._persisted_invocation_seq = 0
        self._inv_enqueued: dict[str, int] = {}
        self._inv_completed: dict[str, int] = {}
        # cross-shard forwarding outbox (see repro.cluster.outbox): records
        # a forwarder claims under this shard's dispatch lock, persisted in
        # the same group commit as the claiming dispatch and deleted only
        # after the target shard's delivery flushed.  The sequence is
        # persisted in engine/meta because records are removed after drain
        # — a restart must never re-mint a fwd:<origin>:<seq> key that may
        # still sit in a target's dedup window.
        self._outbox: dict[int, Any] = {}
        self._outbox_dirty: set[int] = set()
        self._outbox_removed: set[int] = set()
        self._outbox_seq = 0
        self._persisted_outbox_seq = 0
        # the command pipeline: a single re-entrant serialization gate
        # shared with the worklist and the bus, the idempotency window,
        # and the bounded persisted dispatch log
        self._dispatch_lock = threading.RLock()
        self.worklist.bind_lock(self._dispatch_lock)
        self.bus.bind_lock(self._dispatch_lock)
        self._dedup: dict[str, dict[str, Any]] = {}
        self._dispatch_log: list[dict[str, Any]] = []
        self._dispatch_seq = 0
        self._dispatch_log_retention = max(1, int(dispatch_log_retention))
        self._dispatch_dirty: set[int] = set()
        self._dispatch_removed: set[int] = set()
        self._dispatcher = Dispatcher(
            self, handlers=self._command_handlers(), lock=self._dispatch_lock
        )
        # the CQRS read side (repro.views): write-behind materialized
        # projections whose records persist inside the same store
        # transaction as a group commit, so the read models are never
        # ahead of durable state; the persist cadence is bounded by the
        # tail-replay window (recovery re-applies the stamped log tail)
        self.views: ProjectionManager | None = (
            ProjectionManager(obs=self.obs) if views else None
        )
        self._views_flush_lag = (
            max(1, self._dispatch_log_retention // 4)
            if views_flush_lag is None
            else max(1, int(views_flush_lag))
        )

    # -- the command pipeline --------------------------------------------------

    def dispatch(self, command: Command) -> Any:
        """Execute a typed command through the middleware pipeline.

        This is the single mutation path: serialization gate →
        idempotency → observability → commit policy → dispatch log →
        handler.  All public mutation methods below delegate here.
        """
        return self._dispatcher.dispatch(command)

    def _command_handlers(self) -> dict[type[Command], Callable[[Any], Any]]:
        return {
            cmds.DeployDefinition: self._handle_deploy,
            cmds.StartInstance: self._handle_start_instance,
            cmds.TerminateInstance: self._handle_terminate_instance,
            cmds.CompensateInstance: self._handle_compensate_instance,
            cmds.SuspendInstance: self._handle_suspend_instance,
            cmds.ResumeInstance: self._handle_resume_instance,
            cmds.MigrateInstance: self._handle_migrate_instance,
            cmds.ClaimWorkItem: self._handle_claim_work_item,
            cmds.StartWorkItem: self._handle_start_work_item,
            cmds.CompleteWorkItem: self._handle_complete_work_item,
            cmds.CorrelateMessage: self._handle_correlate_message,
            cmds.RunDueJobs: self._handle_run_due_jobs,
            cmds.AdvanceTime: self._handle_advance_time,
            cmds.CompleteServiceInvocation: self._handle_complete_invocation,
            cmds.RequeueDeadLetter: self._handle_requeue_dead_letter,
        }

    def _append_dispatch_record(self, record: dict[str, Any]) -> None:
        """Assign the next sequence number and store the log entry.

        The log is bounded by ``dispatch_log_retention``: pruned entries
        are deleted from the store on the next flush, and dedup keys
        whose recording entry fell out of the window are evicted — the
        idempotency guarantee holds within the retention window.
        """
        self._dispatch_seq += 1
        record["seq"] = self._dispatch_seq
        self._dispatch_log.append(record)
        self._dispatch_dirty.add(record["seq"])
        while len(self._dispatch_log) > self._dispatch_log_retention:
            old = self._dispatch_log.pop(0)
            seq = old["seq"]
            if seq in self._dispatch_dirty:
                self._dispatch_dirty.discard(seq)  # never reached the store
            else:
                self._dispatch_removed.add(seq)
            key = old.get("dedup_key")
            if key is not None:
                hit = self._dedup.get(key)
                if hit is not None and hit.get("seq") == seq:
                    del self._dedup[key]

    def _has_pending_dirty(self) -> bool:
        """Whether any state changed since the last flush (log trigger)."""
        if self._dirty or self._message_waits.has_changes:
            return True
        if self._instance_seq != self._persisted_seq:
            return True
        if self._invocation_seq != self._persisted_invocation_seq:
            return True
        if self._invocations_dirty or self._invocations_removed:
            return True
        if self._dead_letters_dirty or self._dead_letters_removed:
            return True
        if self._outbox_dirty or self._outbox_removed:
            return True
        if self._outbox_seq != self._persisted_outbox_seq:
            return True
        dirty_jobs, removed_jobs = self.scheduler.pending_changes()
        if dirty_jobs or removed_jobs:
            return True
        return bool(self.worklist.dirty_item_ids())

    def dispatch_history(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Recent dispatch-log entries, oldest first (``repro commands``)."""
        log = list(self._dispatch_log)
        if limit is not None and limit >= 0:
            log = log[len(log) - min(limit, len(log)):]
        return log

    # -- deployment -----------------------------------------------------------

    def deploy(
        self,
        definition: ProcessDefinition,
        verify: bool | None = None,
        force: bool = False,
    ) -> str:
        """Deploy a definition; returns its ``key:version`` identifier.

        The full static analysis (:func:`repro.analysis.analyze`) always
        runs.  Structural errors block deployment; behavioural errors
        (deadlock, lack of synchronization, ...) block when ``verify``
        (or the engine-wide ``verify_soundness``) is true.  Unresolved
        references (services, roles, decisions) block only for engines
        constructed with ``strict_references=True`` — otherwise they are
        warnings, since registration order is a legitimate workflow.
        ``force=True`` deploys despite errors (they are still recorded).
        Every non-info finding is emitted as a ``lint.diagnostic``
        observability event.
        """
        return self.dispatch(
            cmds.DeployDefinition(definition=definition, verify=verify, force=force)
        )

    def _handle_deploy(self, cmd: cmds.DeployDefinition) -> str:
        from repro.analysis import AnalysisContext, Severity, analyze

        definition = cmd.definition
        if cmd.pre_verified:
            return self._register_deployment(definition)
        behavioral = cmd.verify if cmd.verify is not None else self.verify_soundness
        overrides = None
        if not self.strict_references:
            overrides = {
                rule_id: Severity.WARNING
                for rule_id in ("REF001", "REF002", "REF003", "REF004")
            }
        report = analyze(
            definition,
            context=AnalysisContext.from_engine(self),
            behavioral=behavioral,
            max_states=self.soundness_max_states,
            severity_overrides=overrides,
        )
        for diagnostic in report.diagnostics:
            if diagnostic.severity is Severity.INFO:
                continue
            self.obs.event(
                "lint.diagnostic",
                process=definition.key,
                rule=diagnostic.rule,
                severity=diagnostic.severity.value,
                element=diagnostic.element_id,
                message=diagnostic.message,
            )
        self._c_lint_warnings.inc(len(report.warnings))
        interproc = self._interproc_findings(definition)
        for diagnostic in interproc:
            if diagnostic.severity is Severity.INFO:
                continue
            self.obs.event(
                "lint.interproc",
                process=definition.key,
                rule=diagnostic.rule,
                severity=diagnostic.severity.value,
                element=diagnostic.element_id,
                message=diagnostic.message,
            )
        self._c_interproc_warnings.inc(
            sum(1 for d in interproc if d.severity is Severity.WARNING)
        )
        if not report.ok:
            behavioural_rules = {"SND001", "SND002", "SND003", "SND005"}
            structural = [
                d for d in report.errors if d.rule not in behavioural_rules
            ]
            errors = structural if structural else report.errors
            kind = "invalid" if structural else "unsound"
            if not cmd.force:
                self._c_lint_blocked.inc()
                raise EngineError(
                    f"definition {definition.key!r} {kind}: "
                    + "; ".join(
                        f"[{d.rule}] {d.element_id}: {d.message}" for d in errors
                    )
                )
        interproc_errors = [
            d for d in interproc if d.severity is Severity.ERROR
        ]
        if interproc_errors and not cmd.force:
            self._c_interproc_blocked.inc()
            raise EngineError(
                f"definition {definition.key!r} breaks the deployment: "
                + "; ".join(
                    f"[{d.rule}] {d.element_id}: {d.message}"
                    for d in interproc_errors
                )
            )
        return self._register_deployment(definition)

    def _interproc_findings(self, definition: ProcessDefinition) -> list:
        """Deployment-wide findings (MSG*/CALL*) for a deploy candidate.

        The candidate is checked against the latest version of every other
        deployed definition.  Results are memoized in an
        :class:`~repro.analysis.cache.AnalysisCache` keyed on the
        candidate's content hash plus the registry's interface
        fingerprint, so redeploys and interface-neutral edits skip the
        graph walk.  Unless ``strict_references``, CALL001 (call target
        not deployed) is downgraded to a warning — deploy order is a
        legitimate workflow, mirroring REF004.
        """
        from dataclasses import replace as _replace

        from repro.analysis import (
            AnalysisCache,
            DeploymentGraph,
            Severity,
            interproc_pass,
        )
        from repro.analysis import _apply_suppressions, _with_provenance

        if self._analysis_cache is None:
            self._analysis_cache = AnalysisCache()
        cache = self._analysis_cache
        snapshot = [
            self._definitions[f"{key}:{version}"]
            for key, version in self._latest_version.items()
            if key != definition.key
        ]
        snapshot.append(definition)
        interfaces = {d.key: cache.interface(d) for d in snapshot}
        graph = DeploymentGraph.build(snapshot, interfaces=interfaces)
        cache_key = cache.interproc_key(definition, graph.fingerprint())
        raw = cache.get_interproc(cache_key)
        if raw is None:
            raw = interproc_pass(definition, graph)
            cache.put_interproc(cache_key, raw)
        if not self.strict_references:
            raw = [
                _replace(d, severity=Severity.WARNING)
                if d.rule == "CALL001" and d.severity is Severity.ERROR
                else d
                for d in raw
            ]
        decorated = [_with_provenance(definition, d) for d in raw]
        kept, _suppressed = _apply_suppressions(definition, decorated)
        return kept

    def _register_deployment(self, definition: ProcessDefinition) -> str:
        version = self._latest_version.get(definition.key, 0) + 1
        deployed = definition.with_version(version)
        self._definitions[deployed.identifier] = deployed
        self._latest_version[definition.key] = version
        self.store.put(
            f"definition/{deployed.identifier}", definition_to_dict(deployed)
        )
        self.store.put("engine/latest_versions", dict(self._latest_version))
        self.history.record(
            HistoryService.ENGINE_STREAM,
            EventTypes.DEFINITION_DEPLOYED,
            definition_id=deployed.identifier,
        )
        return deployed.identifier

    def definition(self, key: str, version: int | None = None) -> ProcessDefinition:
        """Look up a deployed definition (latest version by default)."""
        if version is None:
            version = self._latest_version.get(key, 0)
        identifier = f"{key}:{version}"
        try:
            return self._definitions[identifier]
        except KeyError:
            raise DefinitionNotFoundError(
                f"no deployed definition {identifier!r}"
            ) from None

    def definitions(self) -> list[ProcessDefinition]:
        """All deployed definitions, sorted by identifier."""
        return [self._definitions[k] for k in sorted(self._definitions)]

    def _definition_of(self, instance: ProcessInstance) -> ProcessDefinition:
        try:
            return self._definitions[instance.definition_id]
        except KeyError:
            raise DefinitionNotFoundError(
                f"instance {instance.id!r} references missing definition "
                f"{instance.definition_id!r}"
            ) from None

    # -- history plumbing ------------------------------------------------------

    def _record(self, instance: ProcessInstance, event_type: str, **data: Any) -> None:
        self.history.record(instance.id, event_type, **data)

    # -- instances -------------------------------------------------------------

    def start_instance(
        self,
        key: str,
        variables: dict[str, Any] | None = None,
        business_key: str | None = None,
        version: int | None = None,
        dedup_key: str | None = None,
    ) -> ProcessInstance:
        """Create and advance a new instance of a deployed definition."""
        return self.dispatch(
            cmds.StartInstance(
                key=key,
                variables=dict(variables or {}),
                business_key=business_key,
                version=version,
                dedup_key=dedup_key,
            )
        )

    def _handle_start_instance(self, cmd: cmds.StartInstance) -> ProcessInstance:
        return self._start_instance_internal(
            key=cmd.key,
            version=cmd.version,
            variables=dict(cmd.variables),
            business_key=cmd.business_key,
            parent_instance_id=None,
            parent_token_id=None,
        )

    def _start_instance_internal(
        self,
        key: str,
        version: int | None,
        variables: dict[str, Any],
        business_key: str | None,
        parent_instance_id: str | None,
        parent_token_id: int | None,
    ) -> ProcessInstance:
        definition = self.definition(key, version)
        starts = definition.start_events()
        if len(starts) != 1:
            raise EngineError(f"definition {key!r} needs exactly one start event")
        self._instance_seq += 1
        instance = ProcessInstance(
            id=f"{key}-{self._id_ns}{self._instance_seq}",
            definition_id=definition.identifier,
            business_key=business_key,
            variables=variables,
            created_at=self.clock.now(),
            parent_instance_id=parent_instance_id,
            parent_token_id=parent_token_id,
        )
        self._register_instance(instance, self._instance_seq)
        instance.new_token(starts[0].id)
        self.metrics.instances_started += 1
        if self.obs.enabled:
            tracer = self.obs.tracer
            self._instance_spans[instance.id] = tracer.start_span(
                "instance",
                parent=tracer.current() or self._engine_span,
                instance_id=instance.id,
                definition_id=definition.identifier,
            )
        self._record(
            instance,
            EventTypes.INSTANCE_STARTED,
            definition_id=definition.identifier,
            business_key=business_key,
            parent=parent_instance_id,
        )
        core.advance(self, instance)
        return instance

    # -- secondary indexes ------------------------------------------------------

    def _register_instance(self, instance: ProcessInstance, rank: int) -> None:
        """Add an instance to the primary map and the secondary indexes."""
        self._instances[instance.id] = instance
        self._creation_order[instance.id] = rank
        self._by_state[instance.state][instance.id] = None
        if instance.business_key is not None:
            self._by_business_key.setdefault(instance.business_key, {})[
                instance.id
            ] = None

    def _set_instance_state(
        self, instance: ProcessInstance, state: InstanceState
    ) -> None:
        """The single place instance state changes: keeps the index exact."""
        old = instance.state
        if old is state:
            return
        self._by_state[old].pop(instance.id, None)
        instance.state = state
        self._by_state[state][instance.id] = None

    def _in_creation_order(self, instance_ids) -> list[ProcessInstance]:
        order = self._creation_order
        return [
            self._instances[instance_id]
            for instance_id in sorted(instance_ids, key=lambda i: order.get(i, 0))
        ]

    def instance(self, instance_id: str) -> ProcessInstance:
        """Look up an instance; raises :class:`InstanceNotFoundError`."""
        try:
            return self._instances[instance_id]
        except KeyError:
            raise InstanceNotFoundError(f"unknown instance {instance_id!r}") from None

    def instances(self, state: InstanceState | None = None) -> list[ProcessInstance]:
        """All instances (optionally filtered by state), in creation order."""
        if state is None:
            return list(self._instances.values())
        return self._in_creation_order(self._by_state[state])

    def find_instances(
        self,
        state: InstanceState | None = None,
        definition_key: str | None = None,
        business_key: str | None = None,
        where: dict[str, Any] | None = None,
        waiting_at: str | None = None,
    ) -> list[ProcessInstance]:
        """Query instances by state, definition, business key, variable
        equality (``where``), and/or the node a token is parked at.

        Backed by the secondary indexes: a ``business_key`` or ``state``
        filter narrows to the matching index bucket instead of scanning
        every instance; the remaining predicates apply to that bucket.

        >>> # engine.find_instances(business_key="ORD-7",
        >>> #                       where={"priority": "high"})
        """
        if business_key is not None:
            candidates = self._in_creation_order(
                self._by_business_key.get(business_key, ())
            )
        elif state is not None:
            candidates = self._in_creation_order(self._by_state[state])
        else:
            candidates = list(self._instances.values())
        results = []
        for instance in candidates:
            if state is not None and instance.state is not state:
                continue
            if (
                definition_key is not None
                and instance.definition_key != definition_key
            ):
                continue
            if where is not None and any(
                instance.variables.get(name) != value
                for name, value in where.items()
            ):
                continue
            if waiting_at is not None and not any(
                t.node_id == waiting_at for t in instance.tokens
            ):
                continue
            results.append(instance)
        return results

    # -- instance lifecycle transitions -----------------------------------------

    def _finish_instance_span(self, instance: ProcessInstance, status: str) -> None:
        span = self._instance_spans.pop(instance.id, None)
        if span is not None:
            span.attributes["state"] = instance.state.value
            span.finish(status)

    def _complete_instance(self, instance: ProcessInstance) -> None:
        self.metrics.instances_completed += 1
        self._set_instance_state(instance, InstanceState.COMPLETED)
        instance.ended_at = self.clock.now()
        self._record(instance, EventTypes.INSTANCE_COMPLETED)
        self._finish_instance_span(instance, "ok")
        self._dirty.add(instance.id)
        self._notify_parent(instance)

    def _terminate_instance(self, instance: ProcessInstance, reason: str) -> None:
        self.metrics.instances_terminated += 1
        self._set_instance_state(instance, InstanceState.TERMINATED)
        instance.ended_at = self.clock.now()
        self._record(instance, EventTypes.INSTANCE_TERMINATED, reason=reason)
        self._finish_instance_span(instance, "ok")
        self._dirty.add(instance.id)
        self._notify_parent(instance)

    def _terminate_instance_internal(
        self, instance: ProcessInstance, reason: str
    ) -> None:
        for token in list(instance.tokens):
            core.cancel_token(self, instance, token, reason=reason)
        self._terminate_instance(instance, reason)

    def _fail_instance(self, instance: ProcessInstance, reason: str) -> None:
        self.metrics.instances_failed += 1
        self._set_instance_state(instance, InstanceState.FAILED)
        instance.ended_at = self.clock.now()
        instance.failure = reason
        self._record(instance, EventTypes.INSTANCE_FAILED, reason=reason)
        self._finish_instance_span(instance, "error")
        self._dirty.add(instance.id)
        self._notify_parent(instance, failed=True)

    def _notify_parent(self, child: ProcessInstance, failed: bool = False) -> None:
        """Resume the parent token waiting on a finished child instance."""
        if child.parent_instance_id is None:
            return
        parent = self._instances.get(child.parent_instance_id)
        if parent is None or parent.state.is_finished:
            return
        token = parent.token(child.parent_token_id)
        if token is None:
            return
        reason = token.waiting_on.get("reason")
        if reason == "mi":
            definition = self._definition_of(parent)
            node = definition.node(token.node_id)
            on_mi_child_finished(self, parent, definition, token, node, child, failed)
            return
        if reason != "child":
            return
        definition = self._definition_of(parent)
        node = definition.node(token.node_id)
        core.cancel_boundary_jobs(self, parent, token)
        if failed:
            token.waiting_on = {}
            core.handle_error(
                self,
                parent,
                definition,
                token,
                core.TECHNICAL_ERROR_CODE,
                f"child instance {child.id!r} failed: {child.failure}",
            )
            core.advance(self, parent)
            return
        # map child outputs into parent variables
        from repro.expr import ExpressionError, compile_expression

        mappings = getattr(node, "output_mappings", {})
        try:
            if mappings:
                for name, expr in mappings.items():
                    parent.variables[name] = compile_expression(expr).evaluate(
                        child.variables
                    )
            else:
                parent.variables.update(child.variables)
        except ExpressionError as exc:
            token.waiting_on = {}
            core.handle_error(
                self, parent, definition, token, core.TECHNICAL_ERROR_CODE, str(exc)
            )
            core.advance(self, parent)
            return
        self._record(
            parent,
            EventTypes.NODE_COMPLETED,
            node_id=node.id,
            is_activity=True,
            child_id=child.id,
        )
        flow = core.single_outgoing(definition, node)
        token.resume(flow.target, arrived_via=flow.id)
        core.advance(self, parent)

    def terminate_instance(
        self,
        instance_id: str,
        reason: str = "user request",
        dedup_key: str | None = None,
    ) -> None:
        """Administratively cancel a running instance."""
        self.dispatch(
            cmds.TerminateInstance(
                instance_id=instance_id, reason=reason, dedup_key=dedup_key
            )
        )

    def _handle_terminate_instance(self, cmd: cmds.TerminateInstance) -> None:
        instance = self.instance(cmd.instance_id)
        if instance.state.is_finished:
            raise IllegalInstanceStateError(
                f"instance {cmd.instance_id!r} already {instance.state.value}"
            )
        self._terminate_instance_internal(instance, cmd.reason)

    def compensate_instance(
        self, instance_id: str, dedup_key: str | None = None
    ) -> dict[str, Any]:
        """Run the instance's compensation handlers in reverse order (saga)."""
        result = self.dispatch(
            cmds.CompensateInstance(instance_id=instance_id, dedup_key=dedup_key)
        )
        return result  # type: ignore[no-any-return]

    def _handle_compensate_instance(
        self, cmd: cmds.CompensateInstance
    ) -> dict[str, Any]:
        from repro.engine.executors.compensation import run_compensation

        instance = self.instance(cmd.instance_id)
        if instance.state is InstanceState.RUNNING:
            raise IllegalInstanceStateError(
                f"cannot compensate running instance {cmd.instance_id!r}; "
                "terminate or let it finish first"
            )
        definition = self._definition_of(instance)
        compensated = run_compensation(self, instance, definition)
        self._c_compensations.inc(len(compensated))
        return {
            "instance_id": instance.id,
            "compensated": compensated,
            "pending": len(instance.compensations),
        }

    def suspend_instance(self, instance_id: str, dedup_key: str | None = None) -> None:
        """Pause an instance: waiting triggers are deferred until resume."""
        self.dispatch(
            cmds.SuspendInstance(instance_id=instance_id, dedup_key=dedup_key)
        )

    def _handle_suspend_instance(self, cmd: cmds.SuspendInstance) -> None:
        instance = self.instance(cmd.instance_id)
        if instance.state is not InstanceState.RUNNING:
            raise IllegalInstanceStateError(
                f"cannot suspend instance in state {instance.state.value}"
            )
        self._set_instance_state(instance, InstanceState.SUSPENDED)
        self._record(instance, EventTypes.INSTANCE_SUSPENDED)
        self._dirty.add(instance.id)

    def resume_instance(self, instance_id: str, dedup_key: str | None = None) -> None:
        """Resume a suspended instance and advance it."""
        self.dispatch(
            cmds.ResumeInstance(instance_id=instance_id, dedup_key=dedup_key)
        )

    def _handle_resume_instance(self, cmd: cmds.ResumeInstance) -> None:
        instance = self.instance(cmd.instance_id)
        if instance.state is not InstanceState.SUSPENDED:
            raise IllegalInstanceStateError(
                f"cannot resume instance in state {instance.state.value}"
            )
        self._set_instance_state(instance, InstanceState.RUNNING)
        self._record(instance, EventTypes.INSTANCE_RESUMED)
        self._dirty.add(instance.id)
        core.advance(self, instance)
        self._redeliver_retained(instance)

    # -- work items -------------------------------------------------------------

    def claim_work_item(
        self, item_id: str, resource_id: str, dedup_key: str | None = None
    ) -> WorkItem:
        """A resource pulls an offered item from its role queue."""
        return self.dispatch(
            cmds.ClaimWorkItem(
                item_id=item_id, resource_id=resource_id, dedup_key=dedup_key
            )
        )

    def _handle_claim_work_item(self, cmd: cmds.ClaimWorkItem) -> WorkItem:
        return self.worklist.claim(cmd.item_id, cmd.resource_id)

    def start_work_item(self, item_id: str, dedup_key: str | None = None) -> WorkItem:
        """The allocated resource begins work on an item."""
        return self.dispatch(cmds.StartWorkItem(item_id=item_id, dedup_key=dedup_key))

    def _handle_start_work_item(self, cmd: cmds.StartWorkItem) -> WorkItem:
        return self.worklist.start(cmd.item_id)

    def complete_work_item(
        self,
        item_id: str,
        result: dict[str, Any] | None = None,
        dedup_key: str | None = None,
    ) -> WorkItem:
        """Complete a started work item; the owning token advances."""
        return self.dispatch(
            cmds.CompleteWorkItem(
                item_id=item_id, result=dict(result or {}), dedup_key=dedup_key
            )
        )

    def _handle_complete_work_item(self, cmd: cmds.CompleteWorkItem) -> WorkItem:
        return self.worklist.complete(cmd.item_id, dict(cmd.result))

    def _on_work_item_completed(self, item: WorkItem) -> None:
        instance = self._instances.get(item.instance_id)
        if instance is None or instance.state.is_finished:
            return
        token = instance.token(item.data.get("token_id"))
        if token is None or token.waiting_on.get("work_item_id") != item.id:
            return
        definition = self._definition_of(instance)
        node = definition.node(token.node_id)
        core.cancel_boundary_jobs(self, instance, token)
        if item.result:
            instance.variables.update(item.result)
            self._record(
                instance,
                EventTypes.VARIABLES_UPDATED,
                node_id=node.id,
                keys=sorted(item.result.keys()),
            )
        self._record(
            instance,
            EventTypes.NODE_COMPLETED,
            node_id=node.id,
            is_activity=True,
            resource=item.allocated_to,
        )
        core.record_compensation(self, instance, node)
        flow = core.single_outgoing(definition, node)
        token.resume(flow.target, arrived_via=flow.id)
        if instance.state is InstanceState.RUNNING:
            core.advance(self, instance)
        else:
            self._dirty.add(instance.id)

    # -- timers ------------------------------------------------------------------

    def run_due_jobs(self) -> int:
        """Fire every due job; returns the number processed.

        Jobs whose instance is suspended are *deferred* (re-queued with
        their original due time) so they fire after the instance resumes.
        Jobs whose instance no longer exists are dropped — counted under
        ``engine.jobs.orphaned``, not in the returned total.
        """
        return self.dispatch(cmds.RunDueJobs())

    def _handle_run_due_jobs(self, cmd: cmds.RunDueJobs) -> int:
        processed = 0
        deferred: list = []
        while True:
            due = self.scheduler.due_jobs(self.clock.now())
            if not due:
                break
            for job in due:
                instance = self._instances.get(job.instance_id)
                if instance is None:
                    self._c_jobs_orphaned.inc()
                    continue
                if instance.state is InstanceState.SUSPENDED:
                    deferred.append(job)
                    continue
                processed += 1
                self._dispatch_job(job)
        for job in deferred:
            self.scheduler.schedule(
                job.due, job.kind, job.instance_id, job.data, job_id=job.id
            )
        self.worklist.check_deadlines()
        self._g_queue_depth.set(len(self.scheduler))
        return processed

    def advance_time(self, seconds: float) -> int:
        """Advance a virtual clock and fire everything that became due."""
        return self.dispatch(cmds.AdvanceTime(seconds=seconds))

    def _handle_advance_time(self, cmd: cmds.AdvanceTime) -> int:
        if not isinstance(self.clock, VirtualClock):
            raise EngineError("advance_time requires a VirtualClock")
        self.clock.advance(cmd.seconds)
        # nested dispatch: re-enters the serialization gate (re-entrant
        # lock) and logs at depth 2 — replay tooling skips nested entries
        return self.dispatch(cmds.RunDueJobs())

    def _dispatch_job(self, job) -> None:
        instance = self._instances.get(job.instance_id)
        if instance is None or instance.state is not InstanceState.RUNNING:
            return
        definition = self._definition_of(instance)
        token = instance.token(job.data.get("token_id"))
        if token is None:
            return
        if job.kind == "timer":
            if token.waiting_on.get("job_id") != job.id:
                return
            node = definition.node(job.data["node_id"])
            self.metrics.timers_fired += 1
            self._record(
                instance, EventTypes.TIMER_FIRED, node_id=node.id, job_id=job.id
            )
            token.waiting_on = {}
            core.move_through(
                self, instance, definition, token, node, is_activity=False
            )
            core.advance(self, instance)
        elif job.kind == "boundary_timer":
            boundary = definition.node(job.data["boundary_id"])
            if token.node_id != boundary.attached_to:
                return  # the activity already finished; stale job
            self.metrics.timers_fired += 1
            self._record(
                instance, EventTypes.TIMER_FIRED, node_id=boundary.id, job_id=job.id
            )
            core.trigger_boundary(
                self, instance, definition, boundary, token, detail="boundary timer"
            )
            core.advance(self, instance)
        elif job.kind == "async_service":
            if token.waiting_on.get("job_id") != job.id:
                return
            node = definition.node(job.data["node_id"])
            token.waiting_on = {}
            perform_service_invocation(self, instance, definition, token, node)
            core.advance(self, instance)
        elif job.kind == "event_race_timer":
            if token.waiting_on.get("reason") != "event_race":
                return
            event = definition.node(job.data["event_id"])
            core.settle_race(self, instance, token)
            self.metrics.timers_fired += 1
            self._record(
                instance, EventTypes.TIMER_FIRED, node_id=event.id, job_id=job.id
            )
            core.enter(self, instance, event, is_activity=False)
            core.move_through(
                self, instance, definition, token, event, is_activity=False
            )
            core.advance(self, instance)
        else:
            raise EngineError(f"unknown job kind {job.kind!r}")

    # -- messages ----------------------------------------------------------------

    def correlate_message(
        self,
        name: str,
        correlation: Any = None,
        payload: dict[str, Any] | None = None,
        dedup_key: str | None = None,
    ) -> Message:
        """Publish a message into the engine's bus (external entry point).

        If a waiting catch matches it is delivered immediately; otherwise
        the message is retained for a future receiver.
        """
        return self.dispatch(
            cmds.CorrelateMessage(
                message_name=name,
                correlation=correlation,
                payload=dict(payload or {}),
                dedup_key=dedup_key,
            )
        )

    def _handle_correlate_message(self, cmd: cmds.CorrelateMessage) -> Message:
        return self.bus.publish(
            cmd.message_name, correlation=cmd.correlation, payload=dict(cmd.payload)
        )

    def message_delivery_probe(self, name: str, correlation: Any = None) -> str:
        """What a publish of (name, correlation) would do on this engine.

        Returns ``"deliver"`` (a running wait matches and would consume it
        now), ``"wait"`` (only a suspended instance subscribes — the
        message should be retained *here* for redelivery on resume), or
        ``"none"``.  Read-only: mirrors :meth:`_on_bus_message` matching
        without its dead-wait cleanup, so the cluster router can pick the
        target shard before publishing anywhere.
        """
        best = "none"
        for wait in self._message_waits.candidates(name, correlation):
            instance = self._instances.get(wait.instance_id)
            if instance is None or instance.state.is_finished:
                continue
            if instance.state is not InstanceState.RUNNING:
                best = "wait"
                continue
            token = instance.token(wait.token_id)
            if token is None or token.state is not TokenState.WAITING:
                continue
            return "deliver"
        return best

    def _on_bus_message(self, message: Message) -> bool:
        waits = self._message_waits
        for wait in waits.candidates(message.name, message.correlation):
            instance = self._instances.get(wait.instance_id)
            if instance is None or instance.state.is_finished:
                waits.discard(wait)
                continue
            if instance.state is not InstanceState.RUNNING:
                # suspended: keep the subscription, let the message be
                # retained for delivery after resume
                continue
            token = instance.token(wait.token_id)
            if token is None or token.state is not TokenState.WAITING:
                waits.discard(wait)
                continue
            self._deliver_to_wait(instance, token, wait, message.payload)
            return True
        return False

    def _deliver_to_wait(
        self,
        instance: ProcessInstance,
        token,
        wait: MessageWait,
        payload: dict[str, Any],
    ) -> None:
        definition = self._definition_of(instance)
        self.metrics.messages_delivered += 1
        if wait.race_event is not None:
            core.deliver_race_message(self, instance, definition, token, wait, payload)
        else:
            self._message_waits.discard(wait)
            node = definition.node(wait.node_id)
            core.apply_message(self, instance, node, payload)
            token.waiting_on = {}
            core.move_through(
                self,
                instance,
                definition,
                token,
                node,
                is_activity=wait.is_activity,
            )
            core.advance(self, instance)

    def _redeliver_retained(self, instance: ProcessInstance) -> None:
        """Match bus-retained messages against this instance's waits
        (used after resume, when deliveries were deferred)."""
        for wait in self._message_waits.of_instance(instance.id):
            token = instance.token(wait.token_id)
            if token is None or token.state is not TokenState.WAITING:
                continue
            message = self.bus.consume_retained(
                wait.name, wait.correlation, wait.match_any
            )
            if message is not None:
                self._deliver_to_wait(instance, token, wait, message.payload)

    # -- migration ---------------------------------------------------------------

    def migrate_instance(
        self,
        instance_id: str,
        target_version: int,
        plan: MigrationPlan | None = None,
        dedup_key: str | None = None,
    ) -> ProcessInstance:
        """Move a running instance to another deployed version.

        See :mod:`repro.engine.migration` for the compatibility rules.
        """
        return self.dispatch(
            cmds.MigrateInstance(
                instance_id=instance_id,
                target_version=target_version,
                node_mapping=dict(plan.node_mapping) if plan is not None else {},
                dedup_key=dedup_key,
            )
        )

    def _handle_migrate_instance(self, cmd: cmds.MigrateInstance) -> ProcessInstance:
        instance = self.instance(cmd.instance_id)
        target = self.definition(instance.definition_key, cmd.target_version)
        apply_migration(self, instance, target, MigrationPlan(dict(cmd.node_mapping)))
        self.metrics.migrations += 1
        self._record(
            instance,
            EventTypes.INSTANCE_MIGRATED,
            to_version=cmd.target_version,
        )
        core.advance(self, instance)
        return instance

    # -- asynchronous service execution (repro.workers) ---------------------------

    def attach_workers(self, pool: Any) -> None:
        """Attach a :class:`~repro.workers.WorkerPool` to this engine.

        From here on, service tasks the pool admits are *enqueued* instead
        of invoked inline (see ``execute_service_task``).  Any pending
        invocations already recovered from the store are submitted now.
        """
        if self.workers is not None and self.workers is not pool:
            raise EngineError("engine already has a worker pool attached")
        self.workers = pool
        pool.bind(self)
        if self._invocations_to_submit:
            self._submit_pending_invocations()

    def _submit_pending_invocations(self) -> None:
        """Hand durably committed invocation records to the pool."""
        pending, self._invocations_to_submit = self._invocations_to_submit, []
        for invocation_id in pending:
            record = self._invocations.get(invocation_id)
            if record is not None:
                self.workers.submit(self, record)

    def _enqueue_invocation(
        self, instance: ProcessInstance, token, node, arguments: dict[str, Any]
    ) -> Any:
        """Register a pending invocation and park the token on it.

        The record is persisted by the surrounding dispatch's group commit
        and submitted to the pool only after that commit (see
        :meth:`_flush`) — at-least-once from the moment the client call
        returns.
        """
        from repro.workers.records import InvocationRecord  # cycle guard

        self._invocation_seq += 1
        invocation_id = f"inv-{self._id_ns}{self._invocation_seq}"
        record = InvocationRecord.for_node(
            invocation_id,
            instance.id,
            token.id,
            node,
            arguments,
            enqueued_at=self.clock.now(),
        )
        self._invocations[invocation_id] = record
        self._invocations_dirty.add(invocation_id)
        self._invocations_removed.discard(invocation_id)
        self._invocations_to_submit.append(invocation_id)
        self._inv_enqueued[node.service] = (
            self._inv_enqueued.get(node.service, 0) + 1
        )
        self._c_inv_enqueued.inc()
        token.wait("service", invocation_id=invocation_id, node_id=node.id)
        self._record(
            instance,
            EventTypes.SERVICE_ENQUEUED,
            node_id=node.id,
            service=node.service,
            invocation_id=invocation_id,
        )
        self._dirty.add(instance.id)
        return record

    def _take_invocation(self, invocation_id: str) -> Any:
        """Resolve a pending record (its deletion joins the next commit)."""
        record = self._invocations.pop(invocation_id, None)
        if record is not None:
            self._invocations_dirty.discard(invocation_id)
            self._invocations_removed.add(invocation_id)
            try:
                self._invocations_to_submit.remove(invocation_id)
            except ValueError:
                pass
        return record

    def _count_completed(self, service: str) -> None:
        self._inv_completed[service] = self._inv_completed.get(service, 0) + 1
        self._c_inv_completed.inc()

    def _drop_invocation(self, invocation_id: str) -> None:
        """Cancel a pending invocation (token released — boundary timer,
        terminate, migration).  A pool execution already in flight turns
        into a stale completion, absorbed as a duplicate."""
        record = self._take_invocation(invocation_id)
        if record is None:
            return
        self._count_completed(record.service)
        self._c_inv_cancelled.inc()

    # -- cross-shard forwarding outbox (repro.cluster) ---------------------------

    def enqueue_outbox_forward(self, message: Message) -> Any:
        """Record a claimed cross-shard forward in this shard's outbox.

        Called by the cluster forwarder *inside* the originating dispatch
        (under this shard's lock), so the record joins the same group
        commit as the publish that produced the message — the forward
        intent is durable before the originating call returns.
        """
        from repro.cluster.outbox import OutboxRecord  # cycle guard

        self._outbox_seq += 1
        record = OutboxRecord(
            seq=self._outbox_seq,
            origin=self.shard_tag,
            name=message.name,
            correlation=message.correlation,
            payload=dict(message.payload),
            created_at=self.clock.now(),
        )
        self._outbox[record.seq] = record
        self._outbox_dirty.add(record.seq)
        self._outbox_removed.discard(record.seq)
        return record

    def outbox_records(self) -> list[Any]:
        """Undrained outbox records, oldest (lowest seq) first."""
        return [self._outbox[seq] for seq in sorted(self._outbox)]

    def remove_outbox_record(self, seq: int) -> None:
        """Delete a drained record (joins the next commit on this shard).

        Only called after the *target* shard's delivery dispatch flushed:
        a crash between that flush and this deletion re-delivers, and the
        target's dedup window absorbs the duplicate.
        """
        if self._outbox.pop(seq, None) is not None:
            self._outbox_dirty.discard(seq)
            self._outbox_removed.add(seq)

    def _handle_complete_invocation(
        self, cmd: cmds.CompleteServiceInvocation
    ) -> dict[str, Any]:
        """Apply one pooled invocation outcome, exactly once.

        The pending table is the intrinsic idempotency check: a completion
        whose record is already resolved (pool retry after crash, client
        duplicate, post-cancellation straggler) is a recorded no-op.
        """
        record = self._take_invocation(cmd.invocation_id)
        if record is None:
            self._c_inv_duplicates.inc()
            return {"invocation_id": cmd.invocation_id, "status": "duplicate"}
        instance = self._instances.get(record.instance_id)
        token = (
            instance.token(record.token_id)
            if instance is not None and not instance.state.is_finished
            else None
        )
        live = (
            token is not None
            and token.waiting_on.get("reason") == "service"
            and token.waiting_on.get("invocation_id") == cmd.invocation_id
        )
        definition = self._definition_of(instance) if live else None
        node = definition.nodes.get(record.node_id) if live else None
        if cmd.outcome == "failure" and live and node is not None:
            # poison invocation: retries exhausted — park it in the DLQ
            # with the token still waiting, so an operator requeue (or a
            # boundary timer on the activity) can still resolve the token
            raw = record.to_dict()
            raw["error"] = cmd.error
            raw["attempts"] = cmd.attempts
            raw["failed_at"] = self.clock.now()
            self._dead_letters[record.id] = raw
            self._dead_letters_dirty.add(record.id)
            self._dead_letters_removed.discard(record.id)
            self._g_dead_letters.inc()
            self._record(
                instance,
                EventTypes.SERVICE_FAILED,
                node_id=node.id,
                service=record.service,
                attempts=cmd.attempts,
                error=cmd.error,
            )
            self._record(
                instance,
                EventTypes.SERVICE_DEAD_LETTERED,
                node_id=node.id,
                service=record.service,
                invocation_id=record.id,
                error=cmd.error,
            )
            self.obs.event(
                "workers.dead_letter",
                service=record.service,
                invocation_id=record.id,
                error=cmd.error,
            )
            self._dirty.add(instance.id)
            return {"invocation_id": record.id, "status": "dead_lettered"}
        if not live or node is None:
            # the token moved on (cancelled, boundary-routed, migrated) or
            # the instance finished: the outcome has nowhere to land
            self._count_completed(record.service)
            return {"invocation_id": record.id, "status": "orphaned"}
        self._count_completed(record.service)
        self._record(
            instance,
            EventTypes.SERVICE_INVOKED,
            node_id=node.id,
            service=record.service,
            invocation_id=record.id,
        )
        core.cancel_boundary_jobs(self, instance, token)
        token.waiting_on = {}
        if cmd.outcome == "bpmn_error":
            code = cmd.error_code or core.TECHNICAL_ERROR_CODE
            self._record(
                instance,
                EventTypes.ERROR_RAISED,
                node_id=node.id,
                code=code,
                message=cmd.error,
            )
            core.handle_error(
                self, instance, definition, token, code, cmd.error or ""
            )
            core.advance(self, instance)
            self._dirty.add(instance.id)
            return {"invocation_id": record.id, "status": "error_routed"}
        if cmd.outcome == "failure":
            # unreachable for live tokens (handled above) except when the
            # node vanished mid-flight; kept as a defensive technical error
            core.handle_error(
                self,
                instance,
                definition,
                token,
                core.TECHNICAL_ERROR_CODE,
                cmd.error or "service failed",
            )
            core.advance(self, instance)
            self._dirty.add(instance.id)
            return {"invocation_id": record.id, "status": "failed"}
        if node.output_variable is not None:
            instance.variables[node.output_variable] = cmd.value
            self._record(
                instance,
                EventTypes.VARIABLES_UPDATED,
                node_id=node.id,
                keys=[node.output_variable],
            )
        core.move_through(
            self, instance, definition, token, node, is_activity=True,
            attempts=cmd.attempts,
        )
        core.advance(self, instance)
        self._dirty.add(instance.id)
        return {"invocation_id": record.id, "status": "completed"}

    def _handle_requeue_dead_letter(
        self, cmd: cmds.RequeueDeadLetter
    ) -> dict[str, Any]:
        from repro.workers.records import InvocationRecord  # cycle guard

        raw = self._dead_letters.pop(cmd.invocation_id, None)
        if raw is None:
            raise EngineError(
                f"no dead-lettered invocation {cmd.invocation_id!r}"
            )
        self._dead_letters_dirty.discard(cmd.invocation_id)
        self._dead_letters_removed.add(cmd.invocation_id)
        self._g_dead_letters.dec()
        record = InvocationRecord.from_dict(raw)
        record.requeues += 1
        self._invocations[record.id] = record
        self._invocations_dirty.add(record.id)
        self._invocations_removed.discard(record.id)
        self._invocations_to_submit.append(record.id)
        self._c_inv_requeued.inc()
        instance = self._instances.get(record.instance_id)
        if instance is not None:
            self._record(
                instance,
                EventTypes.SERVICE_REQUEUED,
                node_id=record.node_id,
                service=record.service,
                invocation_id=record.id,
                requeues=record.requeues,
            )
        self.obs.event(
            "workers.requeue",
            service=record.service,
            invocation_id=record.id,
            requeues=record.requeues,
        )
        return {
            "invocation_id": record.id,
            "status": "requeued",
            "requeues": record.requeues,
        }

    def requeue_dead_letter(
        self, invocation_id: str, dedup_key: str | None = None
    ) -> dict[str, Any]:
        """Move a dead-lettered invocation back onto its service queue."""
        return self.dispatch(
            cmds.RequeueDeadLetter(
                invocation_id=invocation_id, dedup_key=dedup_key
            )
        )

    def dead_letters(self) -> list[dict[str, Any]]:
        """Dead-lettered invocations, oldest first (``repro dlq list``)."""
        return sorted(
            (dict(raw) for raw in self._dead_letters.values()),
            key=lambda raw: (raw.get("failed_at", 0.0), raw.get("id", "")),
        )

    def workers_status(self) -> dict[str, dict[str, int]]:
        """Per-service invocation accounting.

        For every service, ``enqueued == completed + pending +
        dead_lettered`` — the conservation invariant the property tests
        check after arbitrary completion/requeue/duplicate interleavings.
        """
        per_service: dict[str, dict[str, int]] = {}

        def slot(service: str) -> dict[str, int]:
            return per_service.setdefault(
                service,
                {"enqueued": 0, "completed": 0, "pending": 0, "dead_lettered": 0},
            )

        for service, count in self._inv_enqueued.items():
            slot(service)["enqueued"] = count
        for service, count in self._inv_completed.items():
            slot(service)["completed"] = count
        for record in self._invocations.values():
            slot(record.service)["pending"] += 1
        for raw in self._dead_letters.values():
            slot(raw.get("service", ""))["dead_lettered"] += 1
        return per_service

    # -- persistence & recovery ---------------------------------------------------

    def batch(self) -> "_EngineBatch":
        """Context manager deferring all flushes to one group commit.

        Inside the block every public API call mutates memory but skips
        persistence; the outermost exit performs a single
        :meth:`_flush` — one store transaction, one journal sync — no
        matter how many calls ran.  Re-entrant (nested batches commit once,
        at the outermost exit).  On an exception the accumulated state is
        still flushed: the in-memory mutations already happened and memory
        is the source of truth.

        >>> # with engine.batch():
        >>> #     for item in engine.worklist.items():
        >>> #         engine.complete_work_item(item.id)
        """
        return _EngineBatch(self)

    def flush(self) -> None:
        """Force-persist all pending dirty state now, whatever the policy."""
        self._flush(force=True)

    def has_pending_writes(self) -> bool:
        """Whether a forced flush would persist anything beyond outbox GC
        tombstones.

        A lock-free peek for the cluster's delivery fence: before the
        origin may forget a forwarded message, the target's delivery must
        be durable.  When the delivering thread sees nothing pending here
        its own delivery has committed, so it can skip taking the target's
        dispatch lock for a no-op flush.  Tombstones (``_outbox_removed``)
        are excluded on purpose — they never need fencing, because a
        record that outlives its delivery is absorbed by dedup on
        redelivery.  Racing writers can only make this spuriously True
        (an extra no-op flush), never hide the caller's own writes.
        """
        dirty_jobs, removed_jobs = self.scheduler.pending_changes()
        return bool(
            self._dirty
            or dirty_jobs
            or removed_jobs
            or self.worklist.dirty_item_ids()
            or self._dispatch_dirty
            or self._dispatch_removed
            or self._invocations_dirty
            or self._invocations_removed
            or self._dead_letters_dirty
            or self._dead_letters_removed
            or self._outbox_dirty
            or self._message_waits.has_changes
            or self._instance_seq != self._persisted_seq
            or self._invocation_seq != self._persisted_invocation_seq
            or self._outbox_seq != self._persisted_outbox_seq
        )

    def _flush(self, force: bool = False) -> None:
        """Persist the differential write-set in one transaction.

        Per-record layout: dirty instances to ``instance/<id>``, changed
        jobs to ``jobs/<id>`` (fired/cancelled ones deleted), changed work
        items to ``workitem/<id>``, new dispatch-log entries to
        ``dispatch/<seq>`` (pruned ones deleted), new message waits to
        ``msgwait/<seq:010d>`` (delivered or released ones deleted, and an
        old-layout ``engine/message_waits`` list deleted once, see
        :mod:`repro.engine.waits`), and ``engine/meta`` only when a
        sequence moved.  Writes nothing — not even an empty transaction —
        when nothing is dirty.  Honours the commit policy: inside
        :meth:`batch` or below ``commit_interval`` pending records the
        flush is deferred (unless ``force``).
        """
        if self._batch_depth > 0 and not force:
            return
        dirty_jobs, removed_jobs = self.scheduler.pending_changes()
        dirty_items = self.worklist.dirty_item_ids()
        meta_dirty = (
            self._instance_seq != self._persisted_seq
            or self._invocation_seq != self._persisted_invocation_seq
            or self._outbox_seq != self._persisted_outbox_seq
        )
        # an id both re-added (requeue) and previously removed in the same
        # window persists — the dirty write wins over the stale delete
        removed_invocations = self._invocations_removed - self._invocations_dirty
        removed_dead = self._dead_letters_removed - self._dead_letters_dirty
        removed_outbox = self._outbox_removed - self._outbox_dirty
        records = (
            len(self._dirty)
            + len(dirty_jobs)
            + len(removed_jobs)
            + len(dirty_items)
            + len(self._dispatch_dirty)
            + len(self._dispatch_removed)
            + len(self._invocations_dirty)
            + len(removed_invocations)
            + len(self._dead_letters_dirty)
            + len(removed_dead)
            + len(self._outbox_dirty)
            + len(removed_outbox)
            + self._message_waits.pending_records()
            + (1 if meta_dirty else 0)
        )
        views_relevant = self.views is not None and bool(
            self._dirty or dirty_items or self.views.has_pending()
        )
        if records == 0 and not (force and views_relevant):
            # read-only call: zero store writes, zero syncs (a *forced*
            # flush still drains write-behind view dirt noted earlier)
            return
        if not force and records < self._commit_interval:
            return  # defer until the record-count policy is met
        # read-model maintenance is write-behind: flushes carrying dirty
        # instances or work items note the ids (two set unions), and the
        # view records join a commit transaction only when forced (an
        # explicit flush / batch exit — the group-commit boundary) or
        # when the persisted image has lagged `views_flush_lag` seqs.
        # The lag stays strictly inside the retained dispatch-log tail,
        # so a crash between drains recovers by touched-id tail replay.
        view_writes: dict[str, Any] = {}
        if views_relevant:
            views = self.views
            # ``views.note_flush(self, seq, dirty_items)`` inlined: this
            # runs once per autocommitted dispatch, and the call frame is
            # measurable against the F15 <10% maintenance gate
            views._pending_instances.update(self._dirty)
            views._pending_items.update(dirty_items)
            views._source = self
            views._noted_seq = self._dispatch_seq
            if force or (
                self._dispatch_seq - views.persisted_seq
                >= self._views_flush_lag
            ):
                view_writes = views.drain(self, self._dispatch_seq)
                records += len(view_writes)
        span = (
            self._tracer.start_span(
                "engine.flush", parent=self._engine_span, records=records
            )
            if self.obs.enabled
            else None
        )
        with self.store.transaction():
            for instance_id in sorted(self._dirty):
                instance = self._instances.get(instance_id)
                if instance is not None:
                    self.store.put(f"instance/{instance_id}", instance.to_dict())
            for job_id in dirty_jobs:
                job = self.scheduler.get(job_id)
                if job is not None:
                    self.store.put(f"jobs/{job_id}", job.to_dict())
            for job_id in removed_jobs:
                self.store.delete(f"jobs/{job_id}")
            for item_id in dirty_items:
                self.store.put(
                    f"workitem/{item_id}", self.worklist.item(item_id).to_dict()
                )
            if self._dispatch_dirty:
                # the log holds contiguous seqs (appended +1, pruned from
                # the front), so a dirty seq is found by offset, not scan
                log = self._dispatch_log
                base = log[0]["seq"] if log else 0
                for seq in sorted(self._dispatch_dirty):
                    index = seq - base
                    if 0 <= index < len(log):
                        self.store.put(f"dispatch/{seq:010d}", log[index])
            for seq in sorted(self._dispatch_removed):
                self.store.delete(f"dispatch/{seq:010d}")
            for invocation_id in sorted(self._invocations_dirty):
                record = self._invocations.get(invocation_id)
                if record is not None:
                    self.store.put(
                        f"invocation/{invocation_id}", record.to_dict()
                    )
            for invocation_id in sorted(removed_invocations):
                self.store.delete(f"invocation/{invocation_id}")
            for invocation_id in sorted(self._dead_letters_dirty):
                raw = self._dead_letters.get(invocation_id)
                if raw is not None:
                    self.store.put(f"dlq/{invocation_id}", raw)
            for invocation_id in sorted(removed_dead):
                self.store.delete(f"dlq/{invocation_id}")
            for outbox_seq in sorted(self._outbox_dirty):
                outbox_record = self._outbox.get(outbox_seq)
                if outbox_record is not None:
                    self.store.put(
                        f"outbox/{outbox_seq:010d}", outbox_record.to_dict()
                    )
            for outbox_seq in sorted(removed_outbox):
                self.store.delete(f"outbox/{outbox_seq:010d}")
            self._message_waits.write(self.store)
            if meta_dirty:
                self.store.put(
                    "engine/meta",
                    {
                        "instance_seq": self._instance_seq,
                        "invocation_seq": self._invocation_seq,
                        "outbox_seq": self._outbox_seq,
                    },
                )
            for view_key in sorted(view_writes):
                self.store.put(view_key, view_writes[view_key])
        # group-commit boundary for deferred-sync stores (no-op otherwise)
        self.store.sync()
        if self.views is not None:
            if view_writes:
                self.views.confirm()
            # whether this flush drained, deferred (write-behind), or was
            # view-irrelevant (deploy, jobs, log pruning), the image —
            # counting noted ids that reads will materialize — is current
            # through this seq; any persisted-cursor lag is bounded and
            # recovery catches it up by tail replay.  (This is
            # ``views.note_applied`` inlined: one per autocommit dispatch.)
            if self._dispatch_seq > self.views.applied_seq:
                self.views.applied_seq = self._dispatch_seq
        self._dirty.clear()
        self.scheduler.clear_changes()
        self.worklist.clear_dirty()
        self._dispatch_dirty.clear()
        self._dispatch_removed.clear()
        self._invocations_dirty.clear()
        self._invocations_removed.clear()
        self._dead_letters_dirty.clear()
        self._dead_letters_removed.clear()
        self._outbox_dirty.clear()
        self._outbox_removed.clear()
        self._message_waits.clear_changes()
        self._persisted_seq = self._instance_seq
        self._persisted_invocation_seq = self._invocation_seq
        self._persisted_outbox_seq = self._outbox_seq
        self._c_flush_commits.inc()
        self._c_flush_records.inc(records)
        self._h_flush_batch.observe(records)
        if span is not None:
            span.finish()
        # the enqueue→submit ordering contract: invocation records reach
        # the pool only after the commit that made them durable, so a
        # crash can never lose an acknowledged enqueue
        if self._invocations_to_submit and self.workers is not None:
            self._submit_pending_invocations()

    def recover(self) -> dict[str, int]:
        """Rebuild engine state from the backing store after a restart.

        Definitions, instances, pending jobs, work items, message waits,
        and the dispatch log (with its idempotency keys) are restored;
        services and resources must be re-registered by the host
        application (code is not persisted).  Message waits load from
        their ``msgwait/<seq>`` records in ``seq`` order, rebuilding the
        match index; a leftover ``engine/message_waits`` list from an
        older store is imported after them (``seq`` in list order) and
        rewritten as records by the next flush.  Work-item queue lengths
        are recounted by ``import_items``.  Returns counts per category.
        """
        counts = {
            "definitions": 0,
            "instances": 0,
            "jobs": 0,
            "workitems": 0,
            "commands": 0,
            "invocations": 0,
            "dead_letters": 0,
            "outbox": 0,
        }
        self._latest_version = dict(self.store.get("engine/latest_versions", {}))
        for key, raw in self.store.scan("definition/"):
            definition = definition_from_dict(raw)
            self._definitions[definition.identifier] = definition
            counts["definitions"] += 1
        # register in creation-rank order (store keys sort lexically, so
        # "…-10" would otherwise precede "…-2"): _instances iteration —
        # and with it instances(), the cluster merge, and the read-model
        # rebuild — stays creation-ordered after a restart, exactly as in
        # a live engine
        recovered_instances = [
            ProcessInstance.from_dict(raw)
            for _, raw in self.store.scan("instance/")
        ]
        recovered_instances.sort(key=lambda inst: _creation_rank(inst.id))
        for instance in recovered_instances:
            self._register_instance(instance, _creation_rank(instance.id))
            counts["instances"] += 1
        # jobs and work items: read the per-record layout (``jobs/<id>``,
        # ``workitem/<id>``) and, for stores written before the incremental
        # layout, the legacy whole-collection blobs.  Per-record wins on
        # conflict: import_jobs skips ids it already has, import_items
        # overwrites, so ordering below gives per-record precedence.
        legacy_jobs = self.store.get("engine/jobs", None)
        self.scheduler.import_jobs([raw for _, raw in self.store.scan("jobs/")])
        if legacy_jobs:
            self.scheduler.import_jobs(legacy_jobs)
        counts["jobs"] = len(self.scheduler)
        legacy_items = self.store.get("engine/workitems", None)
        if legacy_items:
            self.worklist.import_items(legacy_items)
        self.worklist.import_items([raw for _, raw in self.store.scan("workitem/")])
        counts["workitems"] = len(self.worklist.items())
        self._message_waits = MessageWaits.load(self.store)
        meta = self.store.get("engine/meta", {})
        self._instance_seq = max(meta.get("instance_seq", 0), self._instance_seq)
        self._persisted_seq = self._instance_seq
        self._invocation_seq = max(
            meta.get("invocation_seq", 0), self._invocation_seq
        )
        self._persisted_invocation_seq = self._invocation_seq
        self._outbox_seq = max(meta.get("outbox_seq", 0), self._outbox_seq)
        self._persisted_outbox_seq = self._outbox_seq
        # pending invocations: exactly the acknowledged-but-unresolved set
        # at crash time — re-enqueued for (at-least-once) re-execution;
        # the completion path dedupes, so effects stay exactly-once
        from repro.workers.records import InvocationRecord

        for key, raw in self.store.scan("invocation/"):
            record = InvocationRecord.from_dict(raw)
            self._invocations[record.id] = record
            self._invocations_to_submit.append(record.id)
            counts["invocations"] += 1
        for key, raw in self.store.scan("dlq/"):
            self._dead_letters[raw["id"]] = dict(raw)
            self._g_dead_letters.inc()
            counts["dead_letters"] += 1
        # undrained outbox records: exactly the cross-shard forwards that
        # were claimed but not yet confirmed delivered at crash time — the
        # cluster layer re-drains them (redelivery dedupes at the target)
        from repro.cluster.outbox import OutboxRecord  # cycle guard

        for key, raw in self.store.scan("outbox/"):
            outbox_record = OutboxRecord.from_dict(raw)
            self._outbox[outbox_record.seq] = outbox_record
            self._outbox_seq = max(self._outbox_seq, outbox_record.seq)
            counts["outbox"] += 1
        self._persisted_outbox_seq = self._outbox_seq
        # per-service invariant counters restart from the durable state:
        # enqueued := pending + dead_lettered (completions already settled)
        for record in self._invocations.values():
            self._inv_enqueued[record.service] = (
                self._inv_enqueued.get(record.service, 0) + 1
            )
        for raw in self._dead_letters.values():
            service = raw.get("service", "")
            self._inv_enqueued[service] = self._inv_enqueued.get(service, 0) + 1
        # the dispatch log: restores the idempotency window, so a client
        # retrying a dedup-keyed command across the crash still gets the
        # recorded (summarized) result instead of a double apply
        log = sorted(
            (raw for _, raw in self.store.scan("dispatch/")),
            key=lambda r: r.get("seq", 0),
        )
        self._dispatch_log = log[max(0, len(log) - self._dispatch_log_retention):]
        if log:
            self._dispatch_seq = max(self._dispatch_seq, log[-1].get("seq", 0))
        for record in self._dispatch_log:
            key = record.get("dedup_key")
            if key is not None and record.get("status") == "applied":
                self._dedup[key] = {
                    "result": record.get("result"),
                    "seq": record.get("seq", 0),
                }
        counts["commands"] = len(self._dispatch_log)
        # recovery imports are clean, not dirty — only changes made after
        # this point need flushing
        self.scheduler.clear_changes()
        self.worklist.clear_dirty()
        if legacy_jobs is not None or legacy_items is not None:
            self._migrate_legacy_layout()
        # the read models catch up last (they need base state + the log):
        # cursor current → load; log tail covered → replay touched
        # entities; otherwise → full rebuild, persisted before returning
        if self.views is not None:
            self.views.recover(self)
        if self.workers is not None:
            self._submit_pending_invocations()
        return counts

    def _migrate_legacy_layout(self) -> None:
        """Rewrite legacy whole-collection blobs as per-record keys.

        Runs once, at the first :meth:`recover` over a pre-incremental
        store: afterwards the blob keys are gone and every job/work item
        lives under its own key, so later flushes and recoveries never
        consult (or resurrect state from) a stale blob.
        """
        with self.store.transaction():
            for job in self.scheduler.pending():
                self.store.put(f"jobs/{job.id}", job.to_dict())
            for item in self.worklist.items():
                self.store.put(f"workitem/{item.id}", item.to_dict())
            self.store.delete("engine/jobs")
            self.store.delete("engine/workitems")
        self.store.sync()


def _creation_rank(instance_id: str) -> int:
    """Creation order of a recovered instance (ids end in the seq)."""
    tail = instance_id.rsplit("-", 1)[-1]
    return int(tail) if tail.isdigit() else 0


class _EngineBatch:
    """Re-entrant deferral scope returned by :meth:`ProcessEngine.batch`."""

    def __init__(self, engine: ProcessEngine) -> None:
        self._engine = engine

    def __enter__(self) -> ProcessEngine:
        self._engine._batch_depth += 1
        return self._engine

    def __exit__(self, exc_type: type | None, *exc_info: object) -> None:
        self._engine._batch_depth -= 1
        if self._engine._batch_depth == 0:
            # flush even on exception: memory already mutated and is the
            # source of truth; the store must not lag behind it
            self._engine._flush(force=True)
