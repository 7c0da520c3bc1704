"""End-to-end benchmark of the BPMS: three workloads on durable stores.

Run from the repository root::

    python3 perfbench/run.py --workload port_backlog --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` prints the per-layer metrics: it runs untraced and traced
rounds on the same inputs, takes layer budgets from the traced rounds'
spans, and writes those spans to ``.perfbench/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when the run
finished, no command raised, and every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: containers, orders, or container/pickup pairs per round
DEFAULT_SIZES = {"port_backlog": 1000, "order_autocommit": 2000, "cluster_mixed": 400}
#: throw-away set-ups taken after each untraced round, so that the
#: ``setup_s`` samples spread over the whole run, and the fewest in a run
SETUPS_PER_ROUND = 6
MIN_SETUPS = 61
#: rounds that run the read probe and the recovery checkpoint; the later
#: rounds skip both, so that most of a run's wall time is timed phase
CHECKPOINT_ROUNDS = 1
#: stop starting rounds after this long, whatever --seconds says
WALL_CAP_S = 100.0
#: the gated metrics (``--trace 0``).  The traced run reports the other
#: metrics of its untraced rounds beside the layers: complete and correlate
#: do not occur on every workload, and the latencies, the recovery time and
#: the slowdown ratio spread too widely between runs on a shared host for
#: a bound (README.md)
END_TO_END = (
    "setup_s",
    "throughput_ips",
    "disk_bytes_per_instance",
    "rss_bytes_per_instance",
)
LATENCIES = (
    ("start", 50),
    ("start", 99),
    ("lookup", 50),
    ("scan", 50),
    ("scan", 99),
    ("complete", 50),
    ("complete", 99),
    ("correlate", 50),
    ("correlate", 99),
)
KEY_FAMILIES = (
    "instance",
    "workitem",
    "dispatch",
    "outbox",
    "engine.message_waits",
    "engine.meta",
    "view.by_state",
    "view.by_key",
    "view.def_stats",
    "view.worklist",
)


def load_program() -> None:
    """Import the program from this checkout's ``src`` (never elsewhere)."""
    package = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(package):
        raise SystemExit(f"error: the program is missing: no {package}")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles``, inclusive method)."""
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def add_counts(total: dict[str, float], more: dict[str, float]) -> None:
    for name, value in more.items():
        total[name] = total.get(name, 0) + value


class Run:
    """One benchmark run: rounds until ``seconds`` of timed phase."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool, size: int | None) -> None:
        import workloads
        from spans import Tracer

        self.ws = workloads
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.size = size if size is not None else DEFAULT_SIZES[workload]
        self.tracer = Tracer() if traced else None
        cls = workloads.WORKLOADS[workload]
        self.plain = cls(self.size, None)
        self.spanned = cls(self.size, self.tracer) if traced else None
        self.work = os.path.join(WORK, f"{workload}-{os.getpid()}")
        self.errors: list[str] = []
        self.command_errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.rounds: list[dict] = []
        self.traced_rounds: list[dict] = []

    # -- one round ------------------------------------------------------------------

    def round(self, round_no: int, wl, now, label: str) -> dict:
        import generate

        ws = self.ws
        rng = generate.round_rng(self.seed, round_no)
        inputs = wl.inputs(rng)
        context = wl.context(inputs)
        directory = os.path.join(self.work, f"round-{round_no}-{label}")
        shutil.rmtree(directory, ignore_errors=True)
        timed = ws.Recorder(now)  # admit + drain
        probe = ws.Recorder(now)
        gc.collect()
        started = time.perf_counter()
        system = wl.open(directory, context, fresh=True)
        setup_s = time.perf_counter() - started
        rss_before = rss_bytes()
        started = time.perf_counter()
        wl.admit(system, inputs, timed, rng)
        wall_s = time.perf_counter() - started
        rss_growth = rss_bytes() - rss_before
        starts = timed.latency["start"]
        tenth = max(1, len(starts) // 10)
        first_tenth, last_tenth = starts[:tenth], starts[-tenth:]
        self.errors.extend(
            f"round {round_no}, after admit: {e}" for e in wl.check_scans(system, inputs, settled=False)
        )
        counts: dict[str, float] = {}
        recover_s, open_s = [], []
        if round_no < CHECKPOINT_ROUNDS:
            wl.probe(system, wl.keys(inputs), probe, rng)
            before = wl.snapshot(system)
            for _ in range(wl.recoveries):
                add_counts(counts, wl.counters(system))
                started = time.perf_counter()
                wl.close(system)
                system = wl.open(directory, context, fresh=False)
                recover_s.append(time.perf_counter() - started)
                open_s.append(system.open_s)
                if wl.snapshot(system) != before:
                    self.errors.append(f"round {round_no}: recovered state differs from the state before the close")
            gc.collect()
        started = time.perf_counter()
        wl.drain(system, inputs, timed, rng)
        wall_s += time.perf_counter() - started
        self.errors.extend(f"round {round_no}: {e}" for e in wl.check(system, inputs))
        add_counts(counts, wl.counters(system))
        outbox_peak = getattr(system, "outbox_peak", [0])[0]
        left = wl.finish(system)
        disk = ws.directory_bytes(directory)
        shutil.rmtree(directory, ignore_errors=True)
        for rec in (timed, probe):
            self.attempted += rec.attempted
            self.failed += rec.failed
            self.command_errors.extend(rec.errors)
        return {
            "timed": timed.latency,
            "latency": {k: timed.latency[k] + probe.latency[k] for k in timed.latency},
            "first_tenth": first_tenth,
            "last_tenth": last_tenth,
            "setup_s": setup_s,
            "wall_s": wall_s,
            "top_level": wl.top_level(inputs),
            "rss_growth": rss_growth,
            "recover_s": recover_s,
            "open_s": open_s,
            "disk": disk,
            "counts": counts,
            "left": left,
            "outbox_peak": outbox_peak,
        }

    def extra_setup(self, index: int) -> float:
        """One more set-up sample, on a store that is then thrown away."""
        import generate

        directory = os.path.join(self.work, f"setup-{index}")
        shutil.rmtree(directory, ignore_errors=True)
        inputs = self.plain.inputs(generate.round_rng(self.seed, -1 - index))
        context = self.plain.context(inputs)
        gc.collect()
        started = time.perf_counter()
        system = self.plain.open(directory, context, fresh=True)
        setup_s = time.perf_counter() - started
        self.plain.close(system)
        shutil.rmtree(directory, ignore_errors=True)
        return setup_s

    def execute(self) -> dict:
        began = time.perf_counter()
        timed = 0.0
        round_no = 0
        setups: list[float] = []
        try:
            while True:
                self.rounds.append(self.round(round_no, self.plain, time.perf_counter, "plain"))
                timed += self.rounds[-1]["wall_s"]
                setups.append(self.rounds[-1]["setup_s"])
                if not self.traced:
                    for _ in range(SETUPS_PER_ROUND):
                        setups.append(self.extra_setup(len(setups)))
                else:
                    traced = self.round(round_no, self.spanned, self.tracer.now, "traced")
                    self.traced_rounds.append(traced)
                    timed += traced["wall_s"]
                round_no += 1
                if timed >= self.seconds or time.perf_counter() - began > WALL_CAP_S:
                    break
            while not self.traced and len(setups) < MIN_SETUPS:
                setups.append(self.extra_setup(len(setups)))
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        if self.traced:
            self.tracer.write(os.path.join(WORK, f"spans-{self.name}-seed{self.seed}.npz"))
            return self.per_layer()
        return self.end_to_end(setups)

    # -- metrics -------------------------------------------------------------------

    def latency(self, kind: str) -> list[float]:
        return [s for r in self.rounds for s in r["latency"][kind]]

    def untraced(self, setups: list[float]) -> dict:
        """Every metric of the untraced rounds; ``END_TO_END`` picks the gated ones."""
        rounds = self.rounds
        top_level = sum(r["top_level"] for r in rounds)
        first = [s for r in rounds for s in r["first_tenth"]]
        last = [s for r in rounds for s in r["last_tenth"]]
        metric = {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_ips": (top_level / sum(r["wall_s"] for r in rounds), "1/s"),
            "recover_s": (statistics.median(s for r in rounds for s in r["recover_s"]), "s"),
            "disk_bytes_per_instance": (sum(r["disk"] for r in rounds) / top_level, "bytes"),
            "rss_bytes_per_instance": (rounds[0]["rss_growth"] / rounds[0]["top_level"], "bytes"),
            "start_slowdown": (statistics.median(last) / statistics.median(first), "ratio"),
        }
        for kind, q in LATENCIES:
            samples = self.latency(kind)
            metric[f"{kind}_p{q}_ms"] = (percentile(samples, q) * 1e3 if samples else 0.0, "ms")
        metric["failed_ops_share"] = (self.failed / self.attempted, "ratio")
        return metric

    def end_to_end(self, setups: list[float]) -> dict:
        metric = self.untraced(setups)
        print(f"workload {self.name}: seed {self.seed}, {len(self.rounds)} rounds of {self.size}")
        print(f"setup samples: {len(setups)}; recoveries: {sum(len(r['recover_s']) for r in self.rounds)}")
        return {name: metric[name] for name in END_TO_END}

    def per_layer(self) -> dict:
        traced = self.traced_rounds
        budget = self.tracer.budget()
        calls, seconds, own = budget["calls"], budget["seconds"], budget["layer_self"]
        counts: dict[str, float] = {}
        for p in traced:
            add_counts(counts, p["counts"])
        top_level = sum(p["top_level"] for p in traced)
        recoveries = sum(len(p["recover_s"]) for p in traced)
        metric: dict[str, tuple[float, str]] = {}

        def span(name: str, with_calls: bool = True) -> None:
            if with_calls:
                metric[f"{name}.calls"] = (calls.get(name, 0), "count")
            metric[f"{name}.s"] = (seconds.get(name, 0.0), "s")

        def count(name: str, unit: str = "count") -> None:
            metric[name] = (counts.get(name, 0), unit)

        for command in ("StartInstance", "StartWorkItem", "CompleteWorkItem", "CorrelateMessage"):
            span(f"engine.dispatch.{command}")
        metric["engine.self_s"] = (own["engine"], "s")
        span("engine.match")
        span("engine.query.find_instances")
        count("engine.flush.commits")
        count("engine.flush.records_written")
        metric["engine.flush.encode_s"] = (own["flush"], "s")
        metric["engine.recover.s"] = (seconds.get("engine.recover", 0.0) / max(1, recoveries), "s")
        span("worklist.create")
        span("worklist.queue_lengths")
        span("worklist.allocator.choose", with_calls=False)
        metric["worklist.items_retained"] = (traced[-1]["left"]["worklist.items_retained"], "count")
        span("bus.publish")
        published = counts.get("bus.published", 0)
        metric["bus.delivered_ratio"] = (counts.get("bus.delivered", 0) / published if published else 0.0, "ratio")
        span("services.invoke")
        count("services.invoke.retries")
        metric["storage.txn.s"] = (seconds.get("storage.txn", 0.0), "s")
        span("storage.commit")
        span("storage.sync")
        span("storage.eventstore.append", with_calls=False)
        commits = counts.get("storage.commits", 0)
        metric["storage.bytes_per_commit"] = (counts.get("storage.journal_bytes", 0) / commits if commits else 0.0, "bytes")
        metric["storage.open_s"] = (statistics.median(s for p in traced for s in p["open_s"]), "s")
        for family in KEY_FAMILIES:
            metric[f"storage.bytes.{family}"] = (self.tracer.bytes_by_family.get(family, 0), "bytes")
        span("history.record")
        metric["history.events_per_instance"] = (calls.get("history.record", 0) / top_level, "count")
        metric["history.bytes_written"] = (sum(p["left"]["history.bytes_written"] for p in traced), "bytes")
        span("views.drain")
        metric["views.recover.s"] = (seconds.get("views.recover", 0.0) / max(1, recoveries), "s")
        for kind in ("instances", "work_items"):
            span(f"views.query.{kind}")
        for index in range(2):
            count(f"cluster.dispatch.{index}.calls")
        count("cluster.forwards")
        metric["cluster.outbox.pending_max"] = (max(p["outbox_peak"] for p in traced), "count")
        count("cluster.lock_wait_s", "s")
        plain_wall = statistics.median(r["wall_s"] for r in self.rounds)
        metric["obs.tracing_overhead"] = (statistics.median(p["wall_s"] for p in traced) / plain_wall, "ratio")
        # layer shares of the client-timed write commands of the traced rounds
        wall = sum(sum(p["timed"][k]) for p in traced for k in self.ws.WRITE_KINDS)
        for layer, value in own.items():
            metric[f"share.{layer}"] = (value / wall, "ratio")
        metric["share.uncovered"] = (1.0 - sum(own.values()) / wall, "ratio")
        untraced = self.untraced([r["setup_s"] for r in self.rounds])
        metric.update((k, v) for k, v in untraced.items() if k not in END_TO_END)
        self.describe(("start", "lookup", "scan", "complete", "correlate"))
        print(f"traced rounds: {len(traced)}; spans: {len(self.tracer.start)}; dispatch wall {wall:.3f} s")
        print("layer shares of dispatch wall time: " + ", ".join(
            f"{layer} {metric['share.' + layer][0]:.1%}" for layer in own
        ) + f", uncovered {metric['share.uncovered'][0]:.1%}")
        top = sorted(budget["self"].items(), key=lambda item: -item[1])[:8]
        print("largest self times: " + ", ".join(f"{name} {value / wall:.1%}" for name, value in top))
        return metric

    def describe(self, kinds: tuple[str, ...]) -> None:
        print(f"workload {self.name}: seed {self.seed}, {len(self.rounds)} rounds of {self.size}")
        for kind in kinds:
            n = len(self.latency(kind))
            note = "" if n >= 1000 else " (fewer than 10 samples beyond p99)"
            print(f"  {kind}: {n} samples{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None, help="override the round size")
    args = parser.parse_args(argv)
    load_program()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    metrics = run.execute()
    for error in run.command_errors[:20]:
        print(f"failed command: {error}")
    for error in run.errors[:20]:
        print(f"check failed: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    correct = not run.errors
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct and run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
