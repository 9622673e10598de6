"""Traced mode: wrappers around the program's public entry points.

Installed at the start of each traced round and removed at its end, so
untraced rounds run the program's own code. Each wrapper records a span
(name, op, start, end, parent) while the recorder is active, and adds
the span's duration to its parent's child time, so every layer's self
time is its duration minus the wrapped calls under it. Counts come from the same
wrappers and from the counters the program's ``MetricsRegistry``
already exposes. Spans stay in memory and are written out as one JSON
document when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

from repro.disclosure.engine import DisclosureEngine, DisclosureTracker
from repro.disclosure.store import HashDatabase
from repro.disclosure.wal import EngineJournal
from repro.eval.fleet import ClientLookup
from repro.fingerprint.fingerprint import Fingerprinter
from repro.fingerprint.incremental import EditBuffer
from repro.plugin import plugin as plugin_module
from repro.plugin.lookup import PolicyLookup
from repro.plugin.server import LookupServer
from repro.tdm.model import TextDisclosureModel

#: Spans kept for the JSON document; totals cover every span regardless.
MAX_KEPT_SPANS = 50_000

#: (owner, attribute, span name) of every wrapped entry point.
ENTRY_POINTS = (
    (ClientLookup, "lookup", "plugin.client_lookup"),
    (LookupServer, "handle", "server.handle"),
    (PolicyLookup, "lookup", "lookup"),
    (TextDisclosureModel, "check_upload", "tdm.check_upload"),
    (TextDisclosureModel, "observe", "tdm.observe"),
    (TextDisclosureModel, "commit_upload", "tdm.commit_upload"),
    (DisclosureTracker, "check_document", "tracker.check_document"),
    (DisclosureEngine, "disclosing_sources", "engine.disclosing_sources"),
    (DisclosureEngine, "observe_fingerprint", "engine.observe_fingerprint"),
    (EngineJournal, "log_observe", "wal.journal"),
    (EngineJournal, "log_suppress", "wal.journal"),
    (EditBuffer, "update", "editbuffer.update"),
    (plugin_module, "extract_main_text", "browser.readability"),
)


class Recorder:
    """Span stack, per-name totals and the kept span list."""

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self._stack: List[list] = []
        self._next_id = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.fingerprint_chars = 0
        self.hash_records = 0
        self.lock_hold = {"read": 0.0, "write": 0.0}
        self.spans: List[tuple] = []
        self._installed: List[tuple] = []

    # -- spans ------------------------------------------------------------

    def enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else 0
        frame = [name, self._next_id, parent, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, span_id, parent, start, child = frame
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][4] += duration
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, parent, self.op, name, start, end))

    def wrap(self, name: str, fn):
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            frame = recorder.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.exit(frame)

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the entry points (class attributes, so every instance)."""
        for owner, attribute, name in ENTRY_POINTS:
            original = owner.__dict__[attribute]
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original))

        recorder = self
        fingerprint = Fingerprinter.__dict__["fingerprint"]

        def traced_fingerprint(fingerprinter, text):
            if not recorder.active:
                return fingerprint(fingerprinter, text)
            recorder.fingerprint_chars += len(text)
            frame = recorder.enter("fingerprint")
            try:
                return fingerprint(fingerprinter, text)
            finally:
                recorder.exit(frame)

        record = HashDatabase.__dict__["record"]

        def counted_record(db, hash_value, segment_id, timestamp):
            if recorder.active:
                recorder.hash_records += 1
            return record(db, hash_value, segment_id, timestamp)

        for owner, attribute, original, replacement in (
            (Fingerprinter, "fingerprint", fingerprint, traced_fingerprint),
            (HashDatabase, "record", record, counted_record),
        ):
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    def watch_lock(self, lock) -> None:
        """Time the outermost hold of *lock* (one model's rwlock).

        Instance attributes shadow the class methods the lock's context
        managers call, so every acquisition goes through these.
        """
        recorder = self
        depth = [0]
        held = [None, 0.0]  # mode of the outermost hold, start time
        cls = type(lock)

        def acquirer(mode, acquire):
            def traced(*args):
                acquire(lock, *args)
                if recorder.active:
                    if depth[0] == 0:
                        held[0], held[1] = mode, time.perf_counter()
                    depth[0] += 1
            return traced

        def releaser(release):
            def traced(*args):
                release(lock, *args)
                if recorder.active and depth[0] > 0:
                    depth[0] -= 1
                    if depth[0] == 0:
                        recorder.lock_hold[held[0]] += time.perf_counter() - held[1]
            return traced

        lock.acquire_read = acquirer("read", cls.acquire_read)
        lock.acquire_write = acquirer("write", cls.acquire_write)
        lock.release_read = releaser(cls.release_read)
        lock.release_write = releaser(cls.release_write)

    # -- output -----------------------------------------------------------

    def write(self, path, meta: Dict[str, object]) -> None:
        names = sorted({s[3] for s in self.spans})
        document = {
            "meta": meta,
            "fields": ["id", "parent", "op", "name", "start", "end"],
            "span_names": names,
            "spans_kept": len(self.spans),
            "spans_total": sum(self.calls.values()),
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    rec: Recorder,
    *,
    ops: int,
    page_loads: int,
    op_self_s: float,
    deltas: Dict[str, float],
    end_state: Dict[str, object],
    replay: Optional[Dict[str, float]],
    overhead_ratio: float,
) -> Dict[str, float]:
    """The per-layer table from recorder totals and registry deltas.

    *deltas* are registry counter changes summed over the traced rounds'
    timed phases; *end_state* is the registry at the end of the last
    round (for gauges that describe state, not work).
    """
    d = lambda name: deltas.get(name, 0.0)  # noqa: E731
    both = lambda name: d(f"engine.paragraph.{name}") + d(f"engine.document.{name}")  # noqa: E731
    decisions = rec.calls["lookup"]
    queries = rec.calls["engine.disclosing_sources"]
    updates = rec.calls["editbuffer.update"]
    kchars = rec.fingerprint_chars / 1000.0
    ms = 1000.0
    us = 1_000_000.0
    appends = d("wal.appends")
    metrics = {
        "browser.self_ms_per_op": _ratio(op_self_s * ms, ops),
        "browser.readability_ms_per_page_load": _ratio(
            rec.total["browser.readability"] * ms, page_loads
        ),
        "plugin.decisions_per_op": _ratio(decisions, ops),
        "plugin.server_self_us_per_decision": _ratio(
            rec.self_time["server.handle"] * us, decisions
        ),
        "plugin.lookup_self_us_per_decision": _ratio(
            rec.self_time["lookup"] * us, decisions
        ),
        "plugin.decision_cache_hit_ratio": _ratio(
            d("decision_cache.hits"),
            d("decision_cache.hits") + d("decision_cache.misses"),
        ),
        "plugin.fingerprint_cache_hit_ratio": _ratio(
            d("fingerprint.cache.hits"),
            d("fingerprint.cache.hits") + d("fingerprint.cache.misses"),
        ),
        "plugin.editbuffer_updates_per_op": _ratio(updates, ops),
        "plugin.editbuffer_us_per_update": _ratio(
            rec.total["editbuffer.update"] * us, updates
        ),
        "fingerprint.calls_per_op": _ratio(rec.calls["fingerprint"], ops),
        # One division of two exact integers, so the count repeats exactly
        # whatever the number of traced rounds.
        "fingerprint.kchars_per_op": _ratio(rec.fingerprint_chars, 1000 * ops),
        "fingerprint.ms_per_op": _ratio(rec.total["fingerprint"] * ms, ops),
        "fingerprint.us_per_kchar": _ratio(rec.total["fingerprint"] * us, kchars),
        "disclosure.queries_per_op": _ratio(queries, ops),
        "disclosure.query_self_us": _ratio(
            rec.self_time["engine.disclosing_sources"] * us, queries
        ),
        "disclosure.candidates_per_query": _ratio(
            both("candidates_swept"), both("queries")
        ),
        "disclosure.observes_per_op": _ratio(
            rec.calls["engine.observe_fingerprint"], ops
        ),
        "disclosure.observe_self_ms_per_op": _ratio(
            rec.self_time["engine.observe_fingerprint"] * ms, ops
        ),
        "disclosure.hash_records_per_op": _ratio(rec.hash_records, ops),
        "disclosure.ownership_changes_per_op": _ratio(both("ownership_changes"), ops),
        "disclosure.distinct_hashes": float(
            end_state.get("engine.paragraph.distinct_hashes", 0)
            + end_state.get("engine.document.distinct_hashes", 0)
        ),
        "wal.records_per_op": _ratio(appends, ops),
        "wal.bytes_per_record": _ratio(d("wal.bytes_appended"), appends),
        "wal.append_ms_per_op": _ratio(rec.total["wal.journal"] * ms, ops),
        "wal.fsyncs_per_op": _ratio(d("wal.fsyncs"), ops),
        "wal.replay_records_per_s": (
            _ratio(replay["records"], replay["seconds"]) if replay else 0.0
        ),
        "tdm.check_self_us_per_decision": _ratio(
            rec.self_time["tdm.check_upload"] * us, decisions
        ),
        "tdm.observe_ms_per_page_load": _ratio(
            rec.total["tdm.observe"] * ms, page_loads
        ),
        "tdm.commits_per_op": _ratio(rec.calls["tdm.commit_upload"], ops),
        "tdm.commit_ms_per_op": _ratio(rec.total["tdm.commit_upload"] * ms, ops),
        "rwlock.write_hold_ms_per_op": _ratio(rec.lock_hold["write"] * ms, ops),
        "rwlock.read_hold_ms_per_op": _ratio(rec.lock_hold["read"] * ms, ops),
        "rwlock.write_acquisitions_per_op": _ratio(d("lock.write_acquisitions"), ops),
        "trace.overhead_ratio": overhead_ratio,
    }
    return metrics


#: Units of the per-layer metrics (also the order BENCHMARK.json lists).
LAYER_UNITS = {
    "browser.self_ms_per_op": "ms",
    "browser.readability_ms_per_page_load": "ms",
    "plugin.decisions_per_op": "count",
    "plugin.server_self_us_per_decision": "us",
    "plugin.lookup_self_us_per_decision": "us",
    "plugin.decision_cache_hit_ratio": "ratio",
    "plugin.fingerprint_cache_hit_ratio": "ratio",
    "plugin.editbuffer_updates_per_op": "count",
    "plugin.editbuffer_us_per_update": "us",
    "fingerprint.calls_per_op": "count",
    "fingerprint.kchars_per_op": "kchar",
    "fingerprint.ms_per_op": "ms",
    "fingerprint.us_per_kchar": "us",
    "disclosure.queries_per_op": "count",
    "disclosure.query_self_us": "us",
    "disclosure.candidates_per_query": "count",
    "disclosure.observes_per_op": "count",
    "disclosure.observe_self_ms_per_op": "ms",
    "disclosure.hash_records_per_op": "count",
    "disclosure.ownership_changes_per_op": "count",
    "disclosure.distinct_hashes": "count",
    "wal.records_per_op": "count",
    "wal.bytes_per_record": "B",
    "wal.append_ms_per_op": "ms",
    "wal.fsyncs_per_op": "count",
    "wal.replay_records_per_s": "1/s",
    "tdm.check_self_us_per_decision": "us",
    "tdm.observe_ms_per_page_load": "ms",
    "tdm.commits_per_op": "count",
    "tdm.commit_ms_per_op": "ms",
    "rwlock.write_hold_ms_per_op": "ms",
    "rwlock.read_hold_ms_per_op": "ms",
    "rwlock.write_acquisitions_per_op": "count",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer metrics that count work; they must repeat exactly.
COUNT_METRICS = tuple(
    name for name, unit in LAYER_UNITS.items()
    if unit in ("count", "kchar", "B") or name.endswith("_hit_ratio")
)
