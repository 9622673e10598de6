"""Run one benchmark workload against the BrowserFlow check pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload docs-keystroke --seed 1 --seconds 20 --trace 0

The inputs are generated from ``--seed`` before any timing. A run then
repeats whole rounds until ``--seconds`` have passed (at least
``MIN_ROUNDS``): each round builds a fresh enterprise (timed as set-up),
replays the workload's schedule closed-loop from this one thread, and
checks the outcome. Every round executes the same operations on the
same state, so the rounds are samples of one experiment. Each round's
times are scaled to a reference speed by a fixed task timed between its
ops (calibrate.py); each op's time is then the median of its rounds
(see :func:`per_op_median`), and set-up time the median set-up.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` rounds alternate untraced and traced, the per-layer
metrics come from the traced rounds, and their spans (the first
``tracing.MAX_KEPT_SPANS``) are written to ``perfbench/out/``. The line
before the last holds the input digest, the checks and the per-kind
breakdown.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Interpreter hash seed every measured run uses (re-exec'd if unset).
PINNED_HASH_SEED = 0
MIN_ROUNDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--hash-seed", type=int, default=PINNED_HASH_SEED,
        help="PYTHONHASHSEED to run under (the steadiness check varies it)",
    )
    return parser.parse_args(argv)


def pin_hash_seed(hash_seed: int) -> None:
    """Replace this process with one running under *hash_seed*."""
    if os.environ.get("PYTHONHASHSEED") == str(hash_seed):
        return
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    k = (len(ordered) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def per_op_median(rows):
    """Element-wise median over rounds of equally long timing lists.

    Every round executes the same operations on the same state, so the
    i-th entries of all rounds time the same work.
    """
    return [statistics.median(column) for column in zip(*rows)]


def numeric(snapshot):
    return {k: float(v) for k, v in snapshot.items() if isinstance(v, (int, float))}


def run_round(inputs, number, recorder, check, rebuild):
    """Set up, replay every op, verify; returns the round's record.

    *check* runs the oracle and the recovered-verdict comparison;
    *rebuild* times the rebuild of the engines from the journal. The
    reference task (calibrate.py) runs at fixed points of the set-up and
    between ops at fixed op indices; its times are the round's
    ``setup_calibration`` and ``calibration``, and are not part of the
    set-up or op times.
    """
    import calibrate

    from oracle import Oracle, check as oracle_check
    from stack import Enterprise, Session, execute, prepare, recover, verdicts
    from workloads import OP_CLASS, PROBE_PAR

    gc.collect()
    gc.freeze()
    wal_dir = None
    if inputs.journaled:
        wal_dir = OUT_DIR / f"wal-{os.getpid()}-{number}"
        shutil.rmtree(wal_dir, ignore_errors=True)
    if recorder is not None:
        recorder.install()
    setup_calibration = []
    tick_every = max(1, len(inputs.corpus) // calibrate.TICKS_PER_SETUP)
    started = time.perf_counter()
    ent = Enterprise(
        inputs, wal_dir, lambda: setup_calibration.append(calibrate.sample()), tick_every
    )
    setup_s = time.perf_counter() - started - sum(setup_calibration)
    if recorder is not None:
        recorder.watch_lock(ent.model.lock)
    before = numeric(ent.registry.snapshot())
    wal_before = ent.wal_bytes() if wal_dir else 0

    sessions = {}
    latencies = []
    delivered = []
    uploads = []
    wiki_texts = []
    failed = 0
    errors = []
    probe_allowed = None
    calibration = []
    every = max(1, len(inputs.ops) // calibrate.TICKS_PER_ROUND)
    page_loads = 0
    if recorder is not None:
        lookups_before = recorder.calls["lookup"]
        recorder.active = True
    # Earlier rounds' results and then the set-up state are exempt from
    # collection, so every round's set-up and replay start from the same
    # collector state and its full collections land on the same ops.
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    for index, op in enumerate(inputs.ops):
        if index % every == 0:
            calibration.append(calibrate.sample())
        session = sessions.get(op.session)
        if session is None:
            session = sessions[op.session] = Session(ent)
        outcome = None
        try:
            prepare(ent, session, op)
            if recorder is not None:
                recorder.op = index
                frame = recorder.enter("op")
            began = time.perf_counter()
            try:
                outcome = execute(ent, session, op)
            finally:
                latencies.append(time.perf_counter() - began)
                if recorder is not None:
                    recorder.exit(frame)
        except Exception as exc:  # an op that raises is counted, not fatal
            failed += 1
            if len(errors) < 3:
                errors.append(f"op {index} ({op.kind}): {exc!r}")
        if op.par == PROBE_PAR and outcome is not None:
            # The probe's last paste shares nothing with the wiki and
            # should go through; the known fault (workloads._probe)
            # refuses it. Refused, it is a failed op, and the oracle
            # judges only ops that did not fail.
            probe_allowed = outcome.delivered
            if not outcome.delivered:
                failed += 1
                delivered.append(False)
                continue
        if OP_CLASS[op.kind] == "page_load":
            page_loads += 1
        delivered.append(outcome.delivered if outcome is not None else None)
        if outcome is not None and outcome.service:
            if outcome.service == ent.wiki.origin:
                if outcome.delivered:
                    wiki_texts.append(op.text)
            else:
                uploads.append((index, outcome))
    replay_s = time.perf_counter() - started
    gc.unfreeze()
    if recorder is not None:
        recorder.active = False
        recorder.uninstall()
    after = numeric(ent.registry.snapshot())
    deltas = {k: after[k] - before.get(k, 0.0) for k in after}

    decision_times = [t for s in sessions.values() for t in s.plugin.response_times]
    result = {
        "setup_s": setup_s,
        "setup_calibration": setup_calibration,
        "calibration": calibration,
        "replay_s": replay_s,
        "latencies": latencies,
        "decision_times": decision_times,
        "delivered": delivered,
        "failed": failed,
        "errors": errors,
        "page_loads": page_loads,
        "deltas": deltas,
        "end_state": after,
        "plugin_decisions_gauge": after.get("plugin.decisions", 0.0),
        "probe_allowed": probe_allowed,
        "checks": {},
    }
    if recorder is not None:
        # Decisions counted from each plug-in's own response times must
        # match the decisions the shared lookup made.
        result["checks"]["decisions_match_lookups"] = (
            recorder.calls["lookup"] - lookups_before == len(decision_times)
        )

    if wal_dir is not None:
        on_disk = ent.wal_bytes() - wal_before
        appended = deltas.get("wal.bytes_appended", 0.0)
        result["wal_bytes"] = on_disk
        result["checks"]["wal_bytes_match_registry"] = on_disk == appended
        ent.close()
        if rebuild or check:
            started = time.perf_counter()
            rebuilt, records = recover(wal_dir)
            result["recovery_s"] = time.perf_counter() - started
            result["replayed_records"] = records
        if check:
            texts = sorted(
                {o.text for _i, o in uploads if o.delivered} | set(wiki_texts)
            )
            result["checks"]["recovered_verdicts_identical"] = (
                verdicts(rebuilt, texts) == verdicts(ent.model.tracker, texts)
            )
            result["verdict_texts"] = len(texts)
        shutil.rmtree(wal_dir, ignore_errors=True)

    if check:
        oracle = Oracle(p for _n, paragraphs in inputs.corpus for p in paragraphs)
        for text in wiki_texts:
            oracle.add_wiki_text(text)
        result["oracle"] = oracle_check(
            oracle, uploads, ent.untrusted_paragraphs(), ent.suppressed_segments()
        )
        result["oracle"]["secrets"] = oracle.secret_count
        result["checks"]["oracle"] = result["oracle"]["ok"]
    return result


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    pin_hash_seed(args.hash_seed)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import calibrate
    import workloads
    from workloads import OP_CLASS

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = workloads.generate(args.workload, args.seed)

    recorder = None
    if args.trace:
        from tracing import Recorder

        recorder = Recorder()

    rounds = []
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        traced = recorder is not None and len(rounds) % 2 == 1
        rounds.append(run_round(
            inputs, len(rounds), recorder if traced else None,
            check=not rounds, rebuild=traced or len(rounds) < MIN_ROUNDS,
        ))
        rounds[-1]["traced"] = traced

    first = rounds[0]
    checks = dict(first["checks"])
    checks["rounds_agree"] = all(
        r["delivered"] == first["delivered"]
        and len(r["decision_times"]) == len(first["decision_times"])
        for r in rounds
    )
    for r in rounds[1:]:
        for name, ok in r["checks"].items():
            checks[name] = checks.get(name, True) and ok
    correct = all(checks.values())
    attempted = len(inputs.ops) * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    # A known fault is named here, not among the checks: the op it
    # fails is counted in `failed`, and the entry turns true once the
    # program is fixed.
    known_faults = {}
    if first["probe_allowed"] is not None:
        known_faults["probe_clean_paste_allowed"] = all(
            r["probe_allowed"] for r in rounds
        )

    # Each round's times are scaled to the reference speed by the median
    # of the reference task's times in that round (calibrate.py), its
    # set-up by the samples taken during the set-up.
    for r in rounds:
        r["scale"] = calibrate.REFERENCE_S / statistics.median(r["calibration"])
        r["setup_scale"] = (
            calibrate.REFERENCE_S / statistics.median(r["setup_calibration"])
        )
    plain = [r for r in rounds if not r["traced"]]
    op_times = per_op_median(
        [[t * r["scale"] for t in r["latencies"]] for r in plain]
    )
    decision_times = per_op_median(
        [[t * r["scale"] for t in r["decision_times"]] for r in plain]
    )
    setup_s = statistics.median(r["setup_s"] * r["setup_scale"] for r in plain)
    unscaled_ops = per_op_median([r["latencies"] for r in plain])
    unscaled_decisions = per_op_median([r["decision_times"] for r in plain])
    per_kind = {}
    for kind in sorted(set(OP_CLASS.values())):
        samples = [t for op, t in zip(inputs.ops, op_times) if OP_CLASS[op.kind] == kind]
        if samples:
            per_kind[kind] = {
                "n": len(samples),
                "p50_ms": percentile(samples, 0.5) * 1000,
                "p90_ms": percentile(samples, 0.9) * 1000 if len(samples) >= 100 else None,
            }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "hash_seed": int(os.environ.get("PYTHONHASHSEED", "-1")),
        "inputs": inputs.describe(),
        "rounds": len(rounds),
        "traced_rounds": sum(1 for r in rounds if r["traced"]),
        "checks": checks,
        "known_faults": known_faults,
        "errors": [e for r in rounds for e in r["errors"]][:3],
        "oracle": first.get("oracle"),
        "per_kind": per_kind,
        "blocked_ops_per_round": sum(1 for d in first["delivered"] if d is False),
        "decisions_per_round": len(first["decision_times"]),
        "plugin_decisions_gauge": first["plugin_decisions_gauge"],
        "calibration_ms_rounds": [
            statistics.median(r["calibration"]) * 1000 for r in rounds
        ],
        "unscaled": {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "ops_per_s": len(unscaled_ops) / sum(unscaled_ops),
            "op_p50_ms": percentile(unscaled_ops, 0.5) * 1000,
            "op_p90_ms": percentile(unscaled_ops, 0.9) * 1000,
            "decision_p50_ms": percentile(unscaled_decisions, 0.5) * 1000,
            "decision_p90_ms": percentile(unscaled_decisions, 0.9) * 1000,
        },
        "replay_s_rounds": [r["replay_s"] for r in rounds],
    }
    if inputs.journaled:
        detail["wal_bytes_per_op"] = first["wal_bytes"] / len(inputs.ops)
        detail["recovery_s"] = statistics.median(
            r["recovery_s"] * r["scale"] for r in rounds if "recovery_s" in r
        )
        detail["recovery_records"] = first["replayed_records"]
        detail["verdict_texts"] = first["verdict_texts"]
    print(json.dumps({"detail": detail}))

    if recorder is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(op_times) / sum(op_times), "ops/s"),
            "op_p50_ms": (percentile(op_times, 0.5) * 1000, "ms"),
            "op_p90_ms": (percentile(op_times, 0.9) * 1000, "ms"),
            "decision_p50_ms": (percentile(decision_times, 0.5) * 1000, "ms"),
            "decision_p90_ms": (percentile(decision_times, 0.9) * 1000, "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
    else:
        from tracing import LAYER_UNITS, layer_metrics

        traced = [r for r in rounds if r["traced"]]
        deltas = {}
        for r in traced:
            for name, value in r["deltas"].items():
                deltas[name] = deltas.get(name, 0.0) + value
        replay = None
        if inputs.journaled:
            replay = {
                "records": sum(r["replayed_records"] for r in traced),
                "seconds": sum(r["recovery_s"] for r in traced),
            }
        values = layer_metrics(
            recorder,
            ops=len(inputs.ops) * len(traced),
            page_loads=sum(r["page_loads"] for r in traced),
            op_self_s=recorder.self_time["op"],
            deltas=deltas,
            end_state=traced[-1]["end_state"],
            replay=replay,
            overhead_ratio=(
                statistics.median(sum(r["latencies"]) * r["scale"] for r in traced)
                / statistics.median(sum(r["latencies"]) * r["scale"] for r in plain)
            ),
        )
        # Layer times are scaled like the end-to-end ones, by the traced
        # rounds' median scale.
        scale = statistics.median(r["scale"] for r in traced)
        factor = {"ms": scale, "us": scale, "1/s": 1 / scale}
        metrics = {
            name: (values[name] * factor.get(unit, 1.0), unit)
            for name, unit in LAYER_UNITS.items()
        }
        recorder.write(
            OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed,
             "digest": inputs.digest, "traced_rounds": len(traced)},
        )

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
