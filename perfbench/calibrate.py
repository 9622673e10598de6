"""A fixed reference task that measures how fast the machine runs now.

The machine the benchmark was built on runs the same pure-Python code
up to twice as slowly from one second to the next, and stays in a slow
phase for minutes at a time. Other tenants share its caches and memory:
thread CPU time slows with wall time, so it is not time stolen from the
process but slower execution. No estimator over the program's own
timings can tell such a phase from a slower program.

This task is the benchmark's own code and never touches the program. It
does, on fixed data, the three kinds of work the check pipeline does:
random lookups in a dict too big for the caches (hash databases),
normalising text and hashing its n-grams, and allocating short-lived
dicts and lists (DOM nodes, messages). ``run.py`` runs it between ops,
``TICKS_PER_ROUND`` times a round, and during set-up. There the
program's work has evicted the task's data, so the task pays memory
latency as the program does and slows with it when a neighbour loads
the memory system; run back to back, it stays in cache and does not.
Every time the benchmark reports is scaled by ``REFERENCE_S`` over the
median sample of its round and reads as the time it would take at the
reference speed. A change to the program cannot move the task, so a
slower program still reads slower.
"""

from __future__ import annotations

import random
import time

#: The task's median time between ops at the speed the figures are
#: scaled to, fixed once (about its median between ops on the reference
#: machine in a fast phase, see README) so that figures from different
#: runs and commits compare directly.
REFERENCE_S = 0.002

#: Samples per round, spread evenly over its ops, and per set-up,
#: spread evenly over the indexing of the corpus.
TICKS_PER_ROUND = 80
TICKS_PER_SETUP = 16

_NGRAM = 15
_rng = random.Random("perfbench-calibration-v2")
#: About 13 MB with its key list: larger than the caches, like the
#: program's hash databases.
_TABLE = {_rng.getrandbits(32): i for i in range(100_000)}
_KEYS = list(_TABLE)
_PROBES = [_KEYS[_rng.randrange(len(_KEYS))] for _ in range(3_000)]
_TEXT = " ".join(
    "".join(_rng.choice("abcdefghijklmnop") for _ in range(_rng.randint(2, 7)))
    for _ in range(90)
).title() + "."


def _lookups() -> int:
    table = _TABLE
    total = 0
    for key in _PROBES:
        total += table[key]
    return total


def _text() -> int:
    norm = "".join(ch for ch in _TEXT.lower() if ch.isalnum())
    grams = {norm[i:i + _NGRAM] for i in range(len(norm) - _NGRAM + 1)}
    h = 0
    for ch in norm:
        h = (h * 257 + ord(ch)) & 0xFFFFFFFF
    return h ^ len(grams)


def _allocations() -> int:
    kept = []
    for i in range(400):
        kept.append({"id": i, "text": "x" * (i % 40), "children": [i, i + 1, (i, i)]})
        if len(kept) > 100:
            del kept[:50]
    return len(kept)


def sample() -> float:
    """Seconds the reference task takes now."""
    started = time.perf_counter()
    _lookups()
    _text()
    _allocations()
    return time.perf_counter() - started
