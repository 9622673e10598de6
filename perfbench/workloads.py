"""Seeded inputs for the three workloads.

Everything a run executes is generated here, before any timing, as a
pure function of ``(workload, seed)``: the confidential wiki corpus
indexed at set-up, the pre-existing shared documents and forum threads,
and the schedule of user operations. Sessions get arrival times and
think times in virtual time; the schedule is every session's operations
merged in virtual-time order, which the runner replays closed-loop from
one thread (virtual time only orders the replay, it is never waited on).

The seed chooses the text, never the amount or shape of the work: every
seed gets the same sessions, arrivals, tasks in the same order, the same
targets (Zipf weights are turned into exact quotas, then shuffled by a
fixed generator) and texts of the same lengths; only the words differ.
Runs with different seeds therefore measure the same experiment on
different text.

A "secret" is one paragraph placed in the trusted wiki. Public text is
drawn independently from the same vocabulary and seldom shares an
n-gram with the corpus (the oracle checks every op either way).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

from textgen import Prose

WORKLOADS = ("docs-keystroke", "shared-pages", "forms-wal")

#: Confidential wiki pages indexed through the plug-in at set-up.
CORPUS_PAGES = 160
CORPUS_PARAGRAPHS = 4
#: Characters per corpus paragraph and per pasted or posted paragraph.
PARAGRAPH_CHARS = 240
#: Characters of a secret typed key by key; refused well before the end.
SECRET_PREFIX_CHARS = 180
#: Characters of a public sentence typed key by key.
TYPED_CHARS = 48


class Op(NamedTuple):
    """One user operation.

    ``kind`` is one of ``open_doc``, ``open_page``, ``open_thread``,
    ``key`` (one typed character), ``delete`` (one delete keystroke over
    ``count`` characters at ``index``), ``paste``, ``submit_wiki``,
    ``submit_forum`` and ``declassify``.
    """

    session: int
    kind: str
    target: str
    par: str = ""
    text: str = ""
    index: int = 0
    count: int = 0


#: Latency class of each op kind, as reported per kind.
OP_CLASS = {
    "open_doc": "page_load",
    "open_page": "page_load",
    "open_thread": "page_load",
    "key": "keystroke",
    "delete": "keystroke",
    "paste": "paste",
    "submit_wiki": "submit",
    "submit_forum": "submit",
    "declassify": "declassify",
}


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    #: (page name, paragraphs) of the confidential corpus.
    corpus: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: Docs documents that exist before the run: (doc id, paragraphs).
    docs: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: Forum threads that exist before the run: (topic, posts).
    threads: Tuple[Tuple[str, Tuple[str, ...]], ...]
    ops: Tuple[Op, ...]

    @property
    def journaled(self) -> bool:
        """Whether the engines journal into a WAL (``forms-wal`` only)."""
        return self.workload == "forms-wal"

    @property
    def digest(self) -> str:
        payload = json.dumps(
            [self.workload, self.seed, self.corpus, self.docs, self.threads, self.ops],
            ensure_ascii=False,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> Dict[str, object]:
        kinds: Dict[str, int] = {}
        for op in self.ops:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        return {
            "sessions": len({op.session for op in self.ops}),
            "ops": len(self.ops),
            "op_kinds": dict(sorted(kinds.items())),
            "corpus_pages": len(self.corpus),
            "corpus_paragraphs": sum(len(p) for _n, p in self.corpus),
            "corpus_chars": sum(len(t) for _n, p in self.corpus for t in p),
            "docs": len(self.docs),
            "threads": len(self.threads),
            "digest": self.digest,
        }


def quota(counts: Dict[object, int], rng: random.Random) -> List:
    """Every key repeated its count of times, in seeded order."""
    out = [key for key, n in counts.items() for _ in range(n)]
    rng.shuffle(out)
    return out


def zipf_quota(items: Sequence[str], draws: int, s: float, rng: random.Random) -> List[str]:
    """*draws* picks of *items* with exact Zipf shares (rank k weighs 1/(k+1)^s)."""
    weights = [(k + 1) ** -s for k in range(len(items))]
    total = sum(weights)
    exact = [draws * w / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(items)), key=lambda k: (counts[k] - exact[k], k))
    for k in by_remainder[: draws - sum(counts)]:
        counts[k] += 1
    return quota({item: n for item, n in zip(items, counts)}, rng)


class _Session:
    """Builds one session's ops with virtual timestamps."""

    def __init__(self, index: int, arrival: float, rng: random.Random) -> None:
        self.index = index
        self.rng = rng
        self.t = arrival
        self.timed: List[Tuple[float, int, int, Op]] = []

    def add(self, kind: str, target: str, **fields) -> None:
        self.t += self.rng.expovariate(1.0 / 0.4)
        seq = len(self.timed)
        self.timed.append(
            (self.t, self.index, seq, Op(self.index, kind, target, **fields))
        )

    def type_text(self, doc: str, par: str, text: str) -> None:
        for ch in text:
            self.add("key", doc, par=par, text=ch)


def _corpus(seed: int) -> List[Tuple[str, Tuple[str, ...]]]:
    prose = Prose(random.Random(f"perfbench:{seed}:corpus"))
    return [
        (f"Secret-{k}",
         tuple(prose.text(PARAGRAPH_CHARS) for _ in range(CORPUS_PARAGRAPHS)))
        for k in range(CORPUS_PAGES)
    ]


#: Characters a word-level fix-up deletes and retypes.
FIXUP_CHARS = 12


def _fixup(session: _Session, doc: str, par: str, text: str, prose: Prose) -> str:
    """Rewrite the paragraph's tail: one delete keystroke, then typing.

    The editor appends at the end of a paragraph, so a fix-up of the last
    words deletes them and types their replacement.
    """
    index = len(text) - FIXUP_CHARS
    session.add("delete", doc, par=par, index=index, count=FIXUP_CHARS)
    tail = prose.text(FIXUP_CHARS)
    session.type_text(doc, par, tail)
    return text[:index] + tail


def _docs_keystroke(sessions, secrets, pages, prose: Prose, rng: random.Random):
    shared = [f"team-{k}" for k in range(4)]
    docs = [(d, (prose.text(PARAGRAPH_CHARS),)) for d in shared]
    # After the opening sentence each session does three tasks drawn
    # from this pool; a re-open always comes last.
    tasks = quota(
        {"fixup": 14, "secret_prefix": 12, "type": 10, "paste": 8,
         "paste_partial": 4, "paste_secret": 4, "reopen": 2},
        rng,
    )
    owners = quota({True: 14, False: 4}, rng)
    for s, owns in zip(sessions, owners):
        doc = f"own-{s.index}" if owns else shared[s.index % len(shared)]
        if owns:
            docs.append((doc, ()))
        s.add("open_doc", doc)
        first = f"k{s.index}p0"
        typed = [(first, prose.text(TYPED_CHARS))]
        s.type_text(doc, first, typed[0][1])
        mine = sorted(tasks[3 * s.index: 3 * s.index + 3], key=lambda t: t == "reopen")
        for n, task in enumerate(mine, start=1):
            par = f"k{s.index}p{n}"
            if task == "fixup":
                k = s.rng.randrange(len(typed))
                fixed, text = typed[k]
                typed[k] = (fixed, _fixup(s, doc, fixed, text, prose))
            elif task == "type":
                typed.append((par, prose.text(TYPED_CHARS)))
                s.type_text(doc, par, typed[-1][1])
            elif task == "secret_prefix":
                s.type_text(doc, par, s.rng.choice(secrets)[:SECRET_PREFIX_CHARS])
            elif task == "paste":
                s.add("paste", doc, par=par, text=prose.text(PARAGRAPH_CHARS))
            elif task == "paste_partial":
                secret = s.rng.choice(secrets)
                s.add("paste", doc, par=par, text=secret[: PARAGRAPH_CHARS // 5])
            elif task == "paste_secret":
                s.add("paste", doc, par=par, text=s.rng.choice(secrets))
            else:
                s.add("open_doc", doc)
    return docs, []


def _shared_pages(sessions, secrets, pages, prose: Prose, rng: random.Random):
    hot_docs = [f"hot-{k}" for k in range(12)]
    topics = [f"topic-{k}" for k in range(10)]
    docs = [(d, tuple(prose.text(PARAGRAPH_CHARS) for _ in range(2))) for d in hot_docs]
    threads = [(t, tuple(prose.text(PARAGRAPH_CHARS // 2) for _ in range(2))) for t in topics]
    shapes = quota({"docs": 90, "wiki": 45, "forum": 45}, rng)
    doc_visits = iter(zipf_quota(hot_docs, 90, 1.1, rng))
    page_visits = iter(zipf_quota(pages, 90, 1.1, rng))
    topic_visits = iter(zipf_quota(topics, 45, 1.1, rng))
    doc_tasks = iter(quota(
        {"paste": 96, "paste_partial": 42, "paste_secret": 24,
         "paste_declassify": 18, "type": 28, "reopen": 62},
        rng,
    ))
    wiki_edits = iter(quota({True: 9, False: 81}, rng))
    replies = iter(quota({"public": 80, "partial": 5, "secret": 5}, rng))
    # Declassified paragraphs come from distinct wiki pages, and partial
    # copies from none of those pages, so no document collects half of
    # one page (see the probe session below for what happens then).
    n_pages = len(secrets) // CORPUS_PARAGRAPHS
    page_order = rng.sample(range(n_pages), n_pages)
    declassified = iter(
        secrets[page * CORPUS_PARAGRAPHS + rng.randrange(CORPUS_PARAGRAPHS)]
        for page in page_order[:18]
    )
    partial_pool = [
        secrets[page * CORPUS_PARAGRAPHS + k]
        for page in page_order[18:] for k in range(CORPUS_PARAGRAPHS)
    ]
    for s, shape in zip(sessions, shapes):
        if shape == "docs":
            doc = next(doc_visits)
            s.add("open_doc", doc)
            for n in range(3):
                task = next(doc_tasks)
                par = f"h{s.index}p{n}"
                if task == "paste":
                    s.add("paste", doc, par=par, text=prose.text(PARAGRAPH_CHARS))
                elif task == "paste_partial":
                    secret = s.rng.choice(partial_pool)
                    s.add("paste", doc, par=par, text=secret[: PARAGRAPH_CHARS // 4])
                elif task == "paste_secret":
                    s.add("paste", doc, par=par, text=s.rng.choice(secrets))
                elif task == "paste_declassify":
                    secret = next(declassified)
                    s.add("paste", doc, par=par, text=secret)
                    s.add("declassify", doc, par=par, text=secret)
                elif task == "type":
                    s.type_text(doc, par, prose.text(6))
                else:
                    s.add("open_doc", doc)
        elif shape == "wiki":
            for _ in range(2):
                page = next(page_visits)
                s.add("open_page", page)
                if next(wiki_edits):
                    s.add("submit_wiki", page, text=prose.text(PARAGRAPH_CHARS))
        else:
            topic = next(topic_visits)
            s.add("open_thread", topic)
            for _ in range(2):
                kind = next(replies)
                if kind == "public":
                    text = prose.text(PARAGRAPH_CHARS // 2)
                elif kind == "partial":
                    text = s.rng.choice(partial_pool)[: PARAGRAPH_CHARS // 4]
                else:
                    text = s.rng.choice(secrets)
                s.add("submit_forum", topic, text=text)
    docs.append((PROBE_DOC, ()))
    _probe(sessions[-1])
    return docs, threads


#: The probe: a fixed wiki page, and a fixed session that declassifies
#: three of its paragraphs into one document one by one, re-opens the
#: document, then pastes public text into it. The text seed does not
#: vary any of it.
PROBE_PAGE = "Probe"
PROBE_DOC = "probe-doc"
#: Paragraph id of the probe's last paste, which the program refuses.
PROBE_PAR = "probe-public"


def _probe_texts() -> Tuple[Tuple[str, ...], str]:
    prose = Prose(random.Random("perfbench:probe"))
    page = tuple(prose.text(PARAGRAPH_CHARS) for _ in range(CORPUS_PARAGRAPHS))
    return page, prose.text(PARAGRAPH_CHARS)


def _probe(s: _Session) -> None:
    """The probe session's ops (see :data:`PROBE_PAGE`).

    Each paste of a whole page paragraph is refused at paragraph
    granularity only, so the user declassifies just the paragraph. Once
    the document holds three quarters of the page, opening it labels the
    whole document with the wiki's tag, and the program refuses the last
    paste although its text shares nothing with the wiki.
    """
    page, public = _probe_texts()
    s.add("open_doc", PROBE_DOC)
    for k in range(3):
        par = f"probe-p{k}"
        s.add("paste", PROBE_DOC, par=par, text=page[k])
        s.add("declassify", PROBE_DOC, par=par, text=page[k])
    s.add("open_doc", PROBE_DOC)
    s.add("paste", PROBE_DOC, par=PROBE_PAR, text=public)


def _forms_wal(sessions, secrets, pages, prose: Prose, rng: random.Random):
    topics = [f"board-{k}" for k in range(16)]
    threads = [(t, (prose.text(PARAGRAPH_CHARS),)) for t in topics]
    shapes = quota({"wiki": 68, "forum": 67, "reader": 15}, rng)
    page_visits = iter(zipf_quota(pages, 68 + 3 * 15, 0.8, rng))
    topic_visits = iter(zipf_quota(topics, 67, 0.8, rng))
    edits = iter(quota({1: 34, 2: 34}, rng))
    replies = iter(quota({1: 64, 2: 62, "secret": 8}, rng))
    for s, shape in zip(sessions, shapes):
        if shape == "wiki":
            page = next(page_visits)
            s.add("open_page", page)
            for _ in range(next(edits)):
                s.add("submit_wiki", page, text=prose.text(PARAGRAPH_CHARS))
        elif shape == "forum":
            topic = next(topic_visits)
            s.add("open_thread", topic)
            for _ in range(2):
                kind = next(replies)
                if kind == "secret":
                    text = s.rng.choice(secrets)
                else:
                    text = "\n\n".join(prose.text(PARAGRAPH_CHARS) for _ in range(kind))
                s.add("submit_forum", topic, text=text)
        else:
            for _ in range(3):
                s.add("open_page", next(page_visits))
    return [], threads


#: Sessions per round of each workload (the task quotas above match).
SESSIONS = {"docs-keystroke": 18, "shared-pages": 180, "forms-wal": 150}
_BUILDERS = {
    "docs-keystroke": _docs_keystroke,
    "shared-pages": _shared_pages,
    "forms-wal": _forms_wal,
}


def generate(workload: str, seed: int) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    corpus = _corpus(seed)
    secrets = [p for _name, paragraphs in corpus for p in paragraphs]
    pages = [name for name, _p in corpus]
    prose = Prose(random.Random(f"perfbench:{seed}:{workload}:text"))
    # The plan (arrivals, think times, task order, targets, which secret)
    # is the same for every seed; the seed chooses the text.
    rng = random.Random(f"perfbench:{workload}:plan")
    sessions: List[_Session] = []
    t = 0.0
    for index in range(SESSIONS[workload]):
        t += rng.expovariate(4.0)
        sessions.append(
            _Session(index, t, random.Random(f"perfbench:{workload}:s{index}"))
        )
    if workload == "shared-pages":
        sessions.append(_Session(
            len(sessions), 1.0, random.Random("perfbench:probe-session")
        ))
        corpus.append((PROBE_PAGE, _probe_texts()[0]))
    docs, threads = _BUILDERS[workload](sessions, secrets, pages, prose, rng)
    timed = sorted(entry for s in sessions for entry in s.timed)
    return Inputs(
        workload=workload,
        seed=seed,
        corpus=tuple(corpus),
        docs=tuple(docs),
        threads=tuple(threads),
        ops=tuple(op for _t, _s, _q, op in timed),
    )
