"""The enterprise under test and the execution of one user operation.

The stack is the deployment the paper describes: one trusted wiki
(Lp = Lc = {tw}), untrusted Docs and Forum services, and one shared
``LookupServer`` in front of one ``PolicyLookup`` and one
``TextDisclosureModel`` built with the paper's §6.1 fingerprint
configuration. Every session has its own ``Browser`` and
``BrowserFlowPlugin`` in ENFORCE mode whose decisions go through a
``LookupClient`` to the shared server, as in the fleet simulator.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.browser.page import Browser
from repro.disclosure.engine import DisclosureTracker
from repro.disclosure.wal import (
    EngineJournal,
    WALSet,
    read_wal_directory,
    replay_records,
)
from repro.eval.fleet import ClientLookup
from repro.fingerprint.config import PAPER_CONFIG
from repro.plugin import PluginMode
from repro.plugin.lookup import PolicyLookup
from repro.plugin.plugin import BrowserFlowPlugin
from repro.plugin.server import LookupClient, LookupServer
from repro.services import DocsService, ForumService, WikiService
from repro.services.network import Network
from repro.tdm import Label, PolicyStore, TextDisclosureModel
from repro.tdm.model import SuppressionEvent

from workloads import Inputs, Op


class Enterprise:
    """Services, policies, the shared lookup tier and the indexed corpus.

    Construction is the benchmark's set-up: it builds the tier, indexes
    the confidential corpus by opening every wiki page through a plug-in,
    and stores the pre-existing documents and threads. *tick*, when
    given, is called after every ``tick_every``-th indexed page.
    """

    def __init__(
        self,
        inputs: Inputs,
        wal_dir: Optional[Path] = None,
        tick: Optional[Callable[[], object]] = None,
        tick_every: int = 1,
    ) -> None:
        self.network = Network()
        self.wiki = WikiService()
        self.docs = DocsService()
        self.forum = ForumService()
        for service in (self.wiki, self.docs, self.forum):
            self.network.register(service)
        policies = PolicyStore()
        policies.register_service(
            self.wiki.origin,
            privilege=Label.of("tw"),
            confidentiality=Label.of("tw"),
            display_name="Internal Wiki",
        )
        policies.register_service(self.docs.origin, display_name="Docs")
        policies.register_service(self.forum.origin, display_name="Forum")
        self.model = TextDisclosureModel(policies, PAPER_CONFIG)
        self.registry = self.model.registry
        self.server = LookupServer(PolicyLookup(self.model))
        self.wal: Optional[WALSet] = None
        if wal_dir is not None:
            self.wal = WALSet(wal_dir, scope=self.registry.scope("wal."))
            journal = EngineJournal(self.wal)
            self.model.tracker.paragraphs.attach_journal(journal)
            self.model.tracker.documents.attach_journal(journal)
            self.model.attach_journal(journal)

        for name, paragraphs in inputs.corpus:
            self.wiki.save_page(name, "\n\n".join(paragraphs))
        indexer = Session(self)
        for number, (name, _paragraphs) in enumerate(inputs.corpus, 1):
            indexer.tab.navigate(self.wiki.page_url(name))
            if tick is not None and number % tick_every == 0:
                tick()
        for doc_id, paragraphs in inputs.docs:
            doc = self.docs.backend.create(title=doc_id, doc_id=doc_id)
            doc.paragraphs = [(f"{doc_id}-p{i}", t) for i, t in enumerate(paragraphs)]
        for topic, posts in inputs.threads:
            for post in posts:
                self.forum.add_post(topic, post)

    def wal_bytes(self) -> int:
        assert self.wal is not None
        return sum(p.stat().st_size for p in self.wal.paths())

    def untrusted_paragraphs(self) -> List[Tuple[str, str, str]]:
        """(paragraph segment, document segment, text) of every paragraph
        the untrusted backends store, named as the plug-in names them."""
        qualify = BrowserFlowPlugin.qualify
        out = []
        for doc in self.docs.backend.all_documents():
            for par_id, text in doc.paragraphs:
                out.append((qualify(self.docs.origin, par_id),
                            qualify(self.docs.origin, doc.doc_id), text))
        for doc in self.forum.backend.all_documents():
            # Forum posts arrive by form; the plug-in names the document
            # after the form's action and hidden topic field.
            topic = doc.doc_id.split(":", 1)[1]
            doc_segment = qualify(self.forum.origin, f"form:/post?topic={topic}")
            for par_id, text in doc.paragraphs:
                out.append((qualify(self.forum.origin, par_id), doc_segment, text))
        return out

    def suppressed_segments(self) -> set:
        return {
            e.segment_id for e in self.model.audit if isinstance(e, SuppressionEvent)
        }

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()


class Session:
    """One simulated user: a browser with its own plug-in and one tab."""

    def __init__(self, enterprise: Enterprise) -> None:
        self.browser = Browser(enterprise.network)
        client = LookupClient(
            enterprise.server, scope=enterprise.registry.scope("client.")
        )
        self.plugin = BrowserFlowPlugin(
            enterprise.model,
            mode=PluginMode.ENFORCE,
            lookup=ClientLookup(enterprise.server, client),
        )
        self.plugin.attach(self.browser)
        self.tab = self.browser.new_tab()
        self.editor = None
        self.elements: Dict[str, object] = {}


class Outcome(NamedTuple):
    """What one op did: whether its upload went through, and what it sent."""

    delivered: bool
    service: str = ""
    segment: str = ""
    doc_segment: str = ""
    text: str = ""


def prepare(ent: Enterprise, session: Session, op: Op) -> None:
    """Untimed preparation: fill a form the way the user would have typed it."""
    if op.kind == "submit_wiki":
        # The user appends a paragraph to the page as it stands now.
        body = ent.wiki.page_text(op.target)
        field = session.tab.document.get_element_by_id("edit-body")
        field.set_attribute("value", body + "\n\n" + op.text if body else op.text)
    elif op.kind == "submit_forum":
        field = session.tab.document.get_element_by_id("message")
        field.set_attribute("value", op.text)


def execute(ent: Enterprise, session: Session, op: Op) -> Outcome:
    """Run one op through the browser; the plug-in intercepts as it would."""
    kind = op.kind
    if kind == "open_doc":
        session.editor = ent.docs.open_editor(session.tab, op.target)
        session.elements = {}
        return Outcome(True)
    if kind == "open_page":
        session.tab.navigate(ent.wiki.page_url(op.target))
        return Outcome(True)
    if kind == "open_thread":
        session.tab.navigate(ent.forum.thread_url(op.target))
        return Outcome(True)
    if kind == "submit_wiki" or kind == "submit_forum":
        form_id = "edit-form" if kind == "submit_wiki" else "composer"
        form = session.tab.document.get_element_by_id(form_id)
        response = session.tab.window.submit(form)
        delivered = response is not None and response.ok
        service = ent.wiki.origin if kind == "submit_wiki" else ent.forum.origin
        field = "edit-body" if kind == "submit_wiki" else "message"
        text = session.tab.document.get_element_by_id(field).get_attribute("value")
        return Outcome(delivered, service, text=text)

    editor = session.editor
    element = session.elements.get(op.par)
    if element is None:
        element = editor.new_paragraph(par_id=op.par)
        session.elements[op.par] = element
    if kind == "key":
        delivered = editor.type_text(element, op.text) == 1
    elif kind == "delete":
        delivered = editor.delete_text(element, op.index, op.count)
    elif kind == "paste":
        delivered = editor.paste(element, op.text)
    elif kind == "declassify":
        delivered = _declassify(ent, session, op, element)
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    origin = ent.docs.origin
    return Outcome(
        delivered,
        origin,
        BrowserFlowPlugin.qualify(origin, op.par),
        BrowserFlowPlugin.qualify(origin, op.target),
        element.text_content(),
    )


def _declassify(ent: Enterprise, session: Session, op: Op, element) -> bool:
    """Suppress the offending tags of the refused paste, then re-send it.

    A refused paste warns at both granularities (the paragraph and the
    document it would join); the user declassifies every offending tag
    of the latest warning for each, and the re-sent text consumes the
    suppressions on the upload path, which records them in the audit log.
    """
    origin = ent.docs.origin
    wanted = (
        BrowserFlowPlugin.qualify(origin, op.par),
        BrowserFlowPlugin.qualify(origin, op.target),
    )
    latest: Dict[str, Tuple[str, ...]] = {}
    for warning in session.plugin.warnings:
        if warning.segment_id in wanted:
            latest[warning.segment_id] = warning.offending
    for segment_id, offending in sorted(latest.items()):
        for tag in sorted(set(offending)):
            session.plugin.suppress(segment_id, tag, f"user-{op.session}", "benchmark")
    return session.editor.set_paragraph_text(element, op.text)


def recover(wal_dir: Path) -> Tuple[DisclosureTracker, int]:
    """Rebuild both disclosure engines from the journal alone."""
    records, _torn = read_wal_directory(wal_dir)
    tracker = DisclosureTracker(PAPER_CONFIG)
    replay_records(
        records,
        lambda kind: tracker.documents if kind == "document" else tracker.paragraphs,
    )
    return tracker, len(records)


def verdicts(tracker: DisclosureTracker, texts: List[str]) -> List[Tuple]:
    """Algorithm 1 at both granularities for every text, comparably."""
    out = []
    for engine in (tracker.paragraphs, tracker.documents):
        for text in texts:
            report = engine.disclosing_sources(fingerprint=engine.fingerprint(text))
            out.append(tuple(sorted((s.segment_id, s.score) for s in report.sources)))
    return out
