"""An independent verdict oracle over raw text.

It imports nothing from the program's fingerprinting or disclosure
code: it applies the paper's normalisation (drop everything but letters
and digits, lower-case) and compares n-gram sets and whole-paragraph
containment directly. Three checks close every workload:

1. every upload to an untrusted service that contains a whole secret
   verbatim was refused, unless a recorded suppression covers the
   paragraph or its document;
2. every upload whose text shares no n-gram with anything placed in the
   trusted wiki was allowed;
3. no untrusted backend stores a whole secret that no suppression covers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

#: n-gram length of the paper's §6.1 configuration.
NGRAM = 15


def normalise(text: str) -> str:
    return "".join(ch for ch in text.lower() if ch.isalnum())


def ngrams(normalised: str) -> Set[str]:
    return {normalised[i:i + NGRAM] for i in range(len(normalised) - NGRAM + 1)}


class Oracle:
    """Knows every secret and every n-gram placed in the trusted wiki."""

    def __init__(self, secrets: Iterable[str]) -> None:
        self._wiki_ngrams: Set[str] = set()
        self._secrets: Dict[str, List[str]] = {}  # first n-gram -> secrets
        self.secret_count = 0
        for secret in secrets:
            self.add_wiki_text(secret)

    def add_wiki_text(self, paragraph: str) -> None:
        norm = normalise(paragraph)
        if len(norm) < NGRAM:
            return
        self._wiki_ngrams |= ngrams(norm)
        bucket = self._secrets.setdefault(norm[:NGRAM], [])
        if norm not in bucket:
            bucket.append(norm)
            self.secret_count += 1

    def contains_secret(self, text: str) -> bool:
        norm = normalise(text)
        for i in range(len(norm) - NGRAM + 1):
            for secret in self._secrets.get(norm[i:i + NGRAM], ()):
                if norm.startswith(secret, i):
                    return True
        return False

    def shares_ngram(self, text: str) -> bool:
        norm = normalise(text)
        wiki = self._wiki_ngrams
        return any(
            norm[i:i + NGRAM] in wiki for i in range(len(norm) - NGRAM + 1)
        )


def check(oracle: Oracle, uploads, stored, covered: Set[str]) -> Dict[str, object]:
    """Run the three checks.

    *uploads* holds ``(op index, outcome)`` for every op that sent text
    to an untrusted service; *stored* holds ``(paragraph segment,
    document segment, text)`` for every paragraph an untrusted backend
    stores; *covered* is the set of segments a suppression was recorded
    for. Returns counts and the first few violations of each check.
    """
    leaked_uploads: List[int] = []
    refused_clean: List[int] = []
    verbatim = clean = 0
    for index, outcome in uploads:
        if oracle.contains_secret(outcome.text):
            verbatim += 1
            if outcome.delivered and not (
                outcome.segment in covered or outcome.doc_segment in covered
            ):
                leaked_uploads.append(index)
        elif not oracle.shares_ngram(outcome.text):
            clean += 1
            if not outcome.delivered:
                refused_clean.append(index)
    stored_leaks: List[str] = []
    stored_secrets = 0
    for segment, doc_segment, text in stored:
        if oracle.contains_secret(text):
            stored_secrets += 1
            if segment not in covered and doc_segment not in covered:
                stored_leaks.append(segment)
    return {
        "ok": not (leaked_uploads or refused_clean or stored_leaks),
        "verbatim_uploads": verbatim,
        "verbatim_uploads_delivered_uncovered": len(leaked_uploads),
        "clean_uploads": clean,
        "clean_uploads_refused": len(refused_clean),
        "stored_paragraphs": len(stored),
        "stored_secrets": stored_secrets,
        "stored_secrets_uncovered": len(stored_leaks),
        "first_violations": {
            "verbatim_delivered_ops": leaked_uploads[:5],
            "clean_refused_ops": refused_clean[:5],
            "stored_uncovered": stored_leaks[:5],
        },
    }
