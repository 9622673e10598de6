"""Seeded synthetic prose for the benchmark's inputs.

The benchmark makes its own text instead of using the program's dataset
generators, so a change to those cannot change what is measured. Words
come from a fixed syllable vocabulary (the same for every seed); the
seed picks which words are drawn. Words are short, so a 15-character
normalised n-gram spans at least three words; with 6,000 words drawn
uniformly, independently drawn texts seldom share one, and most
"public" text is disjoint from the confidential corpus.
"""

from __future__ import annotations

import random
from typing import List

_ONSETS = (
    "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s",
    "t", "v", "w", "z", "br", "cl", "dr", "fl", "gr", "pl", "pr", "sh",
    "st", "th", "tr", "ch",
)
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou")
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "m", "nd", "st", "rk")

VOCABULARY_SIZE = 6000
#: Every 15-character n-gram then spans parts of at least three words.
MAX_WORD = 7


def _vocabulary() -> List[str]:
    rng = random.Random("perfbench-vocabulary-v1")
    words: List[str] = []
    seen = set()
    while len(words) < VOCABULARY_SIZE:
        syllables = rng.choice((1, 2, 2))
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(syllables)
        )
        if len(word) <= MAX_WORD and word not in seen:
            seen.add(word)
            words.append(word)
    return words


VOCABULARY = _vocabulary()


class Prose:
    """Sentences of 7 to 14 words, and texts cut from them, from one seeded stream."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def sentence(self) -> str:
        n = self._rng.randint(7, 14)
        words = [self._rng.choice(VOCABULARY) for _ in range(n)]
        return " ".join(words).capitalize() + "."

    def text(self, length: int) -> str:
        """Sentences cut to exactly *length* characters.

        Fixed lengths keep the amount of work the same for every seed,
        so runs with different seeds measure the same experiment.
        """
        out = ""
        while len(out) < length:
            out = (out + " " + self.sentence()) if out else self.sentence()
        out = out[:length]
        return out[:-1] + "." if out.endswith(" ") else out
