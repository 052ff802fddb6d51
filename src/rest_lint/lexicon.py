"""English word oracles: plurality, verb-ness, and CRUD vocabulary.

Plurality is deliberately binary (a word either counts as plural or it
does not) and is decided by curated irregular/invariant lists plus a
suffix heuristic. URI nouns are short and regular enough that a full
morphological analyzer would be overkill; the curated lists absorb the
exceptions that matter, and known misses are a documented limitation.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Mapping, NamedTuple

from .errors import LexiconError

_CRUD_METHODS = {"GET", "POST", "PUT", "PATCH", "DELETE"}
_SECTIONS = ("irregular", "invariant", "verb", "crud", "neutral")
_VERSION_SEGMENT = re.compile(r"^v\d+$")


class WordLexicon(NamedTuple):
    """Immutable word lists backing the noun/verb/CRUD decisions."""

    irregular_plural_to_singular: Mapping[str, str]
    invariant_forms: frozenset[str]
    verb_set: frozenset[str]
    crud_token_to_method: Mapping[str, str]
    neutral_segments: frozenset[str]
    irregular_singulars: frozenset[str]  # the values of irregular_plural_to_singular

    def is_neutral_segment(self, name: str) -> bool:
        """True for structural segments ("api", "rest", "v2", ...)."""
        return name in self.neutral_segments or bool(_VERSION_SEGMENT.match(name))


def is_plural(word: str, lexicon: WordLexicon) -> bool:
    """Decide whether a lowercase word counts as a plural noun.

    Irregular plurals win, then invariant forms and irregular singulars
    are ruled out, then the suffix heuristic applies: an "s" ending that
    is not "ss", "us", or "is" counts as plural.
    """
    if word in lexicon.irregular_plural_to_singular:
        return True
    if word in lexicon.invariant_forms:
        return False
    if word in lexicon.irregular_singulars:
        return False
    return word.endswith("s") and not word.endswith(("ss", "us", "is"))


def is_verb(word: str, lexicon: WordLexicon) -> bool:
    return word in lexicon.verb_set or word in lexicon.crud_token_to_method


def crud_method_of(word: str, lexicon: WordLexicon) -> str | None:
    """The HTTP method a CRUD token implies, or None for non-CRUD words."""
    return lexicon.crud_token_to_method.get(word)


def load_lexicon(path: str | Path) -> WordLexicon:
    """Load word lists from a data file (see data/lexicon.txt for the format)."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise LexiconError(str(exc)) from exc
    return parse_lexicon(text, source=str(path))


@lru_cache(maxsize=1)
def default_lexicon() -> WordLexicon:
    """The word lists shipped with the package."""
    text = resources.files("rest_lint").joinpath("data/lexicon.txt").read_text("utf-8")
    return parse_lexicon(text, source="<bundled>")


def parse_lexicon(text: str, source: str = "<string>") -> WordLexicon:
    irregular: dict[str, str] = {}
    invariant: set[str] = set()
    verbs: set[str] = set()
    crud: dict[str, str] = {}
    neutral: set[str] = set()

    section: str | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise LexiconError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if section is None:
            raise LexiconError(f"{source}:{lineno}: entry before any section header")
        fields = line.lower().split()
        if section == "irregular":
            if len(fields) != 2:
                raise LexiconError(f"{source}:{lineno}: expected 'plural singular'")
            irregular[fields[0]] = fields[1]
        elif section == "crud":
            if len(fields) != 2 or fields[1].upper() not in _CRUD_METHODS:
                raise LexiconError(f"{source}:{lineno}: expected 'token METHOD'")
            crud[fields[0]] = fields[1].upper()
        else:
            if len(fields) != 1:
                raise LexiconError(f"{source}:{lineno}: expected a single word")
            {"invariant": invariant, "verb": verbs, "neutral": neutral}[section].add(fields[0])

    touched = set(irregular) | set(irregular.values())
    overlap = touched & invariant
    if overlap:
        raise LexiconError(
            f"{source}: irregular entries overlap invariant forms: {sorted(overlap)}"
        )

    return WordLexicon(
        irregular_plural_to_singular=dict(sorted(irregular.items())),
        invariant_forms=frozenset(invariant),
        verb_set=frozenset(verbs),
        crud_token_to_method=dict(sorted(crud.items())),
        neutral_segments=frozenset(neutral),
        irregular_singulars=frozenset(irregular.values()),
    )
