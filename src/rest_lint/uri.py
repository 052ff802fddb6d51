"""URI template tokenization and resource archetype classification.

A path template is split into segments, each segment into lowercase
word tokens. A segment holds only what its text decides, so each
distinct text is built once and shared. The classifier then gives the
template one resource archetype per segment (collection, document,
controller, neutral, or unknown), which decides which naming rules
apply to which segment.
"""

from __future__ import annotations

import enum
import functools
import re
from typing import Mapping, NamedTuple

from .lexicon import WordLexicon, is_plural, is_verb

# Boundary kinds reported by split_words.
BOUNDARY_HYPHEN = "hyphen"
BOUNDARY_UNDERSCORE = "underscore"
BOUNDARY_CASE = "case"
BOUNDARY_DIGIT = "digit"

_SEPARATOR_KINDS = {"-": BOUNDARY_HYPHEN, "_": BOUNDARY_UNDERSCORE}

# An ASCII word. Adjacent words meet at a case boundary, or at a digit
# boundary where one of them is digits.
_WORD = r"[0-9]+|[A-Z]+[a-z]*|[a-z]+"
_WORDS = re.compile(_WORD)
# An ASCII word with the non-alphanumeric gap before it.
_GAP_AND_WORD = re.compile(rf"([^0-9A-Za-z]*)({_WORD})")


class SegmentKind(enum.Enum):
    LITERAL = "literal"
    PARAMETER = "parameter"


class Archetype(enum.Enum):
    COLLECTION = "collection"
    DOCUMENT = "document"
    CONTROLLER = "controller"
    NEUTRAL = "neutral"
    UNKNOWN = "unknown"


class Segment(NamedTuple):
    """One path segment with its word tokens: what its text alone decides.

    ``raw`` keeps braces for parameters ("{userId}"); ``name`` is the
    text without braces. ``boundary_kinds`` records which word-boundary
    kinds split_words observed inside the segment.
    """

    kind: SegmentKind
    raw: str
    name: str
    words: tuple[str, ...]
    boundary_kinds: frozenset[str]


class PathTemplate(NamedTuple):
    """A tokenized path template; its raw text is its key in the spec's paths.

    ``archetypes`` holds one archetype per segment once classify_archetypes
    has run, and is empty before.
    """

    segments: tuple[Segment, ...]
    has_trailing_slash: bool
    has_empty_segment: bool
    archetypes: tuple[Archetype, ...] = ()


def split_words(text: str) -> tuple[tuple[str, ...], frozenset[str]]:
    """Split a segment into lowercase word tokens plus observed boundary kinds.

    Boundaries occur at hyphens, underscores, lowercase-to-uppercase
    transitions, and letter/digit transitions. Other non-alphanumeric
    characters also end a token but contribute no boundary kind. A
    separator only counts as a boundary when it sits between two tokens.
    ASCII text is split by one regex; other text one character at a time.
    """
    if not text.isascii():
        return _split_words_by_char(text)
    pairs = _GAP_AND_WORD.findall(text)
    kinds = set()
    for (_, before), (gap, word) in zip(pairs, pairs[1:]):
        if gap:
            if "-" in gap:
                kinds.add(BOUNDARY_HYPHEN)
            if "_" in gap:
                kinds.add(BOUNDARY_UNDERSCORE)
        elif word[0] <= "9" or before[0] <= "9":
            kinds.add(BOUNDARY_DIGIT)
        else:
            kinds.add(BOUNDARY_CASE)
    return tuple([word.lower() for _, word in pairs]), frozenset(kinds)


def word_tokens(text: str) -> list[str]:
    """split_words(text)[0] as a list, without finding the boundary kinds."""
    if not text.isascii():
        return list(split_words(text)[0])
    return list(map(str.lower, _WORDS.findall(text)))


def _split_words_by_char(text: str) -> tuple[tuple[str, ...], frozenset[str]]:
    """split_words for any text, one character at a time."""
    words: list[str] = []
    kinds: set[str] = set()
    pending: set[str] = set()
    had_separator = False
    current = ""

    for ch in text:
        if ch.isalnum():
            if current:
                boundary = _transition_kind(current[-1], ch)
                if boundary is not None:
                    words.append(current.lower())
                    kinds.add(boundary)
                    current = ch
                else:
                    current += ch
            else:
                if words and had_separator:
                    kinds.update(pending)
                pending.clear()
                had_separator = False
                current = ch
        else:
            if current:
                words.append(current.lower())
                current = ""
            had_separator = True
            if ch in _SEPARATOR_KINDS:
                pending.add(_SEPARATOR_KINDS[ch])
    if current:
        words.append(current.lower())
    return tuple(words), frozenset(kinds)


def _transition_kind(prev: str, cur: str) -> str | None:
    if prev.islower() and cur.isupper():
        return BOUNDARY_CASE
    if (prev.isalpha() and cur.isdigit()) or (prev.isdigit() and cur.isalpha()):
        return BOUNDARY_DIGIT
    return None


@functools.lru_cache(maxsize=4096)
def _segment(part: str) -> Segment:
    """One path part's segment. It depends on the text alone and is
    immutable, so equal parts share one, in any template or spec.

    Here and below, tuple.__new__ builds a record in C from its fields in
    order, without the NamedTuple constructor's Python-level call.
    """
    if len(part) >= 2 and part.startswith("{") and part.endswith("}"):
        kind, name = SegmentKind.PARAMETER, part[1:-1]
    else:
        kind, name = SegmentKind.LITERAL, part
    return tuple.__new__(Segment, (kind, part, name, *split_words(name)))


def tokenize_path(raw: str) -> PathTemplate:
    """Tokenize a raw URI template. Total: every input yields a template."""
    has_trailing = len(raw) > 1 and raw.endswith("/")
    body = raw[1:] if raw.startswith("/") else raw
    if has_trailing:
        body = body[:-1]
    parts = body.split("/") if body else []

    segments = tuple(map(_segment, parts))
    return tuple.__new__(PathTemplate, (segments, has_trailing, "//" in raw, ()))


def classify_archetypes(
    path: PathTemplate,
    lexicon: WordLexicon,
    overrides: Mapping[int, Archetype] | None = None,
) -> PathTemplate:
    """The template with one archetype per segment in ``archetypes``.

    Decision order per segment: explicit override; parameters are
    documents; empty segments stay unknown; a literal right before a
    parameter is the collection it selects from; a final literal whose
    first word is a verb (the lexicon's verbs and CRUD tokens) is a
    controller; remaining literals go by their head word: neutral names
    stay structural, plural heads mean collection, singular heads mean
    document. Segments with no usable head word stay unknown. Segments
    are never rebuilt, and a classified template may be classified again:
    the result is the same for fixed inputs.
    """
    segments = path.segments
    final_idx = next((i for i in reversed(range(len(segments))) if segments[i].raw), -1)

    archetypes = []
    for i, seg in enumerate(segments):
        if overrides and i in overrides:
            archetype = overrides[i]
        elif seg.kind is SegmentKind.PARAMETER:
            archetype = Archetype.DOCUMENT
        elif not seg.raw:
            archetype = Archetype.UNKNOWN
        elif i + 1 < len(segments) and segments[i + 1].kind is SegmentKind.PARAMETER:
            archetype = Archetype.COLLECTION
        elif i == final_idx and seg.words and is_verb(seg.words[0], lexicon):
            archetype = Archetype.CONTROLLER
        elif lexicon.is_neutral_segment(seg.name.lower()):
            archetype = Archetype.NEUTRAL
        elif not seg.words or not seg.words[-1].isalpha():
            archetype = Archetype.UNKNOWN
        elif is_plural(seg.words[-1], lexicon):
            archetype = Archetype.COLLECTION
        else:
            archetype = Archetype.DOCUMENT
        archetypes.append(archetype)
    return tuple.__new__(PathTemplate, path[:3] + (tuple(archetypes),))
