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
import itertools
import re
from typing import Mapping, NamedTuple

from .lexicon import WordLexicon, is_plural, is_verb

# An ASCII word. Adjacent words meet at a case boundary, or at a digit
# boundary where one of them is digits.
_WORDS = re.compile(r"[0-9]+|[A-Z]+[a-z]*|[a-z]+")
# Where two ASCII words meet at a lowercase-to-uppercase change, or with an
# underscore in the gap between them.
_CAMEL_OR_SNAKE = re.compile(r"[a-z][A-Z]|[0-9A-Za-z][^0-9A-Za-z]*_[^0-9A-Za-z]*[0-9A-Za-z]")


class SegmentKind(enum.Enum):
    LITERAL = "literal"
    PARAMETER = "parameter"


class Archetype(enum.Enum):
    COLLECTION = "collection"
    DOCUMENT = "document"
    CONTROLLER = "controller"
    NEUTRAL = "neutral"
    UNKNOWN = "unknown"


# Members the loops compare against, bound once: on Python 3.10 and 3.11 a read
# through the Enum class takes EnumType.__getattr__'s slow path (~128 ns, not ~12).
_LITERAL, _PARAMETER = SegmentKind.LITERAL, SegmentKind.PARAMETER
_COLLECTION, _DOCUMENT = Archetype.COLLECTION, Archetype.DOCUMENT
_CONTROLLER, _NEUTRAL, _UNKNOWN = Archetype.CONTROLLER, Archetype.NEUTRAL, Archetype.UNKNOWN


class Segment(NamedTuple):
    """One path segment with its word tokens: what its text alone decides.

    ``raw`` keeps braces for parameters ("{userId}"); ``name`` is the
    text without braces. ``camel_or_snake`` is true when two of its words
    meet at a lowercase-to-uppercase change or across an underscore.
    """

    kind: SegmentKind
    raw: str
    name: str
    words: tuple[str, ...]
    camel_or_snake: bool


class PathTemplate(NamedTuple):
    """A tokenized path template; its raw text is its key in the spec's paths.

    ``archetypes`` holds one archetype per segment once classify_archetypes
    has run, and is empty before.
    """

    segments: tuple[Segment, ...]
    has_trailing_slash: bool
    has_empty_segment: bool
    archetypes: tuple[Archetype, ...] = ()


def split_words(text: str) -> tuple[tuple[str, ...], bool]:
    """Split a segment into lowercase word tokens; say if it is camel- or snake-cased.

    Words are the alphanumeric runs, split again where lowercase meets
    uppercase and where a letter meets a digit. The flag is true when two
    words meet at a lowercase-to-uppercase change or with an underscore in
    the gap between them. ASCII text is split by one regex and flagged by
    another; other text is split one alphanumeric run at a time.
    """
    if not text.isascii():
        return _split_words_by_run(text)
    # Without an "_" or an uppercase letter, the search could find nothing.
    return (tuple(map(str.lower, _WORDS.findall(text))),
            ("_" in text or not text.islower()) and _CAMEL_OR_SNAKE.search(text) is not None)


def word_tokens(text: str) -> list[str]:
    """split_words(text)[0] as a list, without finding the flag."""
    if not text.isascii():
        return list(split_words(text)[0])
    return list(map(str.lower, _WORDS.findall(text)))


def _split_words_by_run(text: str) -> tuple[tuple[str, ...], bool]:
    """split_words for any text, one alphanumeric run at a time."""
    words: list[str] = []
    camel_or_snake = False
    gap = ""
    for alnum, chars in itertools.groupby(text, str.isalnum):
        run = "".join(chars)
        if not alnum:
            gap = run
            continue
        if words and "_" in gap:
            camel_or_snake = True
        start = 0
        for i, (prev, ch) in enumerate(zip(run, run[1:]), 1):
            if prev.islower() and ch.isupper():
                camel_or_snake = True
            elif not (prev.isalpha() and ch.isdigit() or prev.isdigit() and ch.isalpha()):
                continue
            words.append(run[start:i].lower())
            start = i
        words.append(run[start:].lower())
    return tuple(words), camel_or_snake


@functools.lru_cache(maxsize=4096)
def _segment(part: str) -> Segment:
    """One path part's segment. It depends on the text alone and is
    immutable, so equal parts share one, in any template or spec.

    Here and below, tuple.__new__ builds a record in C from its fields in
    order, without the NamedTuple constructor's Python-level call.
    """
    if len(part) >= 2 and part.startswith("{") and part.endswith("}"):
        kind, name = _PARAMETER, part[1:-1]
    else:
        kind, name = _LITERAL, part
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
        elif seg.kind is _PARAMETER:
            archetype = _DOCUMENT
        elif not seg.raw:
            archetype = _UNKNOWN
        elif i + 1 < len(segments) and segments[i + 1].kind is _PARAMETER:
            archetype = _COLLECTION
        elif i == final_idx and seg.words and is_verb(seg.words[0], lexicon):
            archetype = _CONTROLLER
        elif lexicon.is_neutral_segment(seg.name.lower()):
            archetype = _NEUTRAL
        elif not seg.words or not seg.words[-1].isalpha():
            archetype = _UNKNOWN
        elif is_plural(seg.words[-1], lexicon):
            archetype = _COLLECTION
        else:
            archetype = _DOCUMENT
        archetypes.append(archetype)
    return tuple.__new__(PathTemplate, path[:3] + (tuple(archetypes),))
