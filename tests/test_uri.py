"""Tokenizer and archetype classifier tests.

The word splitter is checked against a brute-force reference over every
two-character boundary pair, and on longer text against a character
loop; archetypes are checked against the hand-labeled corpus in
fixtures/archetypes.json.
"""

from __future__ import annotations

import json
import string
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rest_lint import (
    Archetype,
    PathTemplate,
    Segment,
    SegmentKind,
    classify_archetypes,
    default_lexicon,
    split_words,
    tokenize_path,
    uri,
)

FIXTURES = Path(__file__).parent / "fixtures"

path_text = st.text(
    alphabet=st.sampled_from("abcXYZ019-_{}/."), min_size=0, max_size=40
)


def rebuilt(template, raw: str) -> str:
    """The raw template rebuilt from its segments and trailing slash; the
    leading slash, which the template does not record, is taken from raw."""
    lead = "/" if raw.startswith("/") else ""
    trail = "/" if template.has_trailing_slash else ""
    return lead + "/".join(seg.raw for seg in template.segments) + trail


def archetypes_of(template) -> list[Archetype]:
    """The archetype of each segment of a classified template, in order."""
    return list(template.archetypes)


def split_by_character(text: str) -> tuple[tuple[str, ...], bool]:
    """A brute-force split_words: one character at a time, splitting by the
    pair rule of test_all_two_char_boundary_pairs."""
    words: list[str] = []
    camel_or_snake = False
    word = gap = ""
    for ch in text:
        if not ch.isalnum():
            if word:
                words.append(word.lower())
                word = gap = ""
            gap += ch
            continue
        if word:
            prev = word[-1]
            camel = prev.islower() and ch.isupper()
            if camel or (prev.isalpha() and ch.isdigit()) or (prev.isdigit() and ch.isalpha()):
                words.append(word.lower())
                word = ""
            camel_or_snake = camel_or_snake or camel
        elif words and "_" in gap:
            camel_or_snake = True
        word += ch
    if word:
        words.append(word.lower())
    return tuple(words), camel_or_snake


class TestSplitWords:
    def test_camel_case(self):
        assert split_words("userProfiles") == (("user", "profiles"), True)

    def test_hyphenated(self):
        assert split_words("order-items") == (("order", "items"), False)

    def test_version_token(self):
        assert split_words("v2") == (("v", "2"), False)

    def test_underscore(self):
        assert split_words("user_id") == (("user", "id"), True)

    def test_tokens_are_lowercase_and_ordered(self):
        words, camel_or_snake = split_words("getUserByID2")
        assert words == ("get", "user", "by", "id", "2")
        assert camel_or_snake

    def test_consecutive_uppercase_is_one_token(self):
        assert split_words("HTML")[0] == ("html",)

    def test_edge_separators_have_no_boundary(self):
        # A separator only counts when it sits between two tokens.
        assert split_words("-users") == (("users",), False)
        assert split_words("_users") == (("users",), False)
        assert split_words("users_") == (("users",), False)

    def test_unkinded_separator_splits_without_kind(self):
        assert split_words("users.orders") == (("users", "orders"), False)

    def test_empty(self):
        assert split_words("") == ((), False)

    def test_all_two_char_boundary_pairs(self):
        """Brute-force reference over every 2-char combination."""
        # Titlecase ǅ is neither upper- nor lowercase; Ⅻ is alphanumeric but
        # neither a letter nor a digit.
        alphabet = "azAZ09-_.éÉ²ǅⅫ٣"

        def reference(c1: str, c2: str) -> tuple[list[str], bool]:
            # Tokens are maximal alphanumeric runs, additionally split at
            # lower->upper and letter<->digit transitions. Only lower->upper
            # sets the flag: two characters hold no gap between two words.
            if not c1.isalnum() or not c2.isalnum():
                return [c.lower() for c in (c1, c2) if c.isalnum()], False
            camel = c1.islower() and c2.isupper()
            boundary = (
                camel
                or (c1.isalpha() and c2.isdigit())
                or (c1.isdigit() and c2.isalpha())
            )
            return ([c1.lower(), c2.lower()] if boundary else [(c1 + c2).lower()]), camel

        for c1 in alphabet:
            for c2 in alphabet:
                words, camel_or_snake = split_words(c1 + c2)
                assert (list(words), camel_or_snake) == reference(c1, c2), (c1, c2)

    # Separators are drawn as often as letters and digits, so gaps of several hold them.
    @given(st.text(st.sampled_from(string.ascii_letters + string.digits)
                   | st.sampled_from("-_.~{}"), max_size=24))
    def test_ascii_regex_agrees_with_character_loop(self, text):
        assert split_words(text) == uri._split_words_by_run(text) == split_by_character(text)

    @pytest.mark.parametrize("text, expected", [
        ("caf\u00e9Menu", (("caf\u00e9", "menu"), True)),
        ("\u00c9tat-civil", (("\u00e9tat", "civil"), False)),
        ("user\u00b2s", (("user", "\u00b2", "s"), False)),
        ("a\u00a0b_c", (("a", "b", "c"), True)),
    ])
    def test_non_ascii_text_is_split_by_character(self, text, expected):
        # Non-ASCII letters and digits are word characters, which the ASCII
        # regex would read as gaps.
        assert split_words(text) == expected

    # Σ lowercases by its place in the word, so each word is lowered on its own.
    @given(st.text(alphabet="aZ9-_.\u00e9\u00c9\u00b2\u0130\u00a0\U0001d400ǅⅫ٣Σσ",
                   min_size=1, max_size=16).filter(lambda text: not text.isascii()))
    def test_non_ascii_text_gives_the_character_loop_result(self, text):
        assert split_words(text) == split_by_character(text)

    @given(st.text(st.sampled_from(string.ascii_letters + string.digits + "-_.~\ud800é²İǅＡ٣")
                   | st.characters(exclude_categories=()), max_size=24))
    def test_word_tokens_are_split_words_words(self, text):
        assert uri.word_tokens(text) == list(split_words(text)[0])


class TestTokenizePath:
    def test_literal_and_parameter(self):
        t = tokenize_path("/users/{id}")
        assert [s.raw for s in t.segments] == ["users", "{id}"]
        assert t.segments[0].kind is SegmentKind.LITERAL
        assert t.segments[1].kind is SegmentKind.PARAMETER
        assert t.segments[1].name == "id"
        assert not t.has_trailing_slash and not t.has_empty_segment

    def test_trailing_slash(self):
        assert tokenize_path("/users/").has_trailing_slash

    def test_empty_interior_segment(self):
        t = tokenize_path("/a//b")
        assert t.has_empty_segment
        assert [s.raw for s in t.segments] == ["a", "", "b"]

    def test_root_path(self):
        t = tokenize_path("/")
        assert t.segments == ()
        assert not t.has_trailing_slash

    def test_parameter_keeps_braces_in_raw(self):
        seg = tokenize_path("/{userId}").segments[0]
        assert seg.raw == "{userId}" and seg.name == "userId"
        assert seg.words == ("user", "id")

    def test_segment_is_a_tuple(self):
        seg = tokenize_path("/userId").segments[0]
        assert seg == (SegmentKind.LITERAL, "userId", "userId", ("user", "id"), True)
        kind, raw, *_ = seg
        assert (kind, raw) == (seg.kind, seg.raw) and isinstance(seg, Segment)

    @given(path_text)
    def test_templates_and_segments_are_their_records(self, raw):
        tokenized = tokenize_path(raw)
        classified = classify_archetypes(tokenized, default_lexicon())
        for template in (tokenized, classified):
            assert type(template) is PathTemplate
            assert template == (template.segments, template.has_trailing_slash,
                                template.has_empty_segment, template.archetypes)
            assert type(template._replace(archetypes=())) is PathTemplate
            assert template._replace(archetypes=()) == tokenized
            for seg in template.segments:
                assert type(seg) is Segment
                assert seg == (seg.kind, seg.raw, seg.name, seg.words, seg.camel_or_snake)
                assert seg._replace(raw="r")[1:] == ("r", *seg[2:])
        assert len(classified.archetypes) == len(classified.segments)

    def test_parameter_segments_start_as_documents(self):
        template = classify_archetypes(tokenize_path("/users/{id}"), default_lexicon())
        assert template.archetypes[1] is Archetype.DOCUMENT

    @given(path_text)
    def test_reconstruction_is_exact(self, raw):
        assert rebuilt(tokenize_path(raw), raw) == raw

    @given(path_text)
    def test_total_no_crash(self, raw):
        template = tokenize_path(raw)
        for seg in template.segments:
            assert seg.raw == "" or seg.words or not any(c.isalnum() for c in seg.raw)


# Braces, slashes and non-ASCII letters, digits and separators.
unicode_path_text = st.text(alphabet="aZ9{}/-_.:éÉİǅßＡ²", max_size=30)


def assert_segments_built_afresh(raw: str) -> None:
    """Each cached segment of raw equals one built without the cache."""
    template = tokenize_path(raw)
    assert rebuilt(template, raw) == raw
    assert template.segments == tuple(uri._segment.__wrapped__(s.raw) for s in template.segments)


class TestSegmentCache:
    @given(st.lists(unicode_path_text, min_size=1, max_size=4))
    def test_cached_segments_equal_fresh_ones(self, raws):
        for raw in raws:
            assert_segments_built_afresh(raw)
        uri._segment.cache_clear()
        for raw in raws:
            assert_segments_built_afresh(raw)

    def test_evicted_segments_are_rebuilt_alike(self):
        uri._segment.cache_clear()
        first = tokenize_path("/Café_menus/{İd}").segments
        for i in range(5000):  # more distinct parts than the cache holds
            tokenize_path(f"/p{i}é")
        assert uri._segment.cache_info().currsize == 4096
        assert tokenize_path("/Café_menus/{İd}").segments == first
        assert_segments_built_afresh("/Café_menus/{İd}/p0é")

    def test_equal_parts_share_one_segment(self):
        a, b = tokenize_path("/a/users/{id}"), tokenize_path("/b/users/{id}")
        assert a.segments[1:] == b.segments[1:]
        assert all(x is y for x, y in zip(a.segments[1:], b.segments[1:]))


class TestClassifyArchetypes:
    @pytest.fixture()
    def lex(self):
        return default_lexicon()

    def test_hand_labeled_corpus(self, lex):
        corpus = json.loads((FIXTURES / "archetypes.json").read_text(encoding="utf-8"))
        for entry in corpus:
            template = classify_archetypes(tokenize_path(entry["path"]), lex)
            got = [a.value for a in template.archetypes]
            assert got == entry["expected_archetypes"], entry["path"]

    def test_idempotent(self, lex):
        corpus = json.loads((FIXTURES / "archetypes.json").read_text(encoding="utf-8"))
        for entry in corpus:
            once = classify_archetypes(tokenize_path(entry["path"]), lex)
            twice = classify_archetypes(once, lex)
            assert once == twice

    @given(path_text.filter(lambda s: s))
    def test_literal_before_parameter_is_never_controller(self, raw):
        lex = default_lexicon()
        template = classify_archetypes(tokenize_path(raw), lex)
        segs = template.segments
        for i, seg in enumerate(segs[:-1]):
            if seg.kind is SegmentKind.LITERAL and segs[i + 1].kind is SegmentKind.PARAMETER:
                assert template.archetypes[i] is not Archetype.CONTROLLER

    def test_override_pins_archetype(self, lex):
        template = tokenize_path("/users/{id}/profiles")
        pinned = classify_archetypes(template, lex, overrides={2: Archetype.DOCUMENT})
        assert pinned.archetypes[2] is Archetype.DOCUMENT
        default = classify_archetypes(template, lex)
        assert default.archetypes[2] is Archetype.COLLECTION

    C, D, V, N, U = (Archetype.COLLECTION, Archetype.DOCUMENT, Archetype.CONTROLLER,
                     Archetype.NEUTRAL, Archetype.UNKNOWN)

    # One template per branch of the classifier's decision chain, in its order.
    @pytest.mark.parametrize("raw, overrides, expected", [
        pytest.param("/users/{id}/profiles", {2: D}, [C, D, D], id="override"),
        pytest.param("/{id}", None, [D], id="parameter"),
        pytest.param("/users//{id}", None, [C, U, D], id="empty-segment"),
        pytest.param("/activate/{id}", None, [C, D], id="literal-before-parameter"),
        pytest.param("/users/activate", None, [C, V], id="final-verb"),
        pytest.param("/users/activate//", None, [C, V, U], id="final-nonempty-verb"),
        pytest.param("/users/fetch", None, [C, V], id="final-crud-token-not-a-verb"),
        pytest.param("/users/fetch/stats", None, [C, D, C], id="crud-token-not-final"),
        pytest.param("/api/v2/users", None, [N, N, C], id="neutral"),
        pytest.param("/123", None, [U], id="no-alphabetic-head-word"),
        pytest.param("/order-items", None, [C], id="plural-head"),
        pytest.param("/userProfile", None, [D], id="singular-head"),
    ])
    def test_decision_branches(self, lex, raw, overrides, expected):
        assert "fetch" not in lex.verb_set and lex.crud_token_to_method["fetch"] == "GET"
        template = classify_archetypes(tokenize_path(raw), lex, overrides)
        assert archetypes_of(template) == expected

    @given(unicode_path_text)
    def test_one_archetype_per_segment_and_idempotent(self, raw):
        lex = default_lexicon()
        once = classify_archetypes(tokenize_path(raw), lex)
        assert len(archetypes_of(once)) == len(once.segments)
        assert classify_archetypes(once, lex) == once

    def test_segments_are_never_rebuilt(self, lex):
        template = tokenize_path("/users/{id}/activate")
        classified = classify_archetypes(template, lex, overrides={0: Archetype.NEUTRAL})
        assert template.archetypes == ()
        assert classified.segments is template.segments

    def test_empty_segments_stay_unknown(self, lex):
        template = classify_archetypes(tokenize_path("/a//b"), lex)
        assert template.archetypes[1] is Archetype.UNKNOWN

    @given(path_text)
    def test_classification_does_not_change_tokens(self, raw):
        before = tokenize_path(raw)
        after = classify_archetypes(before, default_lexicon())

        def tokens(t):
            return [(s.kind, s.raw, s.name, s.words, s.camel_or_snake) for s in t.segments]

        assert tokens(after) == tokens(before)
        assert after.has_trailing_slash == before.has_trailing_slash
        assert rebuilt(after, raw) == raw
