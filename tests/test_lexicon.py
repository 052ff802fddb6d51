"""Word-oracle tests: plurality, verbs, CRUD vocabulary, data file handling."""

from __future__ import annotations

import random

import pytest

from rest_lint import (
    LexiconError,
    crud_method_of,
    default_lexicon,
    is_plural,
    is_verb,
    load_lexicon,
    parse_lexicon,
)

# Regular (singular, plural) noun pairs; frozen oracle list for the suffix rules.
REGULAR_NOUN_PAIRS = [
    ("user", "users"), ("order", "orders"), ("item", "items"),
    ("account", "accounts"), ("product", "products"), ("session", "sessions"),
    ("ticket", "tickets"), ("message", "messages"), ("comment", "comments"),
    ("article", "articles"), ("invoice", "invoices"), ("payment", "payments"),
    ("customer", "customers"), ("employee", "employees"), ("project", "projects"),
    ("task", "tasks"), ("event", "events"), ("report", "reports"),
    ("document", "documents"), ("file", "files"), ("folder", "folders"),
    ("group", "groups"), ("role", "roles"), ("permission", "permissions"),
    ("team", "teams"), ("member", "members"), ("device", "devices"),
    ("city", "cities"), ("category", "categories"), ("company", "companies"),
    ("country", "countries"), ("library", "libraries"), ("entry", "entries"),
    ("query", "queries"), ("box", "boxes"), ("tax", "taxes"),
    ("batch", "batches"), ("match", "matches"), ("branch", "branches"),
    ("dish", "dishes"), ("class", "classes"), ("address", "addresses"),
    ("process", "processes"), ("bus", "buses"), ("virus", "viruses"),
    ("bonus", "bonuses"), ("campus", "campuses"), ("house", "houses"),
    ("note", "notes"), ("page", "pages"),
]

assert len(REGULAR_NOUN_PAIRS) * 2 == 100


@pytest.fixture(scope="module")
def lex():
    return default_lexicon()


class TestPlurality:
    def test_regular_plural(self, lex):
        assert is_plural("users", lex)

    def test_invariant_form(self, lex):
        assert not is_plural("status", lex)

    def test_irregular_plural(self, lex):
        assert is_plural("children", lex)

    def test_singular_examples(self, lex):
        assert not is_plural("user", lex)
        assert not is_plural("analysis", lex)
        assert is_plural("orders", lex)

    def test_all_irregular_pairs(self, lex):
        for plural, singular in lex.irregular_plural_to_singular.items():
            assert is_plural(plural, lex), plural
            assert not is_plural(singular, lex), singular

    def test_all_invariant_forms(self, lex):
        for word in lex.invariant_forms:
            assert not is_plural(word, lex), word

    def test_hundred_regular_nouns(self, lex):
        for singular, plural in REGULAR_NOUN_PAIRS:
            assert not is_plural(singular, lex), singular
            assert is_plural(plural, lex), plural

    def test_suffix_exclusions(self, lex):
        assert not is_plural("glass", lex)  # ss
        assert not is_plural("radius", lex)  # us
        assert not is_plural("axis", lex)  # is
        assert is_plural("cities", lex)  # ies
        assert is_plural("boxes", lex)  # es


class TestVerbsAndCrud:
    def test_verb_examples(self, lex):
        assert is_verb("activate", lex)
        assert not is_verb("users", lex)
        assert is_verb("create", lex)  # CRUD tokens count as verbs

    def test_crud_examples(self, lex):
        assert crud_method_of("delete", lex) == "DELETE"
        assert crud_method_of("fetch", lex) == "GET"
        assert crud_method_of("profile", lex) is None

    def test_crud_map_is_complete(self, lex):
        expected = {
            "create": "POST", "add": "POST", "insert": "POST", "post": "POST",
            "read": "GET", "get": "GET", "fetch": "GET", "retrieve": "GET",
            "list": "GET", "find": "GET", "search": "GET",
            "update": "PUT", "set": "PUT", "put": "PUT", "replace": "PUT",
            "modify": "PATCH", "patch": "PATCH",
            "delete": "DELETE", "remove": "DELETE",
        }
        assert dict(lex.crud_token_to_method) == expected


class TestNeutralSegments:
    def test_members(self, lex):
        assert lex.is_neutral_segment("api")
        assert lex.is_neutral_segment("rest")

    def test_version_pattern(self, lex):
        assert lex.is_neutral_segment("v1")
        assert lex.is_neutral_segment("v42")
        assert not lex.is_neutral_segment("v")
        assert not lex.is_neutral_segment("v1a")
        assert not lex.is_neutral_segment("users")


class TestDataFile:
    def test_irregulars_disjoint_from_invariants(self, lex):
        touched = set(lex.irregular_plural_to_singular) | set(
            lex.irregular_plural_to_singular.values()
        )
        assert not touched & lex.invariant_forms

    def test_entries_are_lowercase(self, lex):
        words = (
            set(lex.irregular_plural_to_singular)
            | set(lex.irregular_plural_to_singular.values())
            | lex.invariant_forms
            | lex.verb_set
            | set(lex.crud_token_to_method)
            | lex.neutral_segments
        )
        assert all(w == w.lower() for w in words)

    def test_load_from_path_matches_default(self, tmp_path):
        from importlib import resources

        text = resources.files("rest_lint").joinpath("data/lexicon.txt").read_text("utf-8")
        copy = tmp_path / "lexicon.txt"
        copy.write_text(text, encoding="utf-8")
        assert load_lexicon(copy) == default_lexicon()

    def test_file_with_a_byte_order_mark_matches_default(self, tmp_path):
        from importlib import resources

        text = resources.files("rest_lint").joinpath("data/lexicon.txt").read_text("utf-8")
        copy = tmp_path / "lexicon.txt"
        copy.write_text(text, encoding="utf-8-sig")
        assert load_lexicon(copy) == default_lexicon()

    def test_loading_is_order_independent(self):
        base = (
            "[irregular]\npeople person\nchildren child\n"
            "[invariant]\nstatus\nnews\n"
            "[verb]\nactivate\ncancel\n"
            "[crud]\ncreate POST\ndelete DELETE\n"
            "[neutral]\napi\nrest\n"
        )
        shuffled = (
            "[neutral]\nrest\napi\n"
            "[crud]\ndelete DELETE\ncreate POST\n"
            "[verb]\ncancel\nactivate\n"
            "[invariant]\nnews\nstatus\n"
            "[irregular]\nchildren child\npeople person\n"
        )
        assert parse_lexicon(base) == parse_lexicon(shuffled)

    def test_deterministic_reload(self):
        text = "[verb]\nactivate\n[crud]\nget GET\n"
        assert parse_lexicon(text) == parse_lexicon(text)

    def test_comments_and_blank_lines_ignored(self):
        lex = parse_lexicon("# header\n\n[verb]\nactivate  # trailing note\n\n")
        assert lex.verb_set == frozenset({"activate"})

    def test_entries_lowercased_on_load(self):
        lex = parse_lexicon("[verb]\nActivate\n")
        assert lex.verb_set == frozenset({"activate"})

    def test_unknown_section_rejected(self):
        with pytest.raises(LexiconError):
            parse_lexicon("[nouns]\nuser\n")

    def test_entry_before_section_rejected(self):
        with pytest.raises(LexiconError):
            parse_lexicon("user\n")

    def test_bad_crud_method_rejected(self):
        with pytest.raises(LexiconError):
            parse_lexicon("[crud]\ncreate MAKE\n")

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "lexicon.txt"
        path.write_bytes(b"[invariant]\nusers\xff\n")
        with pytest.raises(LexiconError, match="can't decode byte 0xff in position 17"):
            load_lexicon(path)

    def test_irregular_invariant_conflict_rejected(self):
        with pytest.raises(LexiconError):
            parse_lexicon("[irregular]\nanalyses analysis\n[invariant]\nanalysis\n")

    def test_random_line_order_within_sections(self):
        lines = ["children child", "people person", "mice mouse", "geese goose"]
        rng = random.Random(7)
        lexica = []
        for _ in range(5):
            rng.shuffle(lines)
            lexica.append(parse_lexicon("[irregular]\n" + "\n".join(lines)))
        assert all(lx == lexica[0] for lx in lexica)
