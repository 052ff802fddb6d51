"""The 14 REST design rule checkers and their orchestration.

Every checker has one signature, check_x(operations, templates, cfg,
lexicon), and is a pure function of those arguments: the spec's (path,
method, operation, CRUD action tokens) tuples, tokens found for GET and
POST alone, its path templates tokenized and classified once, the rule
config, and the word lexicon. It yields findings, (path, method, status
key, fragment, message) tuples, and names no rule: _RULES binds each
RuleId to its category and its checker. run_rules lists the operations
and templates once and builds every Violation, one per finding of each
enabled checker, in RULE_ORDER, unsorted and with duplicates kept;
reporting.build_report sorts and coalesces them.
"""

from __future__ import annotations

import enum
import re
import types
from functools import partial
from typing import Iterator, Mapping, NamedTuple, Sequence

from .lexicon import WordLexicon, crud_method_of, is_plural, is_verb
from .model import ApiSpecification, OperationRecord
from .uri import (
    Archetype,
    PathTemplate,
    SegmentKind,
    classify_archetypes,
    tokenize_path,
    word_tokens,
)


class Category(enum.Enum):
    HTTP_STATUS_CODES = "HTTPStatusCodes"
    URI_DESIGN = "URIDesign"
    METADATA_DESIGN = "MetadataDesign"
    REQUEST_METHODS = "RequestMethods"


class RuleId(enum.Enum):
    RC401 = "RC401"
    PLURAL_NOUN = "PluralNoun"
    SINGULAR_NOUN = "SingularNoun"
    NO_TRAILING_SLASH = "NoTrailingSlash"
    VERB_CONTROLLER = "VerbController"
    NO_CRUD_NAMES = "NoCRUDNames"
    CONTENT_TYPE = "ContentType"
    DESCRIPTION_TYPE = "DescriptionType"
    FORWARD_SLASH = "ForwardSlash"
    NO_TUNNEL = "NoTunnel"
    GET_RETRIEVE = "GETRetrieve"
    HYPHENS = "Hyphens"
    LOWERCASE = "Lowercase"
    NO_UNDERSCORES = "NoUnderscores"

    # Members are singletons, so identity hashing is consistent with equality;
    # Enum's own __hash__ is a Python call, made several times per finding.
    __hash__ = object.__hash__

    @property
    def category(self) -> Category:
        return _RULES[self][0]


RULE_ORDER: tuple[RuleId, ...] = tuple(RuleId)
ALL_RULES: frozenset[RuleId] = frozenset(RuleId)
# Each rule's name, read without the Enum.value descriptor.
RULE_NAMES: dict[RuleId, str] = {rule: rule.value for rule in RuleId}

# Method flavor implied by a CRUD token; PUT and PATCH share one flavor.
_METHOD_CLASS = {"GET": "read", "POST": "create", "PUT": "update", "PATCH": "update",
                 "DELETE": "delete"}

_TUNNEL_QUERY_PARAMS = ("method", "_method", "action")
_HIERARCHY_SEPARATOR = re.compile(r"\w[.:;]\w")
_LEADING_WORD = re.compile(r"[A-Za-z]+")
# Members the checkers compare against, bound once (see the note in uri.py).
_LITERAL, _PARAMETER = SegmentKind.LITERAL, SegmentKind.PARAMETER
_COLLECTION, _DOCUMENT, _CONTROLLER = Archetype.COLLECTION, Archetype.DOCUMENT, Archetype.CONTROLLER

# Response statuses that never carry a body.
_BODYLESS_STATUSES = {"204", "304"}


# What a checker yields: (path, method, status_key, fragment, message).
Finding = tuple[str, str | None, str | None, str, str]
Templates = Mapping[str, PathTemplate]
# (path, method, operation, its (CRUD token, implied method)s for GET and POST, else ()).
Operations = list[tuple[str, str, OperationRecord, Sequence[tuple[str, str]]]]


class Violation(NamedTuple):
    rule: RuleId
    path: str
    method: str | None
    status_key: str | None
    fragment: str
    message: str

    def sort_key(self) -> tuple:
        """Report order, and the coalescing key: findings equal on it are one."""
        return (self.path, self.method or "", RULE_NAMES[self.rule], self.fragment,
                self.status_key or "")


# A Violation of a (rule, *finding) tuple, built in C without the
# NamedTuple constructor's Python-level call.
_violation = partial(tuple.__new__, Violation)


class RuleConfig(NamedTuple):
    """Which rules run and how URI segments may be reinterpreted.

    archetype_overrides pins a segment's archetype, keyed by
    (spec_id, raw path template) -> {segment index: archetype}; the
    default, shared by every instance, is read-only.
    """

    enabled: frozenset[RuleId] = ALL_RULES
    archetype_overrides: Mapping[tuple[str, str], Mapping[int, Archetype]] = (
        types.MappingProxyType({}))
    exempt_parameter_names: bool = True


def run_rules(
    spec: ApiSpecification, cfg: RuleConfig, lexicon: WordLexicon
) -> list[Violation]:
    """Run the enabled checkers and build a Violation of each finding, in
    RULE_ORDER, unsorted, duplicates kept (build_report sorts and coalesces
    them). This is the one place that builds a Violation."""
    templates = {
        raw: classify_archetypes(
            tokenize_path(raw), lexicon, cfg.archetype_overrides.get((spec.spec_id, raw))
        )
        for raw in spec.paths
    }
    operations = [
        (path, method, op,
         _action_tokens(templates[path], op, lexicon) if method in ("GET", "POST") else ())
        for path, entry in spec.paths.items() for method, op in entry.operations.items()
    ]
    collected: list[Violation] = []
    for rule in RULE_ORDER:
        if rule in cfg.enabled:
            findings = _RULES[rule][1](operations, templates, cfg, lexicon)
            collected.extend(map(_violation, map((rule,).__add__, findings)))
    return collected


def _action_tokens(
    template: PathTemplate, op: OperationRecord, lexicon: WordLexicon
) -> list[tuple[str, str]]:
    """CRUD tokens among the path's literal words and the operationId words.

    Each distinct token appears once, in order of first occurrence,
    paired with the HTTP method it implies.
    """
    words = [w for seg in template.segments if seg.kind is _LITERAL for w in seg.words]
    if op.operation_id:
        words.extend(word_tokens(op.operation_id))
    return [
        (word, implied)
        for word in dict.fromkeys(words)
        if (implied := crud_method_of(word, lexicon)) is not None
    ]


# ---------------------------------------------------------------------------
# HTTP status code rules
# ---------------------------------------------------------------------------


def check_rc401(operations: Operations, templates: Templates, cfg: RuleConfig,
                lexicon: WordLexicon) -> Iterator[Finding]:
    """Credentialed operations must declare a 401 (or 4XX range) response."""
    for path, method, op, _ in operations:
        if not op.requires_credentials:
            continue
        if "401" in op.responses or "4XX" in op.responses:
            continue
        yield (path, method, None, "401",
               "operation requires credentials but declares no 401 response")


# ---------------------------------------------------------------------------
# URI design rules
# ---------------------------------------------------------------------------


def check_plural_noun(operations: Operations, templates: Templates, cfg: RuleConfig,
                      lexicon: WordLexicon) -> Iterator[Finding]:
    """Collection segments must have a plural head word."""
    for path, template in templates.items():
        for seg, archetype in zip(template.segments, template.archetypes):
            if archetype is _COLLECTION and seg.words:
                if not is_plural(seg.words[-1], lexicon):
                    yield (path, None, None, seg.raw,
                           f"collection segment '{seg.raw}' should use a plural noun")


def check_singular_noun(operations: Operations, templates: Templates, cfg: RuleConfig,
                        lexicon: WordLexicon) -> Iterator[Finding]:
    """Literal document segments must have a singular head word.

    Parameter segments are exempt: their runtime values are opaque.
    """
    for path, template in templates.items():
        for seg, archetype in zip(template.segments, template.archetypes):
            if (
                seg.kind is _LITERAL
                and archetype is _DOCUMENT
                and seg.words
                and is_plural(seg.words[-1], lexicon)
            ):
                yield (path, None, None, seg.raw,
                       f"document segment '{seg.raw}' should use a singular noun")


def check_no_trailing_slash(operations: Operations, templates: Templates, cfg: RuleConfig,
                            lexicon: WordLexicon) -> Iterator[Finding]:
    """Path templates must not end with a slash; the root path is exempt."""
    for path, template in templates.items():
        if template.has_trailing_slash:
            yield path, None, None, "/", "path has a trailing slash"


def check_verb_controller(operations: Operations, templates: Templates, cfg: RuleConfig,
                          lexicon: WordLexicon) -> Iterator[Finding]:
    """Controller segments must start with a verb.

    The default classifier only labels verb-initial segments as
    controllers, so this fires through archetype overrides that pin a
    segment to the controller archetype.
    """
    for path, template in templates.items():
        for seg, archetype in zip(template.segments, template.archetypes):
            if archetype is _CONTROLLER and seg.words:
                if not is_verb(seg.words[0], lexicon):
                    yield (path, None, None, seg.raw,
                           f"controller segment '{seg.raw}' should start with a verb")


def check_no_crud_names(operations: Operations, templates: Templates, cfg: RuleConfig,
                        lexicon: WordLexicon) -> Iterator[Finding]:
    """CRUD function names do not belong in URIs."""
    for path, template in templates.items():
        for seg in template.segments:
            if seg.kind is not _LITERAL:
                continue
            for token in seg.words:
                if crud_method_of(token, lexicon) is not None:
                    yield (path, None, None, token,
                           f"CRUD name '{token}' in URI segment '{seg.raw}'")
                    break


def check_forward_slash(operations: Operations, templates: Templates, cfg: RuleConfig,
                        lexicon: WordLexicon) -> Iterator[Finding]:
    """Hierarchy must be expressed with '/': no empty segments, no '.'/':'/';'."""
    for path, template in templates.items():
        if template.has_empty_segment:
            yield path, None, None, "//", "empty path segment (consecutive slashes)"
        for seg in template.segments:
            raw = seg.raw  # the substring tests spare most segments the regex
            if (seg.kind is _LITERAL and ("." in raw or ":" in raw or ";" in raw)
                    and _HIERARCHY_SEPARATOR.search(raw)):
                yield (path, None, None, raw,
                       f"segment '{raw}' uses a non-slash hierarchy separator")


def check_hyphens(operations: Operations, templates: Templates, cfg: RuleConfig,
                  lexicon: WordLexicon) -> Iterator[Finding]:
    """Multiword literal segments should be hyphen-separated.

    Fires on case or underscore boundaries; digit boundaries alone
    (version tokens like v2) are exempt.
    """
    for path, template in templates.items():
        for seg in template.segments:
            if seg.kind is _LITERAL and seg.camel_or_snake:
                yield (path, None, None, seg.raw,
                       f"multiword segment '{seg.raw}' should use hyphens")


def check_lowercase(operations: Operations, templates: Templates, cfg: RuleConfig,
                    lexicon: WordLexicon) -> Iterator[Finding]:
    """URI paths should be lowercase; parameter names are placeholders."""
    for path, template in templates.items():
        for seg in template.segments:
            if seg.kind is _PARAMETER and cfg.exempt_parameter_names:
                continue
            name = seg.name
            # lower() changes titlecase letters such as "ǅ", which are not upper-case.
            if name != name.lower() if name.isascii() else any(ch.isupper() for ch in name):
                yield (path, None, None, seg.raw,
                       f"segment '{seg.raw}' contains uppercase characters")


def check_no_underscores(operations: Operations, templates: Templates, cfg: RuleConfig,
                         lexicon: WordLexicon) -> Iterator[Finding]:
    """Underscores do not belong in URI paths; parameter names are placeholders."""
    for path, template in templates.items():
        for seg in template.segments:
            if seg.kind is _PARAMETER and cfg.exempt_parameter_names:
                continue
            if "_" in seg.name:
                yield path, None, None, seg.raw, f"segment '{seg.raw}' contains underscores"


# ---------------------------------------------------------------------------
# Metadata design rules
# ---------------------------------------------------------------------------


def check_content_type(operations: Operations, templates: Templates, cfg: RuleConfig,
                       lexicon: WordLexicon) -> Iterator[Finding]:
    """Request bodies and body-bearing responses must declare media types."""
    for path, method, op, _ in operations:
        if op.has_request_body and not op.request_media_types:
            yield path, method, None, "Content-Type", "request body declares no media type"
        for status, media_types in op.responses.items():
            if status in _BODYLESS_STATUSES or status.startswith("1"):
                continue
            if not media_types:
                yield (path, method, status, "Content-Type",
                       f"response {status} declares no media type")


def check_description_type(operations: Operations, templates: Templates, cfg: RuleConfig,
                           lexicon: WordLexicon) -> Iterator[Finding]:
    """The leading word of a description must not contradict the method.

    Only the first word is inspected; scanning whole descriptions is far
    too noisy. Operations without a usable leading word produce nothing.
    """
    for path, method, op, _ in operations:
        own_class = _METHOD_CLASS.get(method)
        if own_class is None:
            continue
        text = op.description or op.summary
        if not text:
            continue
        match = _LEADING_WORD.search(text)
        if match is None:
            continue
        word = match.group(0).lower()
        implied = crud_method_of(word, lexicon)
        if implied is not None and _METHOD_CLASS[implied] != own_class:
            yield (path, method, None, word,
                   f"description starts with '{word}' ({implied}-style) "
                   f"but the method is {method}")


# ---------------------------------------------------------------------------
# Request method rules
# ---------------------------------------------------------------------------


def check_no_tunnel(operations: Operations, templates: Templates, cfg: RuleConfig,
                    lexicon: WordLexicon) -> Iterator[Finding]:
    """GET and POST must not smuggle another method's semantics.

    Flags CRUD tokens (in the path or operationId) that imply a
    different method, and method-switching query parameters. POST
    carrying create-class tokens is the legitimate case.
    """
    for path, method, op, actions in operations:
        if method not in ("GET", "POST"):
            continue
        for token, implied in actions:
            if implied != method:
                yield (path, method, None, token,
                       f"'{token}' tunnels {implied} semantics through {method}")
        for name in op.query_parameter_names:
            if name in _TUNNEL_QUERY_PARAMS:
                yield (path, method, None, name,
                       f"query parameter '{name}' switches the request method")


def check_get_retrieve(operations: Operations, templates: Templates, cfg: RuleConfig,
                       lexicon: WordLexicon) -> Iterator[Finding]:
    """GET must only retrieve: no request bodies, no non-read CRUD tokens."""
    for path, method, op, actions in operations:
        if method != "GET":
            continue
        if op.has_request_body:
            yield path, "GET", None, "request-body", "GET operation declares a request body"
        for token, implied in actions:
            if _METHOD_CLASS[implied] != "read":
                yield (path, "GET", None, token,
                       f"GET used for a {_METHOD_CLASS[implied]}-style action '{token}'")


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------

_RULES = {
    RuleId.RC401: (Category.HTTP_STATUS_CODES, check_rc401),
    RuleId.PLURAL_NOUN: (Category.URI_DESIGN, check_plural_noun),
    RuleId.SINGULAR_NOUN: (Category.URI_DESIGN, check_singular_noun),
    RuleId.NO_TRAILING_SLASH: (Category.URI_DESIGN, check_no_trailing_slash),
    RuleId.VERB_CONTROLLER: (Category.URI_DESIGN, check_verb_controller),
    RuleId.NO_CRUD_NAMES: (Category.URI_DESIGN, check_no_crud_names),
    RuleId.CONTENT_TYPE: (Category.METADATA_DESIGN, check_content_type),
    RuleId.DESCRIPTION_TYPE: (Category.METADATA_DESIGN, check_description_type),
    RuleId.FORWARD_SLASH: (Category.URI_DESIGN, check_forward_slash),
    RuleId.NO_TUNNEL: (Category.REQUEST_METHODS, check_no_tunnel),
    RuleId.GET_RETRIEVE: (Category.REQUEST_METHODS, check_get_retrieve),
    RuleId.HYPHENS: (Category.URI_DESIGN, check_hyphens),
    RuleId.LOWERCASE: (Category.URI_DESIGN, check_lowercase),
    RuleId.NO_UNDERSCORES: (Category.URI_DESIGN, check_no_underscores),
}
